(** Message and round accounting for the distributed backbone
    construction (the paper's complexity analysis, Section 4).

    The static backbone is built by four protocol stages; the last three
    run here as message-passing protocols on the synchronous round
    engine:

    + HELLO neighbor discovery — one transmission per node;
    + lowest-ID clustering — one declaration per node
      ({!Manet_cluster.Lowest_id_proto});
    + CH_HOP1/CH_HOP2 exchange — two transmissions per non-clusterhead
      ({!Manet_coverage.Ch_hop_proto});
    + GATEWAY notification — each clusterhead broadcasts one GATEWAY
      message with TTL 2, re-broadcast by each of its selected 1-hop
      gateways so 2-hop gateways hear it ({!Gateway_proto}).

    Totals are O(n), making the construction message-optimal; the
    ext-msgs experiment plots these counts against n. *)

type t = {
  hello : int;
  clustering : int;
  clustering_rounds : int;
  ch_hop : int;
  ch_hop_rounds : int;
  gateway : int;  (** GATEWAY transmissions: heads + forwarding 1-hop gateways *)
  total : int;
}

val measure : Manet_graph.Graph.t -> Manet_coverage.Coverage.mode -> t * Static_backbone.t
(** Run the full distributed construction pipeline on [g], returning the
    accounting and the backbone it builds: the clusterheads of the
    clustering stage plus the nodes the GATEWAY stage informs.  The test
    suite checks it is identical to {!Static_backbone.build}. *)

val pp : Format.formatter -> t -> unit
