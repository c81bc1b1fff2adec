(** Incremental maintenance of the static backbone under topology change
    — the machinery whose cost the paper argues against (Section 1:
    "maintaining such a backbone infrastructure in a mobile environment
    is a costly operation").

    On each topology update the clustering is repaired incrementally
    ({!Manet_cluster.Maintenance}), and only the clusterheads whose 3-hop
    neighborhood was touched — by a link change or by a role change —
    recompute their coverage sets and gateway selections.  Heads farther
    away provably see an identical 3-hop ball, so their cached coverage
    and selection are still exact, and the incrementally maintained
    backbone equals a from-scratch rebuild over the same clustering (the
    test suite asserts this equivalence along random-waypoint
    trajectories).

    Message accounting per update:
    - clustering repair: one transmission per role change;
    - CH_HOP refresh: two transmissions per non-clusterhead within two
      hops of a change (their CH_HOP1/CH_HOP2 must be re-announced);
    - GATEWAY refresh: per refreshed head, one GATEWAY message plus one
      forward by each selected 1-hop gateway.

    Computational cost per update: handed the snapshot it already
    holds, an update does nothing.  Otherwise the clustering repair and
    one O(n+m) diff of the old and new adjacency find the affected
    nodes; two bounded BFS balls around them pick the heads to refresh,
    and the CH_HOP count walks the new ball only.  If any head
    refreshes, one {!Manet_coverage.Coverage.Cache.create_for} table
    holds just the rows those heads read (CH_HOP1 and CH_HOP2 at their
    neighbours, plus CH_HOP1 one hop further in [Hop3] mode), and every
    refreshed head reads its coverage set from it and selects its
    gateways on the selection's reusable scratch.  Coverages and
    selections live in node-indexed arrays allocated once by {!create};
    beyond the table's rows, its O(n) slot arrays and a few O(n) head
    arrays (the maintained clustering and the role-diff snapshot), an
    update allocates only the refreshed heads' new coverage sets and
    selections. *)

type t

val create : Manet_graph.Graph.t -> Manet_coverage.Coverage.mode -> t
(** Build the initial backbone from the lowest-ID clustering of the
    initial topology. *)

type report = {
  cluster_events : Manet_cluster.Maintenance.events;
  refreshed_heads : int;  (** heads that recomputed coverage + gateways *)
  ch_hop_messages : int;
  gateway_messages : int;
  total_messages : int;
}

val update : t -> Manet_graph.Graph.t -> report
(** Adapt to a new topology snapshot (same node count).  Handed the
    snapshot it already holds ([g == graph t]), it returns the all-zero
    report at once and changes nothing.
    @raise Invalid_argument on a node-count mismatch. *)

val graph : t -> Manet_graph.Graph.t
(** The snapshot of the last {!update} (of {!create} before any). *)

val clustering : t -> Manet_cluster.Clustering.t
(** The currently maintained clustering — what a live broadcast
    environment retargets onto without paying for a full {!backbone}
    materialization. *)

val iter_members : t -> (int -> unit) -> unit
(** [iter_members t f] applies [f] to every member of the maintained
    backbone (the current heads and their selected gateways) exactly
    once, in unspecified order, without materializing {!backbone} —
    the serving loop's way to refill its per-node member indicator after
    each update. *)

val backbone : t -> Static_backbone.t
(** The currently maintained backbone (equal to
    [Static_backbone.build ~clustering:(current clustering) graph mode]). *)
