(** The GATEWAY notification protocol (Section 3).

    "After a clusterhead determines its gateways, it broadcasts a GATEWAY
    message that contains all the selected nodes among its 2-hop neighbor
    set by setting the time-to-live field (TTL) of the message to 2.  The
    selected nodes will be informed to become gateways when they receive
    the GATEWAY message and will forward the message if the TTL field of
    the message does not reach 0."

    Runs on the synchronous round engine after clustering and coverage
    are known (each clusterhead computes its selection locally from its
    coverage set).  {!Construction_cost} runs it as the construction's
    last stage; the test suite checks that the nodes it informs are
    exactly the gateways of {!Static_backbone.build}. *)

type report = {
  informed : Manet_graph.Nodeset.t;  (** nodes that learned they are gateways *)
  rounds : int;
  transmissions : int;  (** head broadcasts plus TTL forwards *)
}

val run :
  Manet_graph.Graph.t ->
  Manet_cluster.Clustering.t ->
  Manet_coverage.Coverage.t option array ->
  report
(** [run g cl coverages] notifies the gateways each clusterhead selects
    from its coverage set, [coverages.(h)] ([Some] exactly at the heads
    of [cl], as {!Manet_coverage.Ch_hop_proto} reports them). *)
