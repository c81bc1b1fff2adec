(** The static backbone: the paper's cluster-based source-independent CDS.

    Clusterheads are elected by lowest-ID clustering; each clusterhead
    selects gateways connecting it to every clusterhead in its coverage
    set (2.5-hop or 3-hop).  Clusterheads plus selected gateways form a
    CDS of the network (Theorem 1); a broadcast is then forwarded by
    every backbone node reached (Section 3). *)

type t = {
  graph : Manet_graph.Graph.t;
  clustering : Manet_cluster.Clustering.t;
  mode : Manet_coverage.Coverage.mode;
  coverages : Manet_coverage.Coverage.t option array;
      (** coverage set of each clusterhead; [None] at non-clusterheads *)
  gateways : Manet_graph.Nodeset.t;  (** union of all clusterheads' selections *)
  members : Manet_graph.Nodeset.t;  (** the backbone: clusterheads plus gateways *)
}

val build :
  ?clustering:Manet_cluster.Clustering.t ->
  ?cache:Manet_coverage.Coverage.Cache.t ->
  Manet_graph.Graph.t ->
  Manet_coverage.Coverage.mode ->
  t
(** Construct the backbone.  [clustering] defaults to lowest-ID
    clustering of the graph; pass it explicitly to share one clustering
    across several constructions (as the experiments do when comparing
    algorithms on the same topology).  [cache] shares precomputed CH_HOP
    tables (it must have been created from [g], the same clustering, and
    the same mode); when absent the coverage sets are computed from a
    fresh cache. *)

val size : t -> int
(** |CDS| — the quantity of the paper's Figure 6. *)

val in_backbone : t -> int -> bool

val is_cds : t -> bool
(** Verifies Theorem 1 on this instance: the members dominate the graph
    and induce a connected subgraph. *)

val protocol : Manet_coverage.Coverage.mode -> Manet_broadcast.Protocol.t
(** [static-2.5hop] / [static-3hop] in the protocol registry: {!build}
    over the environment's clustering as the build phase, SI-CDS
    forwarding over the members (its forward count is what Figure 8
    reports for the static backbone). *)
