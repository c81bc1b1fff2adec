(** MO_CDS: the message-optimal connected dominating set of Alzoubi, Wan
    and Frieder (MobiHoc 2002) — the algorithm the paper's evaluation
    compares against.

    As summarized in Section 2 of the paper: clusterheads are elected by
    lowest-ID clustering; each clusterhead learns its 2-hop and 3-hop
    clusterheads (the 3-hop coverage set) and selects {e one} node to
    connect each 2-hop clusterhead and {e a pair} of nodes to connect each
    3-hop clusterhead.  Unlike the paper's static backbone there is no
    greedy reuse of connectors across clusterheads, which is why MO_CDS
    comes out slightly (but insignificantly) larger in Figure 6.
    Connector choices are by lowest id, deterministically. *)

type t = {
  graph : Manet_graph.Graph.t;
  clustering : Manet_cluster.Clustering.t;
  connectors : Manet_graph.Nodeset.t;
  members : Manet_graph.Nodeset.t;  (** the CDS: clusterheads plus connectors *)
}

val build : ?clustering:Manet_cluster.Clustering.t -> Manet_graph.Graph.t -> t

val size : t -> int

val is_cds : t -> bool

val protocol : Manet_broadcast.Protocol.t
(** [mo_cds] in the protocol registry: {!build} over the environment's
    clustering as the build phase, SI-CDS forwarding over the members —
    the comparator series of Figures 6 and 7. *)
