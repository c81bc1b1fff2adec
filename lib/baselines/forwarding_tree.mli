(** The cluster-based forwarding tree of Pagani and Rossi (Section 2).

    For reliable broadcast, a tree is rooted at the clusterhead of the
    source and grown level by level in clusterhead - gateway -
    clusterhead order until every cluster has joined; each gateway on the
    tree records its upstream and downstream clusterheads.  Forwarding
    along the tree reaches every node (the clusterheads dominate), and
    acknowledgements can flow back along tree edges — the reliability
    machinery whose maintenance cost the paper cites as the scheme's
    weakness in MANETs.

    This implementation grows the tree over the coverage-set structure:
    a clusterhead joins through the connector (or connector pair) of the
    first tree clusterhead that covers it, in BFS order. *)

type t = {
  graph : Manet_graph.Graph.t;
  root : int;  (** clusterhead of the source *)
  parent : int array;  (** tree parent of every tree node; -1 at the root and non-members *)
  members : Manet_graph.Nodeset.t;  (** clusterheads plus connecting gateways *)
}

val build :
  ?cache:Manet_coverage.Coverage.Cache.t ->
  Manet_graph.Graph.t ->
  Manet_cluster.Clustering.t ->
  Manet_coverage.Coverage.mode ->
  source:int ->
  t
(** [cache] shares precomputed CH_HOP tables and coverage sets (same
    graph, clustering, and mode).
    @raise Failure if some cluster cannot join (cannot happen on a
    connected graph — the cluster graph is strongly connected). *)

val is_cds : t -> bool

val size : t -> int

val depth : t -> int
(** Longest root-to-leaf path, in tree edges. *)

val ack_messages : t -> int
(** Transmissions of one full acknowledgement wave: one ack per tree
    edge, flowing leaf-to-root. *)

val protocol : Manet_broadcast.Protocol.t
(** [fwd-tree] in the protocol registry.  The tree is rooted at the
    source's clusterhead, so construction happens per broadcast (no
    proactive phase); the source sends to its clusterhead and
    forwarding is SI-CDS over the tree members, over the 2.5-hop
    coverage sets. *)
