(** Spanning-tree-based CDS (Alzoubi, Wan and Frieder, HICSS-35) — the
    other distributed CDS construction the paper cites in Section 2.

    A BFS tree is rooted at the lowest-id node; a maximal independent set
    is chosen greedily in (BFS level, id) order; every non-root MIS node
    is then connected toward the root through its BFS parent: the parent
    either is in the MIS or is dominated by an MIS node of smaller rank,
    so adding the parents as connectors yields a connected dominating
    set. *)

type t = {
  graph : Manet_graph.Graph.t;
  root : int;
  mis : Manet_graph.Nodeset.t;  (** the independent dominators *)
  connectors : Manet_graph.Nodeset.t;
  members : Manet_graph.Nodeset.t;  (** the CDS: MIS plus connectors *)
}

val build : Manet_graph.Graph.t -> t
(** @raise Invalid_argument if the graph is empty or disconnected. *)

val size : t -> int

val is_cds : t -> bool

val protocol : Manet_broadcast.Protocol.t
(** [tree-cds] in the protocol registry: {!build} as the build phase,
    SI-CDS forwarding over the members. *)
