(** The Wu–Li marking process with pruning Rules 1 and 2 (DIALM'99), one
    of the source-independent CDS algorithms the paper surveys in
    Section 2.

    Marking: a node is marked if it has two neighbors that are not
    neighbors of each other.  Rule 1 unmarks v when a marked neighbor u
    with higher id satisfies N[v] included in N[u]; Rule 2 unmarks v when two
    {e adjacent} marked neighbors u, w with higher ids satisfy
    N(v) included in N(u) union N(w).  On a connected graph the surviving marked
    nodes form a CDS (trivial graphs with no marked node — cliques and
    singletons — are handled by the caller noticing {!size} is 0). *)

type t = {
  graph : Manet_graph.Graph.t;
  marked : Manet_graph.Nodeset.t;  (** after the marking process *)
  members : Manet_graph.Nodeset.t;  (** after Rules 1 and 2 *)
}

val build : Manet_graph.Graph.t -> t

val size : t -> int

val is_cds : t -> bool

val protocol : Manet_broadcast.Protocol.t
(** [wu-li] in the protocol registry: {!build} as the build phase,
    SI-CDS forwarding over the surviving marked nodes.  If no node is
    marked (complete graphs), the source's single transmission already
    covers everyone. *)
