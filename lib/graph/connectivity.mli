(** Connectivity queries.

    The paper's workload generator discards disconnected topologies, and
    both backbone theorems are statements about connectivity of induced
    subgraphs, so these checks appear throughout tests and experiments.
    Each query is one traversal on a fresh {!Bfs} state: [reachable_within]
    blocks the complement of its set, [is_connected_without] blocks the
    deleted node. *)

val is_connected : Graph.t -> bool
(** True for the empty and one-node graphs. *)

val components : Graph.t -> int array * int
(** [(comp, k)]: [comp.(v)] is the component index of [v] (0-based, in
    order of smallest member), [k] the number of components. *)

val is_connected_without : Graph.t -> v:int -> bool
(** Whether the graph stays connected after deleting node [v] — the
    residual-connectivity test of the fault-tolerance oracles (a
    [false] answer means [v] is a cut vertex, or the graph was already
    disconnected).  True on graphs of at most two nodes.
    @raise Invalid_argument if [v] is out of range. *)

val is_connected_subset : Graph.t -> Nodeset.t -> bool
(** Whether the subgraph induced by the set is connected.  The empty set
    counts as connected (vacuously), matching the usual CDS convention for
    trivial graphs. *)

val reachable_within : Graph.t -> from:int -> Nodeset.t -> Nodeset.t
(** Nodes of [s] reachable from [from] by paths staying inside [s];
    empty if [from] is not in [s]. *)
