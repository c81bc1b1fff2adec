(** Exact minimum connected dominating set by branch and bound.

    Finding the MCDS is NP-complete even on unit disk graphs (Section 1),
    so the exact search is only feasible on small instances; it exists to
    measure the {e approximation ratio} of the backbone constructions
    (experiment ext-approx) and to validate the greedy reference.

    The search tries sizes k = lower-bound .. greedy-size, enumerating
    k-subsets in lexicographic order with a domination-feasibility bound:
    a partial choice is abandoned when the remaining slots cannot possibly
    dominate the still-undominated nodes.  The first CDS found is returned
    (the lexicographically smallest one of minimum size, keeping results
    deterministic). *)

val build : Manet_graph.Graph.t -> Manet_graph.Nodeset.t
(** [build g] is a minimum CDS of [g].
    @raise Invalid_argument if the graph is empty, disconnected, or has
    more than 24 nodes — a guard against accidentally launching an
    exponential search. *)

val size : Manet_graph.Graph.t -> int
(** [Nodeset.cardinal (build g)]. *)
