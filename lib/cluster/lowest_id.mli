(** The lowest-ID clustering algorithm (Ephremides, Wieselthier & Baker).

    A candidate declares itself clusterhead when it has the smallest id
    among all its candidate neighbors; a candidate that hears a
    clusterhead declaration joins the cluster of the smallest-id declaring
    neighbor (Section 2).  This module is the {e centralized reference}:
    {!Clustering.elect} with [beats = (<)], the synchronous declare/join
    fixpoint that computes exactly the result the distributed protocol
    ({!Lowest_id_proto}) reaches — the test suite checks the two agree
    on random graphs.

    The resulting head set is always the greedy-by-id maximal independent
    set; cluster {e membership} follows the protocol's "join the first
    (smallest, on ties) head heard" rule, which under synchronous rounds
    is deterministic. *)

val cluster : Manet_graph.Graph.t -> Clustering.t

val head_array : Manet_graph.Graph.t -> int array
(** The raw head-of array behind {!cluster}, for callers assembling their
    own structures. *)
