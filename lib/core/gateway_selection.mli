(** The paper's greedy gateway-selection heuristic (Section 3).

    Given a clusterhead's coverage set, choose gateways connecting it to a
    set of target clusterheads:

    {ol
    {- While uncovered 2-hop targets remain, select the neighbor that
       directly covers the most of them; break ties by the number of
       3-hop targets it covers indirectly, then by lowest node id.
       Selecting a neighbor also covers every 3-hop target it reaches
       indirectly, pulling in the associated second-hop node as a
       gateway.}
    {- Any 3-hop targets left are connected by a pair of
       non-clusterheads.  The paper leaves the pair choice open; we prefer
       pairs reusing already-selected gateways, then the smallest first
       hop (a coverage set holds one pair per first hop per target) — a
       deterministic choice documented in DESIGN.md.}}

    The same routine serves the static backbone (targets = the whole
    coverage set) and the dynamic backbone (targets = the coverage set
    pruned by upstream history). *)

val select :
  ?targets:Manet_graph.Nodeset.t -> Manet_coverage.Coverage.t -> Manet_graph.Nodeset.t
(** [select cov ~targets] returns the selected gateway nodes (first and
    second hops mixed; all non-clusterheads).  Targets outside the
    coverage set are ignored; an empty effective target set yields the
    empty selection.  Omitting [targets] selects for the whole coverage
    set — equivalent to [~targets:(Coverage.covered cov)] without
    materialising the set. *)

val select_array : Manet_coverage.Coverage.t -> int array
(** [select_array cov] is [select cov] (the whole coverage set as
    targets) as a fresh strictly increasing array, built on the same
    domain-local scratch as {!select_pruned}: nothing is allocated
    beyond the result. *)

val select_pruned :
  Manet_coverage.Coverage.t ->
  upstream:int ->
  upstream_cov:Manet_coverage.Coverage.t option ->
  heard:int array ->
  int
(** [select_pruned cov ~upstream ~upstream_cov ~heard] selects for the
    targets C(owner) - C(u) - \{[upstream]\} - [heard], the dynamic
    backbone's pruning: C(u) is the key set of [upstream_cov] (the
    upstream clusterhead's coverage set), tested in place against its
    two sorted key arrays, and [heard] is a strictly increasing row (the
    relaying node's [Cache.ch_hop1]); [None], [-1] and [[||]] prune
    nothing.  It returns the number [k] of gateways {!select} selects
    for those targets, which are [(selection ()).(0 .. k - 1)],
    ascending — the allocation-free variant for the dynamic-broadcast
    hot path: no predicate, no callback, nothing allocated once the
    domain-local scratch has grown. *)

val selection : unit -> int array
(** The domain-local output buffer of the selections: after [k =
    select_pruned ...] its first [k] entries are that selection, until
    the next selection on the same domain overwrites them.  Callers
    must not write to it. *)

val hops : int -> int
(** [hops x], for a node [x] of the last {!select_pruned} selection on
    the calling domain, is its hop distance from the coverage set's
    owner: 1 for a first hop (a direct connector, adjacent to the
    owner), 2 for the second hop of a connector pair.  The kernel
    knows which it took, so no adjacency test is needed. *)

val select_all :
  Manet_coverage.Coverage.t option array -> n:int -> Manet_graph.Nodeset.t
(** [select_all coverages ~n] (with [n] the number of nodes) is the
    union over every clusterhead of [select cov] — the static backbone's
    gateway set — computed by the same kernel as {!select}, on working
    storage private to the call (a whole-topology build leaves the
    domain-local scratch as it was). *)
