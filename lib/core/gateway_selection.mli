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
       pairs reusing already-selected gateways, then the lexicographically
       smallest pair — a deterministic choice documented in DESIGN.md.}}

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
    domain-local scratch as {!iter_selected}: nothing is allocated beyond
    the result. *)

val iter_selected :
  ?targets:(int -> bool) -> Manet_coverage.Coverage.t -> (int -> unit) -> unit
(** [iter_selected ?targets cov f] calls [f] on every gateway {!select}
    selects for the corresponding [targets] set, in ascending order —
    the allocation-free variant for the dynamic-broadcast hot path: the
    target set is a predicate over clusterhead ids, and [f] reads the
    selection in place from the domain-local scratch.  [f] must not
    select again (through any entry point of this module) on the same
    domain: that would overwrite the selection being iterated. *)

val select_all :
  Manet_coverage.Coverage.t option array -> n:int -> Manet_graph.Nodeset.t
(** [select_all coverages ~n] (with [n] the number of nodes) is the
    union over every clusterhead of [select cov] — the static backbone's
    gateway set — computed by the same kernel as {!select}, on working
    storage private to the call (a whole-topology build leaves the
    domain-local scratch as it was). *)
