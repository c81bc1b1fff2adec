(** Flat sorted-int sets over pooled, generation-tagged storage.

    The dynamic broadcast's pruning rule (C(v) := C(v) - C(u) - {u} -
    N(r)) builds and discards a handful of small clusterhead sets per
    relaying head.  As {!Nodeset.t} AVL trees those sets dominate the
    per-broadcast allocation profile; as slices of one arena-owned int
    buffer they cost nothing per operation once the buffer has grown to
    its steady-state size.

    A {!pool} is a bump allocator over one growable int array.  A {!t}
    is a slice of it: strictly increasing elements, tagged with the
    pool's generation at creation time.  {!reset} retires every
    outstanding slice in O(1) by bumping the generation — any later
    access through a stale slice raises [Invalid_argument] instead of
    silently reading reused storage.  Union/diff/membership allocate
    nothing beyond pool space (and the 4-word slice handle); the
    equivalence contract with {!Nodeset} is pinned by the randomized
    property suite (test_flatset.ml). *)

type pool
(** One growable int buffer plus its current generation.  Single-owner
    mutable state: do not share a pool between domains. *)

type t
(** A slice of a pool: a set of ints in strictly increasing order,
    valid until the pool's next {!reset}. *)

val create_pool : unit -> pool

val reset : pool -> unit
(** Retire every outstanding slice (generation bump) and reclaim all
    pool space.  O(1); the buffer is retained. *)

val generation : pool -> int

val of_increasing : pool -> int array -> len:int -> t
(** Copy [a.(0..len-1)] — which must be strictly increasing — into the
    pool.  The source array is not retained.
    @raise Invalid_argument if the prefix is not strictly increasing
    or [len] is out of range. *)

val of_sorted : pool -> int array -> t
(** [of_increasing p a ~len:(Array.length a)]. *)

val to_nodeset : t -> Nodeset.t
(** The slice as a {!Nodeset.t} ({!Nodeset.of_increasing}, one tree
    node per element). *)

val length : t -> int

val get : t -> int -> int
(** [get t i] is the [i]-th smallest element.
    @raise Invalid_argument if [i] is out of bounds. *)

val mem : t -> int -> bool
(** Binary search; allocation-free. *)

val iter : (int -> unit) -> t -> unit
(** Ascending order. *)

val fold : ('a -> int -> 'a) -> 'a -> t -> 'a
(** Ascending order. *)

val equal : t -> t -> bool

val union : pool -> t -> t -> t
(** Merge into fresh pool space; operands may live in the same pool. *)

val diff : pool -> t -> t -> t

val diff_row : pool -> t -> int array -> t
(** [diff_row p t row]: [t] minus the elements of [row], a strictly
    increasing array (a cached CH_HOP row used in place, no slice
    wrapper needed). *)

val remove : pool -> t -> int -> t

val sort_ints : int array -> lo:int -> hi:int -> unit
(** In-place ascending heapsort of [a.(lo..hi-1)] — the allocation-free
    range sort the flat consumers (gateway selection) share. *)

val unsafe_retag : t -> t
(** The same slice stamped with the pool's {e current} generation, so a
    stale slice reads whatever the pool now holds without tripping the
    staleness check.  This deliberately forges the generation tag: it
    exists only so the invariant harness's [stale-pool] mutant can
    demonstrate that the flatset-reuse oracle catches exactly this
    corruption.  Never use it outside the harness. *)
