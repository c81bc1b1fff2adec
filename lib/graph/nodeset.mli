(** Sets of node identifiers, shared by every algorithm in the
    repository (coverage sets, forward-node sets, dominating sets, ...).

    A set is its elements as a strictly increasing [int array]: callers
    may read it through [(s :> int array)] and must not write to it.
    Reads are O(1) ([cardinal], [min_elt_opt], [max_elt]), O(log n)
    ([mem]) or one scan; the binary operations are one sorted merge and
    allocate only their result.  [add] and [remove] copy the array: a
    set built one element at a time should be built from an indicator
    or a sorted buffer instead. *)

type t = private int array

val empty : t
val is_empty : t -> bool
val cardinal : t -> int
val singleton : int -> t
val mem : int -> t -> bool
val equal : t -> t -> bool
val subset : t -> t -> bool
val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
val add : int -> t -> t
val remove : int -> t -> t
val filter : (int -> bool) -> t -> t

val elements : t -> int list
(** Ascending, as are the traversals below. *)

val iter : (int -> unit) -> t -> unit
val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
val for_all : (int -> bool) -> t -> bool
val exists : (int -> bool) -> t -> bool
val min_elt_opt : t -> int option
val max_elt_opt : t -> int option

val max_elt : t -> int
(** @raise Not_found on the empty set. *)

val of_list : int list -> t
(** Any order, duplicates allowed. *)

val of_increasing : ?pos:int -> int array -> len:int -> t
(** [of_increasing ?pos a ~len] is the set of [a.(pos)], ...,
    [a.(pos + len - 1)] ([pos] defaults to 0), which must be strictly
    increasing: a copy of that slice.
    @raise Invalid_argument if [pos] or [len] is negative, the slice
    exceeds the array, or it is not strictly increasing. *)

val of_predicate : n:int -> card:int -> (int -> bool) -> t
(** [of_predicate ~n ~card p] is the set of the [i] in [\[0, n)] with
    [p i], of which there must be exactly [card].  One ascending scan,
    [p] called once per index, filling an array of [card] slots — the
    broadcast engine builds its forward-node sets straight from its
    generation-tagged transmitted map with it.
    @raise Invalid_argument if [card] is negative or is not the number
    of such [i]. *)

val of_indicator : bool array -> t
(** [of_indicator a] is the set of indices [i] with [a.(i) = true]. *)

val to_indicator : n:int -> t -> bool array
(** [to_indicator ~n s] is the [n]-slot indicator array of [s].
    @raise Invalid_argument if an element is outside [\[0, n)]. *)

val range : int -> t
(** [range n] is [{0, ..., n-1}]. *)

val pp : Format.formatter -> t -> unit
(** Prints as [{a, b, c}]. *)
