(** Sets of node identifiers.

    A thin extension of [Set.Make (Int)] shared by every algorithm in the
    repository (coverage sets, forward-node sets, dominating sets, ...). *)

include Set.S with type elt = int

val of_indicator : bool array -> t
(** [of_indicator a] is the set of indices [i] with [a.(i) = true]. *)

val of_increasing : int array -> len:int -> t
(** [of_increasing a ~len] is the set of [a.(0)], ..., [a.(len - 1)],
    which must be strictly increasing.  O(len), building exactly one
    tree node per element — the allocation-lean constructor for
    sorted input ({!of_list} re-sorts even sorted input).
    @raise Invalid_argument if [len] is negative, exceeds the array
    length, or the prefix is not strictly increasing. *)

val of_predicate : n:int -> card:int -> (int -> bool) -> t
(** [of_predicate ~n ~card p] is the set of the [i] in [\[0, n)] with
    [p i], of which there must be exactly [card].  One ascending scan,
    [p] called once per index, building exactly the tree
    {!of_increasing} builds from the same elements, without an element
    buffer — the broadcast engine builds its forward-node sets straight
    from its generation-tagged transmitted map with it.
    @raise Invalid_argument if [card] is negative or is not the number
    of such [i]. *)

val to_indicator : n:int -> t -> bool array
(** [to_indicator ~n s] is the [n]-slot indicator array of [s].
    @raise Invalid_argument if an element is outside [\[0, n)]. *)

val range : int -> t
(** [range n] is [{0, ..., n-1}]. *)

val pp : Format.formatter -> t -> unit
(** Prints as [{a, b, c}]. *)
