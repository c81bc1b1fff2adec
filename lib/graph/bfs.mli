(** Breadth-first search: the one traversal kernel of the library.

    The paper's constructions are defined in terms of hop distances —
    N^k(v) is v's k-hop neighbor set including v itself (Section 1).
    Every scan of a hop ball runs on a reusable {!t}: one n-slot int
    array holding both the seen mark and the hop distance, tagged by a
    base that {!reset} moves past the last traversal (so a new one
    starts in O(1)), and the flat queue.  Nothing is allocated per
    traversal once the state has grown to the graph. *)

type t

val create : unit -> t
(** An empty state; the first {!reset} sizes it. *)

val reset : t -> n:int -> unit
(** Start a new traversal over nodes [0 .. n-1]: nothing seen. *)

val block : t -> int -> unit
(** Mark a node seen without queueing it: no traversal enters it. *)

val seed : t -> int -> unit
(** Queue a node at hop distance 0, unless it is already seen. *)

val expand : t -> Graph.t -> limit:int -> unit
(** Run the traversal from the queue's unprocessed part: each queued
    node at distance [< limit] queues its unseen neighbors, in
    increasing id order, one hop farther.  Stops once every node is
    queued or blocked.  Seeding and expanding again continues the same
    traversal.
    @raise Invalid_argument if the graph has more nodes than the
    {!reset}. *)

val reached : t -> int
(** Number of nodes queued so far. *)

val nth : t -> int -> int
(** [nth t i], [0 <= i < reached t]: the [i]-th node queued. *)

val seen : t -> int -> bool
(** Queued or blocked in the current traversal. *)

val dist : t -> int -> int
(** Hop distance of a queued node from the nearest seed; [max_int] for
    an unseen or blocked node. *)

val distances : Graph.t -> source:int -> int array
(** Hop distance from [source] to every node; [max_int] when
    unreachable. *)

val distances_upto : Graph.t -> source:int -> limit:int -> int array
(** Like {!distances} but stops exploring beyond [limit] hops, leaving
    farther nodes at [max_int]. *)
