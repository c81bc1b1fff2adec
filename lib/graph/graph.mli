(** Immutable undirected graphs over nodes [0 .. n-1].

    A MANET is modeled as a unit disk graph (Section 1 of the paper):
    nodes are hosts, edges are bidirectional links between hosts within
    transmission range.  This module is the representation every algorithm
    works on — adjacency is stored in flat CSR form (one concatenated
    neighbor array plus an [n+1] offset array), so neighbor iteration is a
    contiguous scan and membership tests are O(log degree). *)

type t = private {
  n : int;  (** number of nodes *)
  m : int;  (** number of (undirected) edges *)
  off : int array;  (** length [n + 1], starting at 0 *)
  nbr : int array;
      (** node [v]'s neighbor row is [nbr.(off.(v)) .. nbr.(off.(v + 1) - 1)],
          sorted strictly increasing *)
}
(** The CSR arrays are the graph's own storage, read-only: mutating them
    corrupts the graph.  Inner loops that cannot afford the closure of
    {!iter_neighbors} read them directly, as
    [let { Graph.off; nbr; _ } = g in]. *)

val of_edges : n:int -> (int * int) list -> t
(** [of_edges ~n edges] builds a graph on [n] nodes.  Edges are undirected;
    duplicates (in either orientation) are collapsed.
    @raise Invalid_argument on a self-loop, an endpoint outside
    [\[0, n)], or [n < 0]. *)

val of_adjacency : int array array -> t
(** [of_adjacency adj] builds the graph whose node [v] has exactly the
    neighbors [adj.(v)], copied into the internal CSR arrays (the caller
    keeps ownership of [adj]).  Rows must be symmetric ([u] in [adj.(v)]
    iff [v] in [adj.(u)]) and duplicate-free — duplicates, self-loops,
    and out-of-range endpoints raise [Invalid_argument]; asymmetry is
    not checked. *)

val of_half_edges : n:int -> len:int -> int array -> t
(** [of_half_edges ~n ~len buf] builds a graph on [n] nodes from a packed
    half-edge buffer: [buf.(2k)] and [buf.(2k + 1)] are the endpoints of
    edge [k] for [2k < len], each undirected edge listed exactly once (in
    either orientation).  This is the bulk path behind
    {!Unit_disk.build_brute_force} and {!Unit_disk.build_toroidal}: the
    CSR arrays are filled straight from the buffer, with no intermediate
    per-row arrays or edge list.  Slack
    beyond [len] is ignored, so a growable buffer can be passed as-is.
    Duplicate edges are not detected (the resulting graph would be
    malformed); self-loops, out-of-range endpoints, an odd or negative
    [len], and [len > Array.length buf] raise [Invalid_argument]. *)

val unsafe_of_csr : off:int array -> nbr:int array -> t
(** [unsafe_of_csr ~off ~nbr] takes ownership of a ready-made CSR pair
    (the [off]/[nbr] fields of {!t}) on [Array.length off - 1] nodes.  {b Unchecked}: the
    caller guarantees [off.(0) = 0], non-decreasing offsets,
    [Array.length nbr = off.(n)], rows sorted strictly increasing,
    endpoints in range, no self-loops and symmetry.  A violation is not
    detected and yields a malformed graph.  This is the bulk path of
    {!Unit_disk.build}, which emits the rows in that form directly. *)

val empty : int -> t
(** [empty n] has [n] nodes and no edges. *)

val complete : int -> t

val path : int -> t
(** [path n] is the chain [0 - 1 - ... - n-1]. *)

val cycle : int -> t
(** @raise Invalid_argument if [n < 3]. *)

val star : int -> t
(** [star n] has node 0 adjacent to each of [1 .. n-1]. *)

val n : t -> int
(** Number of nodes. *)

val m : t -> int
(** Number of (undirected) edges. *)

val neighbors : t -> int -> int array
(** Sorted, strictly increasing.  Returns a fresh copy of the CSR row —
    use {!iter_neighbors}/{!fold_neighbors} (or the CSR fields of {!t})
    on hot paths to avoid the allocation. *)

val degree : t -> int -> int

val max_degree : t -> int
(** The paper's Delta; [0] on an empty graph. *)

val avg_degree : t -> float
(** [2m/n]; [0.] when [n = 0]. *)

val mem_edge : t -> int -> int -> bool
(** O(log degree); false for [u = v]. *)

val iter_neighbors : t -> int -> (int -> unit) -> unit

val fold_neighbors : t -> int -> ('a -> int -> 'a) -> 'a -> 'a

val edges : t -> (int * int) list
(** Each edge once, as [(u, v)] with [u < v], lexicographically sorted. *)

val closed_neighborhood : t -> int -> Nodeset.t
(** N[v] = N(v) together with v itself. *)

val open_neighborhood : t -> int -> Nodeset.t
(** N(v). *)

val induced : t -> Nodeset.t -> t * int array
(** [induced g s] is the subgraph induced by [s] with nodes renumbered
    [0 .. |s|-1], plus the array mapping new ids back to the originals. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** One adjacency line per node, for debugging. *)
