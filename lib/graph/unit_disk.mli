(** Unit-disk graph construction.

    "Two hosts are considered neighbors if and only if their geographic
    distance is less than r" (Section 1).  Points are binned into square
    cells of side [r]; each occupied cell holds one sorted candidate list
    (the nodes of its 3 x 3 block of cells), and a node's row is its
    cell's list under the distance test, so construction is linear in
    the number of nodes for the uniform placements used in the
    evaluation, and the memory is O(n) however far apart the points
    are. *)

module Scratch : sig
  type t
  (** Reusable working storage for {!build} and {!patch}: the cell
      table, the candidate lists and the row buffer.  It grows to fit
      the largest input it serves and is kept between calls, so a caller
      that builds many graphs of one size (a rejection-sampling loop, a
      serving loop's snapshots) allocates only each graph's own arrays.
      Holds no result: reusing it never changes a graph.
      Single-threaded state: one scratch must not serve two builds at
      once. *)

  val create : unit -> t
  (** An empty scratch; it allocates on first use. *)
end

val build : ?scratch:Scratch.t -> radius:float -> Manet_geom.Point.t array -> Graph.t
(** [build ~radius points] links every pair at distance strictly less than
    [radius] (the float test [Point.dist_sq p q < radius *. radius]).
    Node [i] is [points.(i)].  [scratch] defaults to a fresh one.  Exact
    for coordinates below about [10^6] radii in magnitude.
    @raise Invalid_argument unless [radius > 0.] (so also on [nan]). *)

val patch :
  ?scratch:Scratch.t ->
  radius:float ->
  Manet_geom.Point.t array ->
  Graph.t ->
  changed:int array ->
  int ->
  Graph.t
(** [patch ~radius points g ~changed k] is [build ~radius points] when
    [g] is [build ~radius old] for points [old] that differ from
    [points] only at the nodes [changed.(0) .. changed.(k - 1)] (in any
    order, repeats allowed).  It recomputes only those nodes' rows,
    against every point under {!build}'s distance test, and edits the
    rows of their old and new neighbours; every other row is copied from
    [g], which is left untouched.  O(k n + n + m): cheaper than {!build}
    while [k] is small.
    @raise Invalid_argument unless [radius > 0.], on a [g] whose node
    count is not [Array.length points], or on a node out of range. *)

val build_brute_force : radius:float -> Manet_geom.Point.t array -> Graph.t
(** O(n^2) reference implementation; used by tests as the oracle for
    {!build}.  @raise Invalid_argument unless [radius > 0.]. *)

val build_toroidal :
  radius:float -> width:float -> height:float -> Manet_geom.Point.t array -> Graph.t
(** Unit-disk graph under the toroidal (wrap-around) metric — a
    border-effect-free variant of {!build} for methodological
    comparisons (O(n^2); the confined-space experiments never need it at
    scale).  @raise Invalid_argument unless [radius > 0.]. *)

val expected_degree : n:int -> radius:float -> width:float -> height:float -> float
(** Expected average degree of a uniform placement, ignoring border
    effects: [(n - 1) * pi r^2 / (width * height)]. *)

val radius_for_degree : n:int -> degree:float -> width:float -> height:float -> float
(** Inverse of {!expected_degree}: the transmission range giving the
    target average degree.  This is how the experiments translate the
    paper's "fixed average node degree d = 6 and 18" into a radius for
    each network size. *)
