(** Unit-disk graph construction.

    "Two hosts are considered neighbors if and only if their geographic
    distance is less than r" (Section 1).  Built over a flat cell index
    ({!Manet_geom.Grid}) that probes only the 3 x 3 block of cells around
    each node, so construction is near-linear in the number of nodes for
    the uniform placements used in the evaluation. *)

val build : radius:float -> Manet_geom.Point.t array -> Graph.t
(** [build ~radius points] links every pair at distance strictly less than
    [radius].  Node [i] is [points.(i)].
    @raise Invalid_argument if [radius <= 0.]. *)

val build_brute_force : radius:float -> Manet_geom.Point.t array -> Graph.t
(** O(n^2) reference implementation; used by tests as the oracle for
    {!build}. *)

val build_toroidal :
  radius:float -> width:float -> height:float -> Manet_geom.Point.t array -> Graph.t
(** Unit-disk graph under the toroidal (wrap-around) metric — a
    border-effect-free variant of {!build} for methodological
    comparisons (O(n^2); the confined-space experiments never need it at
    scale). *)

val expected_degree : n:int -> radius:float -> width:float -> height:float -> float
(** Expected average degree of a uniform placement, ignoring border
    effects: [(n - 1) * pi r^2 / (width * height)]. *)

val radius_for_degree : n:int -> degree:float -> width:float -> height:float -> float
(** Inverse of {!expected_degree}: the transmission range giving the
    target average degree.  This is how the experiments translate the
    paper's "fixed average node degree d = 6 and 18" into a radius for
    each network size. *)
