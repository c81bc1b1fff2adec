(** Flat cell index for fixed-radius queries over a fixed set of points.

    Building the unit-disk graph naively costs O(n^2) distance tests; the
    index buckets points into square cells so that a radius-r query with
    [r <= cell_size] inspects only the 3 x 3 block of cells around the
    query point.  For the paper's workloads (uniform placement, r chosen
    from the target average degree) this makes graph construction
    effectively linear.

    The cells are hashed into a power-of-two table of O(n) buckets, so
    memory is O(n) however large the points' bounding box is (the serving
    loop parks left nodes on a rail far outside the field).  The cell side
    actually used is [cell_size * (1 + 1e-9)]: with that margin, two
    points that pass the float test [Point.dist_sq p q < r *. r] for some
    [r <= cell_size] are provably at most one cell apart on each axis,
    rounding of the cell coordinates included, for coordinates below
    about [10^6] cells in magnitude. *)

type t

val make : cell_size:float -> Point.t array -> t
(** [make ~cell_size points] indexes [points] (indices into the array are
    the node ids).  @raise Invalid_argument if [cell_size <= 0.]. *)

val fill_within :
  t -> center:Point.t -> radius:float -> except:int -> int array -> int -> int
(** [fill_within t ~center ~radius ~except buf pos] writes into [buf],
    from index [pos] on, the index of every point other than [except] at
    distance [< radius] from [center] (the same float test as
    {!within}), and returns the position one past the last.  The order
    is unspecified.  Indices that do not fit in [buf] are counted but not
    written, so a result larger than [Array.length buf] means "grow the
    buffer and call again".  Allocation-free: this is the kernel behind
    [Unit_disk.build]. *)

val within : t -> center:Point.t -> radius:float -> int list
(** [within t ~center ~radius] is the indices of all points at Euclidean
    distance [< radius] from [center] (strict, matching the paper's
    "distance less than r" neighbor rule, and the same float test as
    [Point.dist_sq center p < radius *. radius]), in increasing order.

    Scans [ceil (radius / side)] cells on each side of the center's cell
    ([side] being the widened cell side): the 3 x 3 block for any radius
    up to the [cell_size] given to {!make}, wider blocks for larger radii
    — exact for all radii. *)
