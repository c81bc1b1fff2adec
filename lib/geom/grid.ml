(* Flat cell index.  Point [i] lies in cell
   [(floor (x /. side), floor (y /. side))]; cells are hashed into a
   power-of-two bucket table of O(n) size and the points are laid out
   bucket by bucket (counting sort, ids ascending inside a bucket), with
   their coordinates and cell coordinates copied into unboxed arrays in
   that slot order.  No boxed key, list or option is built, and memory is
   O(n) however far apart the points are. *)
type t = {
  side : float;
  mask : int;
  start : int array;
  ids : int array;
  cx : int array;
  cy : int array;
  xs : float array;
  ys : float array;
}

(* The side actually used is a hair wider than requested: a pair that
   passes the float test [dist_sq < r^2] with [r <= cell_size] is then at
   most one cell apart on each axis even after the rounding of
   [x /. side], so such queries need only the 3 x 3 block. *)
let margin = 1e-9

let[@inline] cell t v = int_of_float (Float.floor (v /. t.side))

(* Multiplicative hashing: the product's bits from 30 up mix both
   coordinates. *)
let[@inline] bucket t qx qy =
  ((((qx * 0x1000193) + qy) * 0x278DDE6E5FD29F05) lsr 30) land t.mask

let make ~cell_size points =
  if not (cell_size > 0.) then invalid_arg "Grid.make: cell_size must be positive";
  let n = Array.length points in
  let rec pow2 b = if b >= n then b else pow2 (2 * b) in
  let nb = pow2 2 in
  let t =
    {
      side = cell_size *. (1. +. margin);
      mask = nb - 1;
      start = Array.make (nb + 1) 0;
      ids = Array.make n 0;
      cx = Array.make n 0;
      cy = Array.make n 0;
      xs = Array.create_float n;
      ys = Array.create_float n;
    }
  in
  Array.iter
    (fun (p : Point.t) ->
      let b = bucket t (cell t p.x) (cell t p.y) in
      t.start.(b) <- t.start.(b) + 1)
    points;
  (* Inclusive prefix sums leave [start.(b)] at the end of bucket [b];
     scattering in decreasing id order then walks each back to its
     beginning and leaves ids ascending inside every bucket. *)
  for b = 1 to nb - 1 do
    t.start.(b) <- t.start.(b) + t.start.(b - 1)
  done;
  t.start.(nb) <- n;
  for i = n - 1 downto 0 do
    let p = points.(i) in
    let qx = cell t p.x and qy = cell t p.y in
    let b = bucket t qx qy in
    let s = t.start.(b) - 1 in
    t.start.(b) <- s;
    t.ids.(s) <- i;
    t.cx.(s) <- qx;
    t.cy.(s) <- qy;
    t.xs.(s) <- p.x;
    t.ys.(s) <- p.y
  done;
  t

(* The one probe behind every query, kept in this module so the cell and
   bucket arithmetic inline into it: a caller pays one call per query and
   no allocation. *)
let fill_within t ~(center : Point.t) ~radius ~except buf pos =
  let r2 = radius *. radius in
  (* [ceil (r / side)] cells on each side, with a relative slack that
     absorbs the rounding of [r / side] when it lands just under an
     integer; any [r <= cell_size] still gives 1. *)
  let reach =
    if radius > 0. then int_of_float (Float.ceil (radius /. t.side *. (1. +. (margin /. 10.))))
    else -1
  in
  let ci = cell t center.x and cj = cell t center.y in
  let pos = ref pos in
  for qx = ci - reach to ci + reach do
    for qy = cj - reach to cj + reach do
      let b = bucket t qx qy in
      for s = t.start.(b) to t.start.(b + 1) - 1 do
        (* Buckets are shared by hash collision: only an exact cell match
           counts, so no point is seen twice. *)
        if t.cx.(s) = qx && t.cy.(s) = qy then begin
          (* [Point.dist_sq]'s arithmetic, operand for operand. *)
          let dx = center.x -. t.xs.(s) and dy = center.y -. t.ys.(s) in
          let j = t.ids.(s) in
          if (dx *. dx) +. (dy *. dy) < r2 && j <> except then begin
            if !pos < Array.length buf then buf.(!pos) <- j;
            incr pos
          end
        end
      done
    done
  done;
  !pos

let within t ~center ~radius =
  let buf = Array.make (Array.length t.ids) 0 in
  let len = fill_within t ~center ~radius ~except:(-1) buf 0 in
  List.sort Int.compare (Array.to_list (Array.sub buf 0 len))
