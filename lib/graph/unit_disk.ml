module Point = Manet_geom.Point
module Grid = Manet_geom.Grid

(* Hot path: every topology sample and every serving-loop snapshot builds
   one of these.  Rows are emitted straight into the CSR arrays in id
   order: node [i]'s neighbours are gathered from the 3 x 3 cell block of
   the flat index, the row is sorted in place (a merge of at most nine
   ascending runs, so insertion sort is nearly linear) and appended.  The
   only allocations are the index, the offsets and the neighbour array,
   sized for average degree 16 before its first regrowth. *)
let build ~radius points =
  if radius <= 0. then invalid_arg "Unit_disk.build: radius must be positive";
  let n = Array.length points in
  let grid = Grid.make ~cell_size:radius points in
  let off = Array.make (n + 1) 0 in
  let nbr = ref (Array.make ((16 * n) + 16) 0) in
  for i = 0 to n - 1 do
    let lo = off.(i) in
    let hi = Grid.fill_within grid ~center:points.(i) ~radius ~except:i !nbr lo in
    if hi > Array.length !nbr then begin
      (* The row overran the buffer and was counted, not written: grow
         and gather it again. *)
      let bigger = Array.make (2 * hi) 0 in
      Array.blit !nbr 0 bigger 0 lo;
      nbr := bigger;
      ignore (Grid.fill_within grid ~center:points.(i) ~radius ~except:i bigger lo)
    end;
    Row_sort.sort_range !nbr lo hi;
    off.(i + 1) <- hi
  done;
  Graph.unsafe_of_csr ~off ~nbr:(Array.sub !nbr 0 off.(n))

(* The two O(n^2) builders go through one packed half-edge buffer and
   [Graph.of_half_edges]. *)
type edge_buf = { mutable buf : int array; mutable len : int }

let buf_create () = { buf = Array.make 4096 0; len = 0 }

let buf_push eb i j =
  if eb.len + 2 > Array.length eb.buf then begin
    let b = Array.make (2 * Array.length eb.buf) 0 in
    Array.blit eb.buf 0 b 0 eb.len;
    eb.buf <- b
  end;
  eb.buf.(eb.len) <- i;
  eb.buf.(eb.len + 1) <- j;
  eb.len <- eb.len + 2

let buf_graph ~n eb = Graph.of_half_edges ~n ~len:eb.len eb.buf

let build_brute_force ~radius points =
  if radius <= 0. then invalid_arg "Unit_disk.build_brute_force: radius must be positive";
  let n = Array.length points in
  let r2 = radius *. radius in
  let eb = buf_create () in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Point.dist_sq points.(i) points.(j) < r2 then buf_push eb i j
    done
  done;
  buf_graph ~n eb

let build_toroidal ~radius ~width ~height points =
  if radius <= 0. then invalid_arg "Unit_disk.build_toroidal: radius must be positive";
  let n = Array.length points in
  let eb = buf_create () in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Point.dist_toroidal ~width ~height points.(i) points.(j) < radius then buf_push eb i j
    done
  done;
  buf_graph ~n eb

let expected_degree ~n ~radius ~width ~height =
  float_of_int (n - 1) *. Float.pi *. radius *. radius /. (width *. height)

let radius_for_degree ~n ~degree ~width ~height =
  if n < 2 then invalid_arg "Unit_disk.radius_for_degree: need at least 2 nodes";
  sqrt (degree *. width *. height /. (Float.pi *. float_of_int (n - 1)))
