module Point = Manet_geom.Point

(* Hot path: every topology sample and every serving-loop snapshot builds
   one of these.  Points are binned into square cells of side [radius]
   (widened by [margin]); the occupied cells are numbered through an
   open-addressing table on their packed coordinates.  Each occupied
   cell then gets one candidate list: every node whose cell lies in its
   3 x 3 block, filled by scattering the nodes in ascending id order, so
   every list comes out sorted.  Node [i]'s row is its cell's list
   filtered by the distance test, written straight into the CSR: no
   per-node probe, no per-row sort.  The whole kernel stays in this
   module, so its float arithmetic is never boxed across a call. *)

(* The side actually used is a hair wider than [radius]: a pair that
   passes the float test [dist_sq < r^2] is then at most one cell apart
   on each axis even after the rounding of [x /. side] (for coordinates
   below about 10^6 cells), so the 3 x 3 block holds every neighbour. *)
let margin = 1e-9

(* A cell's coordinates packed into one int: exact for cell coordinates
   in [-2^30, 2^30) on both axes. *)
let[@inline] pack cx cy = (cx lsl 32) lor (cy land 0xFFFF_FFFF)

(* Fibonacci hashing: the product's top [63 - shift] bits mix every bit
   of the key. *)
let[@inline] hash key shift = (key * 0x278DDE6E5FD29F05) lsr shift

module Scratch = struct
  type t = {
    mutable slot : int array;  (** hash slot -> cell index, or -1 *)
    mutable key : int array;  (** cell -> packed coordinates *)
    mutable cell : int array;  (** node -> its cell's index *)
    mutable count : int array;  (** cell -> number of nodes in it *)
    mutable near : int array;  (** 9 per cell: its 3 x 3 block's cells, -1 if empty *)
    mutable start : int array;  (** cell -> start of its candidate list *)
    mutable cand : int array;  (** the candidate lists, back to back *)
    mutable rows : int array;  (** the CSR rows before their exact copy *)
  }

  let create () =
    { slot = [||]; key = [||]; cell = [||]; count = [||]; near = [||]; start = [||];
      cand = [||]; rows = [||] }

  (* A buffer holding at least [need] entries.  Ones sized by the cells
     or the candidates vary between calls on the same [n], so they grow
     with a quarter of slack and settle after one growth. *)
  let[@inline] fit a need = if Array.length a >= need then a else Array.make (need + (need / 4)) 0
end

(* The slot of packed [key]: the one holding its cell, or the empty slot
   where that cell belongs. *)
let[@inline] probe slot key ~mask ~shift k =
  let h = ref (hash k shift) in
  while
    let c = Array.unsafe_get slot !h in
    c >= 0 && Array.unsafe_get key c <> k
  do
    h := (!h + 1) land mask
  done;
  !h

let build ?scratch ~radius points =
  if not (radius > 0.) then invalid_arg "Unit_disk.build: radius must be positive";
  let s = match scratch with Some s -> s | None -> Scratch.create () in
  let n = Array.length points in
  let side = radius *. (1. +. margin) and r2 = radius *. radius in
  (* 1. Number the occupied cells in first-seen order: at most [n] of
     them, in a table at least twice that size. *)
  let rec bits b = if 1 lsl b >= 2 * n then b else bits (b + 1) in
  let b = bits 2 in
  let mask = (1 lsl b) - 1 and shift = 63 - b in
  if Array.length s.slot <> 1 lsl b then s.slot <- Array.make (1 lsl b) (-1)
  else Array.fill s.slot 0 (1 lsl b) (-1);
  if Array.length s.cell < n then begin
    s.cell <- Array.make n 0;
    s.key <- Array.make n 0
  end;
  let slot = s.slot and key = s.key and cell = s.cell in
  let nc = ref 0 in
  for i = 0 to n - 1 do
    let p : Point.t = Array.unsafe_get points i in
    let k =
      pack (int_of_float (Float.floor (p.x /. side))) (int_of_float (Float.floor (p.y /. side)))
    in
    let h = probe slot key ~mask ~shift k in
    let c = Array.unsafe_get slot h in
    if c >= 0 then Array.unsafe_set cell i c
    else begin
      let c = !nc in
      Array.unsafe_set slot h c;
      Array.unsafe_set key c k;
      Array.unsafe_set cell i c;
      nc := c + 1
    end
  done;
  let nc = !nc in
  s.count <- Scratch.fit s.count nc;
  let count = s.count in
  Array.fill count 0 nc 0;
  for i = 0 to n - 1 do
    let c = Array.unsafe_get cell i in
    Array.unsafe_set count c (Array.unsafe_get count c + 1)
  done;
  (* 2. Each cell's 3 x 3 block, resolved once per cell, and the length
     of its candidate list. *)
  s.near <- Scratch.fit s.near (9 * nc);
  s.start <- Scratch.fit s.start (nc + 1);
  let near = s.near and start = s.start in
  (* [bound] sums, over the nodes, the length of their cell's list. *)
  let total = ref 0 and bound = ref 0 in
  for c = 0 to nc - 1 do
    let k = Array.unsafe_get key c in
    let cx = k asr 32 and cy = (k lsl 31) asr 31 in
    let first = !total in
    Array.unsafe_set start c first;
    for d = 0 to 8 do
      let block = pack (cx + (d / 3) - 1) (cy + (d mod 3) - 1) in
      let e = Array.unsafe_get slot (probe slot key ~mask ~shift block) in
      Array.unsafe_set near ((9 * c) + d) e;
      if e >= 0 then total := !total + Array.unsafe_get count e
    done;
    bound := !bound + (Array.unsafe_get count c * (!total - first))
  done;
  Array.unsafe_set start nc !total;
  (* 3. Scatter every node, in ascending id order, into the candidate
     list of each cell of its block.  The block relation is symmetric,
     so cell [c]'s list receives exactly the nodes of [c]'s block, in
     id order.  [start.(c)] serves as [c]'s cursor and ends at the start
     of [c + 1]; one shift restores it. *)
  s.cand <- Scratch.fit s.cand !total;
  let cand = s.cand in
  for i = 0 to n - 1 do
    let c = Array.unsafe_get cell i in
    for d = 9 * c to (9 * c) + 8 do
      let e = Array.unsafe_get near d in
      if e >= 0 then begin
        let at = Array.unsafe_get start e in
        Array.unsafe_set cand at i;
        Array.unsafe_set start e (at + 1)
      end
    done
  done;
  for c = nc downto 1 do
    Array.unsafe_set start c (Array.unsafe_get start (c - 1))
  done;
  Array.unsafe_set start 0 0;
  (* 4. Each row is its cell's list under the distance test, written
     unconditionally and kept by advancing the cursor; [bound] leaves
     room for every write. *)
  s.rows <- Scratch.fit s.rows !bound;
  let rows = s.rows in
  let off = Array.make (n + 1) 0 in
  let pos = ref 0 in
  for i = 0 to n - 1 do
    let p : Point.t = Array.unsafe_get points i in
    let x = p.x and y = p.y in
    let c = Array.unsafe_get cell i in
    for k = Array.unsafe_get start c to Array.unsafe_get start (c + 1) - 1 do
      let j = Array.unsafe_get cand k in
      let q : Point.t = Array.unsafe_get points j in
      (* [Point.dist_sq]'s arithmetic, operand for operand. *)
      let dx = x -. q.x and dy = y -. q.y in
      Array.unsafe_set rows !pos j;
      pos := !pos + (Bool.to_int ((dx *. dx) +. (dy *. dy) < r2) land Bool.to_int (j <> i))
    done;
    Array.unsafe_set off (i + 1) !pos
  done;
  Graph.unsafe_of_csr ~off ~nbr:(Array.sub rows 0 !pos)

(* A patch scans every point twice per moved node under the build's own
   distance test (symmetric: [dx] and [dy] only change sign): once to
   mark its new neighbours and count its links, once to write its row.
   The rows of its old and new neighbours are re-merged, and every other
   row is copied from [g], a maximal run of such rows per blit.  The
   output goes through [rows], sized by [g]'s rows plus twice the moved
   nodes' links (each new link adds one entry to each endpoint) plus
   one, for a moved row's unconditional write past its last entry.  A
   patch borrows two more of the build's buffers, which every build
   rewrites before it reads them: [count] as a per-node mark ([moving]
   for a moved node, [linked] for a neighbour of one) and [start] for the
   moved nodes. *)
let patch ?scratch ~radius points g ~changed k =
  if not (radius > 0.) then invalid_arg "Unit_disk.patch: radius must be positive";
  let s = match scratch with Some s -> s | None -> Scratch.create () in
  let n = Array.length points in
  let { Graph.off = goff; nbr = gnbr; _ } = g in
  if Array.length goff <> n + 1 then invalid_arg "Unit_disk.patch: node count changed";
  let r2 = radius *. radius in
  s.count <- Scratch.fit s.count n;
  let mark = s.count in
  Array.fill mark 0 n 0;
  let moving = 1 and linked = 2 in
  (* 1. The moved nodes, deduplicated and sorted. *)
  s.start <- Scratch.fit s.start k;
  let moved = s.start in
  let km = ref 0 in
  for i = 0 to k - 1 do
    let v = changed.(i) in
    if v < 0 || v >= n then invalid_arg "Unit_disk.patch: node out of range";
    if mark.(v) <> moving then begin
      mark.(v) <- moving;
      moved.(!km) <- v;
      incr km
    end
  done;
  let km = !km in
  Row_sort.sort_range moved 0 km;
  (* 2. A mark on each old or new neighbour of a moved node that did not
     move itself. *)
  let links = ref 0 in
  for i = 0 to km - 1 do
    let c = moved.(i) in
    let p : Point.t = Array.unsafe_get points c in
    let x = p.x and y = p.y in
    for j = 0 to n - 1 do
      let q : Point.t = Array.unsafe_get points j in
      let dx = x -. q.x and dy = y -. q.y in
      if (dx *. dx) +. (dy *. dy) < r2 && j <> c then begin
        incr links;
        if mark.(j) <> moving then mark.(j) <- linked
      end
    done;
    for a = goff.(c) to goff.(c + 1) - 1 do
      let u = gnbr.(a) in
      if mark.(u) <> moving then mark.(u) <- linked
    done
  done;
  (* 3. The rows in node order. *)
  s.rows <- Scratch.fit s.rows (Array.length gnbr + (2 * !links) + 1);
  let rows = s.rows in
  let off = Array.make (n + 1) 0 in
  let pos = ref 0 and run = ref 0 in
  (* Copies the entries of [gnbr.(!a) .. gnbr.(!stop - 1)] below [bound]
     that did not move, advancing [a]. *)
  let a = ref 0 and stop = ref 0 in
  let copy_below bound =
    while !a < !stop && gnbr.(!a) < bound do
      let u = gnbr.(!a) in
      if mark.(u) <> moving then begin
        rows.(!pos) <- u;
        incr pos
      end;
      incr a
    done
  in
  let flush v =
    let len = goff.(v) - goff.(!run) in
    Array.blit gnbr goff.(!run) rows !pos len;
    for u = !run to v - 1 do
      off.(u + 1) <- !pos + goff.(u + 1) - goff.(!run)
    done;
    pos := !pos + len
  in
  for v = 0 to n - 1 do
    let m = mark.(v) in
    if m <> 0 then begin
      flush v;
      let p : Point.t = Array.unsafe_get points v in
      let x = p.x and y = p.y in
      if m = moving then
        (* A moved node's row, written as [build] writes it. *)
        for j = 0 to n - 1 do
          let q : Point.t = Array.unsafe_get points j in
          let dx = x -. q.x and dy = y -. q.y in
          Array.unsafe_set rows !pos j;
          pos := !pos + (Bool.to_int ((dx *. dx) +. (dy *. dy) < r2) land Bool.to_int (j <> v))
        done
      else begin
        (* The old row without the moved nodes, merged with the moved
           nodes now in range. *)
        a := goff.(v);
        stop := goff.(v + 1);
        for i = 0 to km - 1 do
          let c = moved.(i) in
          let q : Point.t = Array.unsafe_get points c in
          let dx = x -. q.x and dy = y -. q.y in
          if (dx *. dx) +. (dy *. dy) < r2 then begin
            copy_below c;
            rows.(!pos) <- c;
            incr pos
          end
        done;
        copy_below n
      end;
      off.(v + 1) <- !pos;
      run := v + 1
    end
  done;
  flush n;
  Graph.unsafe_of_csr ~off ~nbr:(Array.sub rows 0 !pos)

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
  if not (radius > 0.) then invalid_arg "Unit_disk.build_brute_force: radius must be positive";
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
  if not (radius > 0.) then invalid_arg "Unit_disk.build_toroidal: radius must be positive";
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
