(* A binary min-heap of entries ordered by (time, rank, seq), where
   [seq] numbers the entries in scheduling order. *)
type 'a entry = { time : float; rank : int; seq : int; v : 'a }

type 'a t = { mutable data : 'a entry array; mutable len : int; mutable seq : int }

let create () = { data = [||]; len = 0; seq = 0 }

let less a b =
  let c = Float.compare a.time b.time in
  if c <> 0 then c < 0 else if a.rank <> b.rank then a.rank < b.rank else a.seq < b.seq

let swap d i j =
  let tmp = d.(i) in
  d.(i) <- d.(j);
  d.(j) <- tmp

let rec sift_up d i =
  let parent = (i - 1) / 2 in
  if i > 0 && less d.(i) d.(parent) then begin
    swap d i parent;
    sift_up d parent
  end

let rec sift_down d len i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = if l < len && less d.(l) d.(i) then l else i in
  let smallest = if r < len && less d.(r) d.(smallest) then r else smallest in
  if smallest <> i then begin
    swap d i smallest;
    sift_down d len smallest
  end

let schedule t ~time ~rank v =
  if not (Float.is_finite time) then invalid_arg "Timeline.schedule: time must be finite";
  let e = { time; rank; seq = t.seq; v } in
  t.seq <- t.seq + 1;
  if t.len = Array.length t.data then begin
    let data = Array.make (max 8 (2 * t.len)) e in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end;
  t.data.(t.len) <- e;
  t.len <- t.len + 1;
  sift_up t.data (t.len - 1)

let pop t =
  if t.len = 0 then None
  else begin
    let top = t.data.(0) in
    t.len <- t.len - 1;
    if t.len > 0 then begin
      t.data.(0) <- t.data.(t.len);
      sift_down t.data t.len 0
    end;
    Some (top.time, top.v)
  end
