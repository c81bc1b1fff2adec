type pool = { mutable data : int array; mutable top : int; mutable gen : int }

(* [tag] is the pool generation at creation: a reset retires the slice
   without touching its storage, and the tag check turns any later
   access into an error instead of a silent read of reused space. *)
type t = { pool : pool; off : int; len : int; tag : int }

let create_pool () = { data = Array.make 256 0; top = 0; gen = 0 }

let reset p =
  p.top <- 0;
  p.gen <- p.gen + 1

let generation p = p.gen

let check t =
  if t.tag <> t.pool.gen then invalid_arg "Flatset: stale slice (pool was reset)"

let ensure p extra =
  let need = p.top + extra in
  if need > Array.length p.data then begin
    let cap = ref (2 * Array.length p.data) in
    while !cap < need do
      cap := 2 * !cap
    done;
    let d = Array.make !cap 0 in
    Array.blit p.data 0 d 0 p.top;
    p.data <- d
  end

(* Claims [p.top .. p.top + len) as a slice; the caller has already
   written the elements there. *)
let seal p len =
  let s = { pool = p; off = p.top; len; tag = p.gen } in
  p.top <- p.top + len;
  s

let of_increasing p a ~len =
  if len < 0 || len > Array.length a then invalid_arg "Flatset.of_increasing: len out of range";
  for i = 1 to len - 1 do
    if a.(i - 1) >= a.(i) then invalid_arg "Flatset.of_increasing: not strictly increasing"
  done;
  ensure p len;
  Array.blit a 0 p.data p.top len;
  seal p len

let of_sorted p a = of_increasing p a ~len:(Array.length a)

let length t =
  check t;
  t.len

let get t i =
  check t;
  if i < 0 || i >= t.len then invalid_arg "Flatset.get: index out of bounds";
  t.pool.data.(t.off + i)

let mem t v =
  check t;
  let d = t.pool.data in
  let lo = ref t.off and hi = ref (t.off + t.len - 1) in
  let found = ref false in
  while (not !found) && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let x = Array.unsafe_get d mid in
    if x = v then found := true else if x < v then lo := mid + 1 else hi := mid - 1
  done;
  !found

let iter f t =
  check t;
  let d = t.pool.data in
  for i = t.off to t.off + t.len - 1 do
    f (Array.unsafe_get d i)
  done

let fold f acc t =
  check t;
  let d = t.pool.data in
  let acc = ref acc in
  for i = t.off to t.off + t.len - 1 do
    acc := f !acc (Array.unsafe_get d i)
  done;
  !acc

let to_nodeset t =
  check t;
  (* [Nodeset.of_increasing] validates a prefix of an array starting at
     0; hand it the slice through a window into the pool. *)
  Nodeset.of_increasing (Array.sub t.pool.data t.off t.len) ~len:t.len

let equal a b =
  check a;
  check b;
  a.len = b.len
  &&
  let da = a.pool.data and db = b.pool.data in
  let rec go i = i = a.len || (da.(a.off + i) = db.(b.off + i) && go (i + 1)) in
  go 0

(* Merge walks.  The output region starts at [p.top], strictly above
   both operands' storage (slices are immutable once sealed), so in-pool
   operands never alias the output.  A grow mid-walk would move [p.data]
   out from under the cached array — [ensure] runs first, sized for the
   worst case. *)

let union p a b =
  check a;
  check b;
  ensure p (a.len + b.len);
  (* Operand buffers are fetched after [ensure]: when an operand lives
     in [p] itself, a grow has just moved the data.  The output region
     starts at [p.top], strictly above sealed slices, so in-pool
     operands never alias it. *)
  let d = p.data and da = a.pool.data and db = b.pool.data in
  let i = ref a.off and ia = a.off + a.len and j = ref b.off and jb = b.off + b.len in
  let k = ref p.top in
  while !i < ia && !j < jb do
    let x = da.(!i) and y = db.(!j) in
    if x < y then begin
      d.(!k) <- x;
      incr i
    end
    else if y < x then begin
      d.(!k) <- y;
      incr j
    end
    else begin
      d.(!k) <- x;
      incr i;
      incr j
    end;
    incr k
  done;
  while !i < ia do
    d.(!k) <- da.(!i);
    incr i;
    incr k
  done;
  while !j < jb do
    d.(!k) <- db.(!j);
    incr j;
    incr k
  done;
  seal p (!k - p.top)

let diff_into p a ~bget ~blen =
  ensure p a.len;
  let d = p.data and da = a.pool.data in
  let j = ref 0 in
  let k = ref p.top in
  for i = a.off to a.off + a.len - 1 do
    let x = da.(i) in
    while !j < blen && bget !j < x do
      incr j
    done;
    if not (!j < blen && bget !j = x) then begin
      d.(!k) <- x;
      incr k
    end
  done;
  seal p (!k - p.top)

let diff p a b =
  check a;
  check b;
  (* [b] is read through an accessor so a mid-call grow of a shared pool
     cannot leave the walk on a dead buffer. *)
  diff_into p a ~bget:(fun j -> b.pool.data.(b.off + j)) ~blen:b.len

let diff_row p a row =
  check a;
  diff_into p a ~bget:(fun j -> Array.unsafe_get row j) ~blen:(Array.length row)

let remove p a v =
  check a;
  ensure p a.len;
  let d = p.data and da = a.pool.data in
  let k = ref p.top in
  for i = a.off to a.off + a.len - 1 do
    let x = da.(i) in
    if x <> v then begin
      d.(!k) <- x;
      incr k
    end
  done;
  seal p (!k - p.top)

let sort_ints (a : int array) ~lo ~hi =
  let len = hi - lo in
  if len > 1 then begin
    let swap i j =
      let t = a.(lo + i) in
      a.(lo + i) <- a.(lo + j);
      a.(lo + j) <- t
    in
    let rec sift i len =
      let l = (2 * i) + 1 in
      if l < len then begin
        let c = if l + 1 < len && a.(lo + l + 1) > a.(lo + l) then l + 1 else l in
        if a.(lo + c) > a.(lo + i) then begin
          swap i c;
          sift c len
        end
      end
    in
    for i = (len / 2) - 1 downto 0 do
      sift i len
    done;
    for k = len - 1 downto 1 do
      swap 0 k;
      sift 0 k
    done
  end

let unsafe_retag t = { t with tag = t.pool.gen }
