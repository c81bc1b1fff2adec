(* A set is its elements in a strictly increasing int array.  The
   binary operations allocate their result once, at its exact size, or
   return an operand unchanged when the result equals it. *)
type t = int array

let empty = [||]
let is_empty s = Array.length s = 0
let cardinal = Array.length
let singleton x = [| x |]
let elements = Array.to_list
let iter = Array.iter
let fold f s acc = Array.fold_left (fun acc v -> f v acc) acc s
let for_all = Array.for_all
let exists = Array.exists
let min_elt_opt s = if is_empty s then None else Some s.(0)
let max_elt s = if is_empty s then raise Not_found else s.(Array.length s - 1)
let max_elt_opt s = if is_empty s then None else Some (max_elt s)

let mem x s =
  let n = Array.length s in
  let i = Row_sort.lower_bound s 0 n x in
  i < n && s.(i) = x

let equal (a : t) b = a == b || (Array.length a = Array.length b && Array.for_all2 Int.equal a b)

let subset (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b and i = ref 0 and j = ref 0 in
  while !i < la && !j < lb && a.(!i) >= b.(!j) do
    if a.(!i) = b.(!j) then incr i;
    incr j
  done;
  !i = la

(* One sorted merge of [a] and [b] that keeps the elements found in [a]
   only, in both, or in [b] only as the flags say, writing them to [out]
   unless it is empty; the number kept. *)
let merge ~a_only ~both ~b_only (a : t) (b : t) out =
  let la = Array.length a and lb = Array.length b and fill = Array.length out > 0 in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < la || !j < lb do
    let c = if !i = la then 1 else if !j = lb then -1 else Int.compare a.(!i) b.(!j) in
    let v = if c > 0 then b.(!j) else a.(!i) in
    if (c < 0 && a_only) || (c = 0 && both) || (c > 0 && b_only) then (
      if fill then out.(!k) <- v;
      incr k);
    if c <= 0 then incr i;
    if c >= 0 then incr j
  done;
  !k

(* Counts, then fills.  For union, inter and diff a result as large as
   [a] is [a] (and for union, one as large as [b] is [b]). *)
let select ~a_only ~both ~b_only a b =
  let len = merge ~a_only ~both ~b_only a b [||] in
  if len = Array.length a then a
  else if b_only && len = Array.length b then b
  else
    let out = Array.make len 0 in
    ignore (merge ~a_only ~both ~b_only a b out);
    out

let union a b = select ~a_only:true ~both:true ~b_only:true a b
let inter a b = select ~a_only:false ~both:true ~b_only:false a b
let diff a b = select ~a_only:true ~both:false ~b_only:false a b
let add x s = if mem x s then s else union s [| x |]
let remove x s = if mem x s then diff s [| x |] else s

let filter p s =
  let out = Array.copy s and k = ref 0 in
  Array.iter
    (fun v ->
      if p v then (
        out.(!k) <- v;
        incr k))
    s;
  if !k = Array.length s then s else Array.sub out 0 !k

let of_increasing ?(pos = 0) (a : t) ~len =
  if pos < 0 || len < 0 || pos + len > Array.length a then
    invalid_arg "Nodeset.of_increasing: len out of range";
  for i = pos + 1 to pos + len - 1 do
    if a.(i - 1) >= a.(i) then invalid_arg "Nodeset.of_increasing: not strictly increasing"
  done;
  Array.sub a pos len

let of_list l =
  let a = Array.of_list l and len = ref 0 in
  Row_sort.sort_range a 0 (Array.length a);
  Array.iter
    (fun v ->
      if !len = 0 || a.(!len - 1) <> v then (
        a.(!len) <- v;
        incr len))
    a;
  Array.sub a 0 !len

let of_predicate ~n ~card p =
  if card < 0 then invalid_arg "Nodeset.of_predicate: card must be non-negative";
  let out = Array.make (max 0 (min card n)) 0 and k = ref 0 in
  for v = 0 to n - 1 do
    if p v then (
      if !k = card then invalid_arg "Nodeset.of_predicate: more than card elements";
      out.(!k) <- v;
      incr k)
  done;
  if !k < card then invalid_arg "Nodeset.of_predicate: fewer than card elements";
  out

let of_indicator a =
  let c = ref 0 in
  Array.iter (fun v -> if v then incr c) a;
  of_predicate ~n:(Array.length a) ~card:!c (Array.unsafe_get a)

let to_indicator ~n s =
  let a = Array.make n false in
  Array.iter
    (fun i ->
      if i < 0 || i >= n then invalid_arg "Nodeset.to_indicator: element out of range";
      a.(i) <- true)
    s;
  a

let range n = Array.init n Fun.id

let pp fmt s =
  Format.fprintf fmt "{%a}"
    (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ", ") Format.pp_print_int)
    (elements s)
