include Set.Make (Int)

(* Mirror of [Set.Make(Int)]'s internal representation (stdlib set.ml,
   unchanged since 4.03: [Empty | Node of {l; v; r; h}]).  Building the
   balanced tree directly lets [of_increasing] spend exactly one tree
   node per element, where [of_list] re-sorts its input even when it is
   already sorted — on a 1000-forwarder broadcast that sort is the bulk
   of the per-run allocations once the engine arena reuses everything
   else.  [build] produces a perfectly balanced tree (sibling heights
   differ by at most one, within the stdlib's AVL slack of two) with
   true heights in [h], so sets built here behave identically under
   every subsequent operation; the test suite checks them against
   [of_list]-built sets, including after further adds and removes. *)
type repr = Empty | Node of { l : repr; v : int; r : repr; h : int }

external of_repr : repr -> t = "%identity"

(* [build] gives the left subtree floor(s/2) of the s elements, so every
   subtree's height is the bit length of its size. *)
let rec height_of_size s = if s = 0 then 0 else 1 + height_of_size (s lsr 1)

let rec build a lo hi =
  if lo >= hi then Empty
  else
    let mid = (lo + hi) lsr 1 in
    Node
      {
        l = build a lo mid;
        v = Array.unsafe_get a mid;
        r = build a (mid + 1) hi;
        h = height_of_size (hi - lo);
      }

let of_increasing a ~len =
  if len < 0 || len > Array.length a then invalid_arg "Nodeset.of_increasing: len out of range";
  for i = 1 to len - 1 do
    if a.(i - 1) >= a.(i) then invalid_arg "Nodeset.of_increasing: not strictly increasing"
  done;
  of_repr (build a 0 len)

(* In-order twin of [build]: the same shape, its elements drawn by
   [take] from a cursor scanning [0, n) for [p], so no element buffer is
   needed. *)
let rec take p n cur =
  let v = !cur in
  if v >= n then invalid_arg "Nodeset.of_predicate: fewer than card elements";
  cur := v + 1;
  if p v then v else take p n cur

let rec build_by p n cur s =
  if s = 0 then Empty
  else
    let half = s lsr 1 in
    let l = build_by p n cur half in
    let v = take p n cur in
    let r = build_by p n cur (s - half - 1) in
    Node { l; v; r; h = height_of_size s }

let of_predicate ~n ~card p =
  if card < 0 then invalid_arg "Nodeset.of_predicate: card must be non-negative";
  let cur = ref 0 in
  let t = build_by p n cur card in
  for v = !cur to n - 1 do
    if p v then invalid_arg "Nodeset.of_predicate: more than card elements"
  done;
  of_repr t

let of_indicator a =
  let c = ref 0 in
  Array.iter (fun v -> if v then incr c) a;
  of_predicate ~n:(Array.length a) ~card:!c (Array.unsafe_get a)

let to_indicator ~n s =
  let a = Array.make n false in
  iter
    (fun i ->
      if i < 0 || i >= n then invalid_arg "Nodeset.to_indicator: element out of range";
      a.(i) <- true)
    s;
  a

let range n = of_indicator (Array.make n true)

let pp fmt s =
  Format.fprintf fmt "{%a}"
    (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ", ") Format.pp_print_int)
    (elements s)
