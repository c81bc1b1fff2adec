(* Flat CSR (compressed sparse row) storage: node [v]'s neighbor row is
   [nbr.(off.(v)) .. nbr.(off.(v+1) - 1)], sorted strictly increasing.
   The whole adjacency lives in two int arrays, so traversals touch one
   contiguous buffer instead of chasing a pointer per row. *)
type t = { n : int; m : int; off : int array; nbr : int array }

(* Shared CSR assembly over a packed half-edge buffer: [buf.(2k)] and
   [buf.(2k + 1)] are the endpoints of edge [k], each undirected edge
   appearing exactly once.  Counts degrees, prefix-sums the offsets and
   scatters both directions; rows are then sorted in place. *)
let csr_of_pairs ~n ~len buf =
  let off = Array.make (n + 1) 0 in
  let k = ref 0 in
  while !k < len do
    let u = Array.unsafe_get buf !k and v = Array.unsafe_get buf (!k + 1) in
    off.(u + 1) <- off.(u + 1) + 1;
    off.(v + 1) <- off.(v + 1) + 1;
    k := !k + 2
  done;
  for v = 1 to n do
    off.(v) <- off.(v) + off.(v - 1)
  done;
  let nbr = Array.make off.(n) 0 in
  let cur = Array.copy off in
  let k = ref 0 in
  while !k < len do
    let u = Array.unsafe_get buf !k and v = Array.unsafe_get buf (!k + 1) in
    nbr.(cur.(u)) <- v;
    cur.(u) <- cur.(u) + 1;
    nbr.(cur.(v)) <- u;
    cur.(v) <- cur.(v) + 1;
    k := !k + 2
  done;
  for v = 0 to n - 1 do
    Row_sort.sort_range nbr off.(v) off.(v + 1)
  done;
  (off, nbr)

let of_half_edges ~n ~len buf =
  if n < 0 then invalid_arg "Graph.of_half_edges: negative n";
  if len < 0 || len land 1 <> 0 || len > Array.length buf then
    invalid_arg "Graph.of_half_edges: bad buffer length";
  let k = ref 0 in
  while !k < len do
    let u = Array.unsafe_get buf !k and v = Array.unsafe_get buf (!k + 1) in
    if u < 0 || u >= n || v < 0 || v >= n then
      invalid_arg "Graph.of_half_edges: endpoint out of range";
    if u = v then invalid_arg "Graph.of_half_edges: self-loop";
    k := !k + 2
  done;
  let off, nbr = csr_of_pairs ~n ~len buf in
  { n; m = len / 2; off; nbr }

let unsafe_of_csr ~off ~nbr =
  let n = Array.length off - 1 in
  { n; m = off.(n) / 2; off; nbr }

(* Squeezes duplicate entries out of every (sorted) row in place,
   rebuilding the offsets.  The write cursor never passes the read
   cursor, so the compaction is safe on the shared buffer. *)
let dedup_rows n off (nbr : int array) =
  let w = ref 0 in
  let row_start = ref 0 in
  for v = 0 to n - 1 do
    let lo = !row_start and hi = off.(v + 1) in
    row_start := hi;
    off.(v) <- !w;
    for i = lo to hi - 1 do
      if i = lo || nbr.(i) <> nbr.(i - 1) then begin
        nbr.(!w) <- nbr.(i);
        incr w
      end
    done
  done;
  off.(n) <- !w;
  if !w = Array.length nbr then nbr else Array.sub nbr 0 !w

let of_edges ~n edges =
  if n < 0 then invalid_arg "Graph.of_edges: negative n";
  let check v = if v < 0 || v >= n then invalid_arg "Graph.of_edges: endpoint out of range" in
  let count = List.length edges in
  let buf = Array.make (2 * count) 0 in
  let k = ref 0 in
  List.iter
    (fun (u, v) ->
      check u;
      check v;
      if u = v then invalid_arg "Graph.of_edges: self-loop";
      buf.(!k) <- u;
      buf.(!k + 1) <- v;
      k := !k + 2)
    edges;
  let off, nbr = csr_of_pairs ~n ~len:(2 * count) buf in
  let nbr = dedup_rows n off nbr in
  { n; m = off.(n) / 2; off; nbr }

let of_adjacency adj =
  let n = Array.length adj in
  let off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v) + Array.length adj.(v)
  done;
  let nbr = Array.make off.(n) 0 in
  for v = 0 to n - 1 do
    Array.blit adj.(v) 0 nbr off.(v) (Array.length adj.(v))
  done;
  for v = 0 to n - 1 do
    let lo = off.(v) and hi = off.(v + 1) in
    Row_sort.sort_range nbr lo hi;
    for i = lo to hi - 1 do
      let u = nbr.(i) in
      if u < 0 || u >= n then invalid_arg "Graph.of_adjacency: endpoint out of range";
      if u = v then invalid_arg "Graph.of_adjacency: self-loop";
      if i > lo && nbr.(i - 1) = u then invalid_arg "Graph.of_adjacency: duplicate edge"
    done
  done;
  { n; m = off.(n) / 2; off; nbr }

let empty n =
  if n < 0 then invalid_arg "Graph.of_edges: negative n";
  { n; m = 0; off = Array.make (n + 1) 0; nbr = [||] }

let complete n =
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      edges := (u, v) :: !edges
    done
  done;
  of_edges ~n !edges

let path n = of_edges ~n (List.init (max 0 (n - 1)) (fun i -> (i, i + 1)))

let cycle n =
  if n < 3 then invalid_arg "Graph.cycle: need at least 3 nodes";
  of_edges ~n ((n - 1, 0) :: List.init (n - 1) (fun i -> (i, i + 1)))

let star n = of_edges ~n (List.init (max 0 (n - 1)) (fun i -> (0, i + 1)))

let n t = t.n
let m t = t.m
let neighbors t v = Array.sub t.nbr t.off.(v) (t.off.(v + 1) - t.off.(v))
let degree t v = t.off.(v + 1) - t.off.(v)

let max_degree t =
  let d = ref 0 in
  for v = 0 to t.n - 1 do
    let dv = t.off.(v + 1) - t.off.(v) in
    if dv > !d then d := dv
  done;
  !d

let avg_degree t = if t.n = 0 then 0. else 2. *. float_of_int t.m /. float_of_int t.n

let mem_edge t u v =
  let hi = t.off.(u + 1) in
  let i = Row_sort.lower_bound t.nbr t.off.(u) hi v in
  u <> v && i < hi && t.nbr.(i) = v

let iter_neighbors t v f =
  let nbr = t.nbr in
  for i = t.off.(v) to t.off.(v + 1) - 1 do
    f (Array.unsafe_get nbr i)
  done

let fold_neighbors t v f init =
  let nbr = t.nbr in
  let acc = ref init in
  for i = t.off.(v) to t.off.(v + 1) - 1 do
    acc := f !acc (Array.unsafe_get nbr i)
  done;
  !acc

let edges t =
  let acc = ref [] in
  for u = t.n - 1 downto 0 do
    for i = t.off.(u + 1) - 1 downto t.off.(u) do
      if t.nbr.(i) > u then acc := (u, t.nbr.(i)) :: !acc
    done
  done;
  !acc

let open_neighborhood t v = Nodeset.of_increasing ~pos:t.off.(v) t.nbr ~len:(degree t v)
let closed_neighborhood t v = Nodeset.add v (open_neighborhood t v)

let induced t s =
  let back = Array.copy (s : Nodeset.t :> int array) in
  let fwd = Hashtbl.create (Array.length back) in
  Array.iteri (fun i v -> Hashtbl.add fwd v i) back;
  let edges = ref [] in
  Array.iteri
    (fun i v ->
      iter_neighbors t v (fun w ->
          match Hashtbl.find_opt fwd w with
          | Some j when i < j -> edges := (i, j) :: !edges
          | Some _ | None -> ()))
    back;
  (of_edges ~n:(Array.length back) !edges, back)

(* Rows are sorted and duplicate-free, so the CSR arrays are a canonical
   form: structural equality on them is graph equality. *)
let equal a b =
  let same x y = Array.length x = Array.length y && Array.for_all2 Int.equal x y in
  a.n = b.n && same a.off b.off && same a.nbr b.nbr

let pp fmt t =
  for v = 0 to t.n - 1 do
    Format.fprintf fmt "%d:" v;
    iter_neighbors t v (fun u -> Format.fprintf fmt " %d" u);
    Format.pp_print_newline fmt ()
  done
