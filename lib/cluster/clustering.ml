module Graph = Manet_graph.Graph
module Nodeset = Manet_graph.Nodeset

type t = { graph_n : int; head_arr : int array; head_list : int list }

let of_head_array g head_of =
  let n = Graph.n g in
  if Array.length head_of <> n then invalid_arg "Clustering.of_head_array: wrong length";
  Array.iteri
    (fun v h ->
      if h < 0 || h >= n then invalid_arg "Clustering.of_head_array: head out of range";
      if head_of.(h) <> h then invalid_arg "Clustering.of_head_array: head of a head must be itself";
      if v <> h && not (Graph.mem_edge g v h) then
        invalid_arg "Clustering.of_head_array: member not adjacent to its head")
    head_of;
  let heads = ref [] in
  for v = n - 1 downto 0 do
    if head_of.(v) = v then heads := v :: !heads
  done;
  let heads = !heads in
  let ok_independent =
    List.for_all
      (fun h -> not (Graph.fold_neighbors g h (fun acc u -> acc || head_of.(u) = u) false))
      heads
  in
  if not ok_independent then
    invalid_arg "Clustering.of_head_array: clusterheads are not an independent set";
  { graph_n = n; head_arr = Array.copy head_of; head_list = heads }

(* Candidates are the nodes with [head.(v) < 0].  Each pass first lets
   every candidate join its best adjacent head (joining never creates a
   head, so the pass can update in place), then lets every candidate that
   no candidate neighbour beats declare, all at once: the winners are
   collected in [declares] before any of them is marked. *)
let elect ~beats g head =
  let n = Graph.n g in
  if Array.length head <> n then invalid_arg "Clustering.elect: wrong length";
  let { Graph.off; nbr; _ } = g in
  let declares = Array.make n 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    for v = 0 to n - 1 do
      if head.(v) < 0 then begin
        let best = ref (-1) in
        for i = off.(v) to off.(v + 1) - 1 do
          let u = nbr.(i) in
          if head.(u) = u && (!best < 0 || beats u !best) then best := u
        done;
        if !best >= 0 then begin
          head.(v) <- !best;
          changed := true
        end
      end
    done;
    let k = ref 0 in
    for v = 0 to n - 1 do
      if head.(v) < 0 then begin
        let i = ref off.(v) and stop = off.(v + 1) in
        while !i < stop && not (head.(nbr.(!i)) < 0 && beats nbr.(!i) v) do
          incr i
        done;
        if !i = stop then begin
          declares.(!k) <- v;
          incr k
        end
      end
    done;
    for j = 0 to !k - 1 do
      head.(declares.(j)) <- declares.(j)
    done;
    if !k > 0 then changed := true
  done

let head_of t v = t.head_arr.(v)
let is_head t v = t.head_arr.(v) = v
let heads t = t.head_list
let head_set t = Nodeset.of_predicate ~n:t.graph_n ~card:(List.length t.head_list) (is_head t)
let num_clusters t = List.length t.head_list

let members t h =
  if not (is_head t h) then invalid_arg "Clustering.members: not a head";
  let acc = ref [] in
  for v = t.graph_n - 1 downto 0 do
    if t.head_arr.(v) = h then acc := v :: !acc
  done;
  !acc

let classic_gateways t g =
  Nodeset.of_indicator
    (Array.init t.graph_n (fun v ->
         (not (is_head t v))
         && Graph.fold_neighbors g v (fun acc u -> acc || t.head_arr.(u) <> t.head_arr.(v)) false))

let pp fmt t =
  List.iter
    (fun h ->
      Format.fprintf fmt "cluster %d:%s@." h
        (String.concat "" (List.map (Printf.sprintf " %d") (members t h))))
    t.head_list
