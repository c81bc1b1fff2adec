module Graph = Manet_graph.Graph
module Nodeset = Manet_graph.Nodeset
module Dominating = Manet_graph.Dominating

exception Found of Nodeset.t

(* A guard against accidentally launching an exponential search. *)
let max_nodes = 24

let build g =
  let n = Graph.n g in
  if n = 0 then invalid_arg "Exact.build: empty graph";
  if n > max_nodes then invalid_arg "Exact.build: graph too large for exact search";
  if not (Manet_graph.Connectivity.is_connected g) then
    invalid_arg "Exact.build: disconnected graph";
  let greedy = Greedy_cds.build g in
  let upper = Nodeset.cardinal greedy in
  let lower = max 1 (Dominating.domination_number_lower_bound g) in
  let delta_plus_one = Graph.max_degree g + 1 in
  (* dominated_count tracks |N[chosen]| via per-node multiplicities. *)
  let times_dominated = Array.make n 0 in
  let undominated = ref n in
  let add v =
    Nodeset.iter
      (fun u ->
        if times_dominated.(u) = 0 then decr undominated;
        times_dominated.(u) <- times_dominated.(u) + 1)
      (Graph.closed_neighborhood g v)
  in
  let remove v =
    Nodeset.iter
      (fun u ->
        times_dominated.(u) <- times_dominated.(u) - 1;
        if times_dominated.(u) = 0 then incr undominated)
      (Graph.closed_neighborhood g v)
  in
  let try_size k =
    let rec choose first chosen slots =
      if slots = 0 then begin
        if !undominated = 0 then begin
          let s = Nodeset.of_list chosen in
          if Dominating.is_cds g s then raise (Found s)
        end
      end
      else if n - first >= slots && !undominated <= slots * delta_plus_one then
        for v = first to n - 1 do
          (* Redundant work beyond n - slots is cut by the guard above on
             the recursive call; iterating keeps the code simple. *)
          add v;
          choose (v + 1) (v :: chosen) (slots - 1);
          remove v
        done
    in
    choose 0 [] k
  in
  let result = ref greedy in
  (try
     let k = ref lower in
     while !k < upper do
       try_size !k;
       incr k
     done
   with Found s -> result := s);
  !result

let size g = Nodeset.cardinal (build g)
