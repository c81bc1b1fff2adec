module Graph = Manet_graph.Graph
module Nodeset = Manet_graph.Nodeset

type color = White | Gray | Black

let build g =
  let n = Graph.n g in
  if n = 0 then invalid_arg "Greedy_cds.build: empty graph";
  if not (Manet_graph.Connectivity.is_connected g) then
    invalid_arg "Greedy_cds.build: disconnected graph";
  let color = Array.make n White in
  let whites = ref n in
  let blacken v =
    if color.(v) = White then whites := !whites - 1;
    color.(v) <- Black;
    Graph.iter_neighbors g v (fun u ->
        if color.(u) = White then begin
          color.(u) <- Gray;
          whites := !whites - 1
        end)
  in
  let gain v =
    Graph.fold_neighbors g v (fun acc u -> if color.(u) = White then acc + 1 else acc) 0
  in
  (* Seed: a maximum-degree node (lowest id on ties). *)
  let seed = ref 0 in
  for v = 1 to n - 1 do
    if Graph.degree g v > Graph.degree g !seed then seed := v
  done;
  blacken !seed;
  while !whites > 0 do
    let best = ref (-1) in
    let best_gain = ref 0 in
    for v = 0 to n - 1 do
      if color.(v) = Gray then begin
        let gv = gain v in
        if gv > !best_gain then begin
          best := v;
          best_gain := gv
        end
      end
    done;
    if !best < 0 then
      (* Impossible on a connected graph: some gray node borders the
         white region. *)
      failwith "Greedy_cds.build: stalled";
    blacken !best
  done;
  Nodeset.of_indicator (Array.map (fun c -> c = Black) color)
