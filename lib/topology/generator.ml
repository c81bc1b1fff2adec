module Rng = Manet_rng.Rng
module Point = Manet_geom.Point
module Graph = Manet_graph.Graph
module Unit_disk = Manet_graph.Unit_disk
module Bfs = Manet_graph.Bfs

type sample = { points : Point.t array; graph : Graph.t; radius : float; attempts : int }

let place_uniform rng (spec : Spec.t) =
  Array.init spec.n (fun _ ->
      Point.make ~x:(Rng.float rng spec.width) ~y:(Rng.float rng spec.height))

let sample rng spec =
  let points = place_uniform rng spec in
  let radius = Spec.radius spec in
  { points; graph = Unit_disk.build ~radius points; radius; attempts = 1 }

(* Refills an existing placement in place, consuming the generator in
   exactly the order of [place_uniform] (ascending index, x before y) —
   the rejection loop below is bit-compatible with drawing a fresh
   array per attempt. *)
let refill_uniform rng (spec : Spec.t) points =
  for i = 0 to Array.length points - 1 do
    points.(i) <- Point.make ~x:(Rng.float rng spec.width) ~y:(Rng.float rng spec.height)
  done

let sample_connected ?(max_attempts = 10_000) rng (spec : Spec.t) =
  let radius = Spec.radius spec in
  (* One point buffer for the whole rejection loop, refilled in place on
     a reject, and one unit-disk and one BFS scratch shared across
     attempts.  The connectivity test is a single traversal from node 0,
     which stops as soon as every node has been reached. *)
  let points = place_uniform rng spec in
  let n = spec.n in
  let scratch = Unit_disk.Scratch.create () in
  let bfs = Bfs.create () in
  let connected g =
    n <= 1
    ||
    (Bfs.reset bfs ~n;
     Bfs.seed bfs 0;
     Bfs.expand bfs g ~limit:max_int;
     Bfs.reached bfs = n)
  in
  let rec draw attempts =
    if attempts > max_attempts then
      failwith
        (Format.asprintf "Generator.sample_connected: no connected topology for %a in %d attempts"
           Spec.pp spec max_attempts);
    if attempts > 1 then refill_uniform rng spec points;
    let graph = Unit_disk.build ~scratch ~radius points in
    if connected graph then { points; graph; radius; attempts } else draw (attempts + 1)
  in
  draw 1
