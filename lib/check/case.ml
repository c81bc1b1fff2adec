module Rng = Manet_rng.Rng
module Graph = Manet_graph.Graph
module Nodeset = Manet_graph.Nodeset
module Connectivity = Manet_graph.Connectivity
module Spec = Manet_topology.Spec
module Generator = Manet_topology.Generator
module Mobility = Manet_topology.Mobility

type t = {
  graph : Graph.t;
  source : int;
  seed : int;
  index : int;
  kind : string;
}

(* One independent SplitMix64 stream per (seed, index, salt): the
   golden-ratio multiplier decorrelates consecutive indices, the salt
   hash decorrelates consumers of the same case. *)
let derived_rng ~seed ~index ~salt =
  Rng.create ~seed:(seed + ((index + 1) * 0x2545F4914F6CDD1D) + Hashtbl.hash salt)

let case_rng c ~salt = derived_rng ~seed:c.seed ~index:c.index ~salt

let largest_component g =
  if Connectivity.is_connected g then g
  else begin
    let comp, k = Connectivity.components g in
    let sizes = Array.make k 0 in
    Array.iter (fun c -> sizes.(c) <- sizes.(c) + 1) comp;
    let best = ref 0 in
    Array.iteri (fun c s -> if s > sizes.(!best) then best := c) sizes;
    fst (Graph.induced g (Nodeset.of_indicator (Array.map (fun c -> c = !best) comp)))
  end

(* Random connected unit-disk graph, the paper's own workload. *)
let gen_udg rng =
  let n = Rng.int_in rng ~lo:8 ~hi:48 in
  let d = [| 4.; 6.; 10.; 18. |].(Rng.int rng 4) in
  let d = Float.min d (float_of_int (n - 2)) in
  let sample = Generator.sample_connected rng (Spec.make ~n ~avg_degree:d ()) in
  sample.Generator.graph

(* A unit-disk sample perturbed by a short mobility walk; the snapshot
   may disconnect, so the case keeps the largest component. *)
let gen_mobility rng =
  let n = Rng.int_in rng ~lo:12 ~hi:40 in
  let d = if Rng.bool rng then 6. else 10. in
  let spec = Spec.make ~n ~avg_degree:d () in
  let sample = Generator.sample_connected rng spec in
  let model = if Rng.bool rng then Mobility.Random_waypoint else Mobility.Random_direction in
  let speed = 1. +. Rng.float rng 7. in
  let mob =
    Mobility.create ~model ~speed_min:speed ~speed_max:speed ~rng ~spec sample.Generator.points
  in
  let steps = Rng.int_in rng ~lo:1 ~hi:3 in
  for _ = 1 to steps do
    Mobility.step mob ~dt:1.
  done;
  let snapshot = Mobility.graph mob ~radius:sample.Generator.radius in
  let g = largest_component snapshot in
  if Graph.n g >= 2 then g else sample.Generator.graph

(* Degenerate shapes where coverage sets and gateway selection are at
   their extreme points. *)
let gen_shape rng =
  match Rng.int rng 5 with
  | 0 -> Graph.path (Rng.int_in rng ~lo:2 ~hi:16)
  | 1 -> Graph.cycle (Rng.int_in rng ~lo:3 ~hi:16)
  | 2 -> Graph.star (Rng.int_in rng ~lo:2 ~hi:16)
  | 3 -> Graph.complete (Rng.int_in rng ~lo:2 ~hi:10)
  | _ ->
    (* two cliques joined by a single bridge edge: the sparsest cut a
       gateway selection must keep alive *)
    let a = Rng.int_in rng ~lo:2 ~hi:6 and b = Rng.int_in rng ~lo:2 ~hi:6 in
    let edges = ref [] in
    for u = 0 to a - 1 do
      for v = u + 1 to a - 1 do
        edges := (u, v) :: !edges
      done
    done;
    for u = a to a + b - 1 do
      for v = u + 1 to a + b - 1 do
        edges := (u, v) :: !edges
      done
    done;
    Graph.of_edges ~n:(a + b) ((a - 1, a) :: !edges)

let generate ~seed ~index =
  let rng = derived_rng ~seed ~index ~salt:"case" in
  let kind, graph =
    match index mod 5 with
    | 3 -> ("mobility", gen_mobility rng)
    | 4 -> ("shape", gen_shape rng)
    | _ -> ("udg", gen_udg rng)
  in
  let source = Rng.int rng (Graph.n graph) in
  { graph; source; seed; index; kind }

let of_graph ?(seed = -1) ?(index = -1) graph ~source =
  if Graph.n graph < 2 then invalid_arg "Case.of_graph: need at least 2 nodes";
  if source < 0 || source >= Graph.n graph then invalid_arg "Case.of_graph: source out of range";
  { graph; source; seed; index; kind = "explicit" }

let with_graph c graph ~source = { c with graph; source }

let describe c =
  Printf.sprintf "case %d (%s, seed %d): n=%d m=%d source=%d" c.index c.kind c.seed
    (Graph.n c.graph) (Graph.m c.graph) c.source
