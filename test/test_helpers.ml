(* Shared fixtures and generators for the test suites. *)

module Rng = Manet_rng.Rng
module Graph = Manet_graph.Graph
module Nodeset = Manet_graph.Nodeset
module Spec = Manet_topology.Spec
module Generator = Manet_topology.Generator

(* The paper's Figure 3 network, 0-indexed (paper node k = node k-1 here).
   Clusters: {0,4,5,6}, {1,7}, {2,8,9}, {3}; static backbone with the
   2.5-hop coverage set = {0..8}; a dynamic broadcast from node 0 uses
   7 forward nodes {0,1,2,3,5,6,8}. *)
let paper_edges =
  [ (0, 4); (0, 5); (0, 6); (1, 5); (1, 7); (2, 6); (2, 7); (2, 8); (2, 9); (3, 8); (3, 9); (4, 8) ]

let paper_graph () = Graph.of_edges ~n:10 paper_edges

let paper_heads = [ 0; 1; 2; 3 ]

let paper_head_of = [| 0; 1; 2; 3; 0; 0; 0; 1; 2; 2 |]

(* Random connected unit-disk samples, deterministic from a seed. *)
let udg ~seed ~n ~d =
  let rng = Rng.create ~seed in
  Generator.sample_connected rng (Spec.make ~n ~avg_degree:d ())

let udg_cases ~seed ~count ~n ~d =
  let rng = Rng.create ~seed in
  let spec = Spec.make ~n ~avg_degree:d () in
  List.init count (fun _ -> Generator.sample_connected rng spec)

module Mobility = Manet_topology.Mobility

(* A constant-speed mobility walk over a connected sample, with the
   walk's spec matched to the sample's size so snapshots stay in the
   same working space.  Shared by the maintenance tests in
   test_cluster/test_static/test_check. *)
let mobility_walk ?(model = Mobility.Random_waypoint) ~seed ~speed ~d (s : Generator.sample) =
  let spec = Spec.make ~n:(Graph.n s.graph) ~avg_degree:d () in
  Mobility.create ~model ~speed_min:speed ~speed_max:speed ~rng:(Rng.create ~seed) ~spec s.points

(* Advance one step and return the new unit-disk snapshot at the
   sample's own radius. *)
let walk_step (s : Generator.sample) mob =
  Mobility.step mob ~dt:1.;
  Mobility.graph mob ~radius:s.radius

module Protocol = Manet_broadcast.Protocol
module Result = Manet_broadcast.Result

(* One broadcast of the registered protocol [name] under a perfect MAC,
   prepared on a fresh environment ([clustering] defaults to lowest-ID,
   [rng] to seed 0). *)
let broadcast ?clustering ?rng name g ~source =
  let env = Protocol.make_env ?clustering ?rng g in
  fst (((Manet_protocols.Registry.find_exn name).prepare env).run ~source ~mode:Protocol.Perfect)

(* An SI-CDS broadcast: the source transmits, then every node with
   [in_cds] forwards its first copy. *)
let si_broadcast g ~in_cds ~source =
  fst
    (Protocol.run_decide (Protocol.make_env g) ~source ~mode:Protocol.Perfect ~initial:()
       ~decide:(fun ~node ~from:_ ~payload:() -> if in_cds node then Some () else None))

(* Sum of the forward counts of protocol [name] from source 0 over
   [count] fresh connected samples — the aggregate-comparison harness
   the baseline tests use to rank pruning schemes. *)
let forward_sum ~seed ~count ~n ~d name =
  let rng = Rng.create ~seed in
  let spec = Spec.make ~n ~avg_degree:d () in
  let sum = ref 0 in
  for _ = 1 to count do
    let s = Generator.sample_connected rng spec in
    sum := !sum + Result.forward_count (broadcast name s.Generator.graph ~source:0)
  done;
  !sum

(* Erdos-Renyi-style graphs (not unit-disk): broader structural variety
   for the graph-theory substrate, including disconnected graphs. *)
let gnp ~seed ~n ~p =
  let rng = Rng.create ~seed in
  let edges = ref [] in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Rng.float rng 1.0 < p then edges := (u, v) :: !edges
    done
  done;
  Graph.of_edges ~n !edges

let nodeset = Alcotest.testable Nodeset.pp Nodeset.equal

let set_of_list l = List.fold_left (fun s v -> Nodeset.add v s) Nodeset.empty l

(* Reference hop-ball readings over [Bfs.distances]: the nodes at hop
   distance exactly [k] from [source], and the largest finite hop
   distance from [v]. *)
let ring g ~source ~k =
  let dist = Manet_graph.Bfs.distances g ~source in
  Nodeset.filter (fun v -> dist.(v) = k) (Nodeset.range (Graph.n g))

let eccentricity g v =
  Array.fold_left (fun acc d -> if d = max_int then acc else max acc d) 0
    (Manet_graph.Bfs.distances g ~source:v)

(* QCheck generator producing connected unit-disk samples by seed; the
   printed counterexample is the (seed, n, d) triple plus the edge list,
   which is enough to reproduce any failure deterministically. *)
let gen_udg ?(n_min = 8) ?(n_max = 60) ?(ds = [ 4.; 6.; 10.; 18. ]) () =
  (* The connected sampler gives up on d = 4 well before n = 100 (no
     connected n = 94, d = 4 network within its attempts). *)
  if n_max > 80 && List.mem 4. ds then
    invalid_arg
      "gen_udg: d = 4 has no connected samples above n = 80; pass ~ds without 4. (e.g. \
       [6.; 10.; 18.])";
  let open QCheck.Gen in
  let* seed = int_bound 1_000_000 in
  let* n = int_range n_min n_max in
  let* d = oneofl ds in
  (* High degree targets on tiny node counts produce radii wider than the
     working space; clamp the degree below n. *)
  let d = Float.min d (float_of_int (n - 2)) in
  return (seed, n, d)

let print_udg (seed, n, d) =
  let sample = udg ~seed ~n ~d in
  Format.asprintf "seed=%d n=%d d=%g edges=%s" seed n d
    (String.concat ";"
       (List.map (fun (u, v) -> Printf.sprintf "(%d,%d)" u v) (Graph.edges sample.graph)))

let arb_udg ?n_min ?n_max ?ds () =
  QCheck.make ~print:print_udg (gen_udg ?n_min ?n_max ?ds ())

let sample_of (seed, n, d) = udg ~seed ~n ~d

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub haystack i nn = needle || scan (i + 1)) in
  nn = 0 || scan 0

(* Register a QCheck property as an alcotest case.  The random state is
   fixed so failures are reproducible and test runs are stable. *)
let qtest name ?(count = 100) arb prop =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| 0x5eed; String.length name |])
    (QCheck.Test.make ~name ~count arb prop)
