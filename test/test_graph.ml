module Graph = Manet_graph.Graph
module Nodeset = Manet_graph.Nodeset
module Bfs = Manet_graph.Bfs
module Connectivity = Manet_graph.Connectivity
module Dominating = Manet_graph.Dominating
module Digraph = Manet_graph.Digraph
module Unit_disk = Manet_graph.Unit_disk
module Export = Manet_graph.Export
module Point = Manet_geom.Point
open Test_helpers

(* Construction *)

let test_of_edges_dedup () =
  let g = Graph.of_edges ~n:3 [ (0, 1); (1, 0); (0, 1); (1, 2) ] in
  Alcotest.(check int) "edges deduplicated" 2 (Graph.m g);
  Alcotest.(check (array int)) "sorted neighbors" [| 0; 2 |] (Graph.neighbors g 1)

let test_of_edges_rejects_self_loop () =
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.of_edges: self-loop") (fun () ->
      ignore (Graph.of_edges ~n:2 [ (1, 1) ]))

let test_of_edges_rejects_out_of_range () =
  Alcotest.check_raises "range" (Invalid_argument "Graph.of_edges: endpoint out of range")
    (fun () -> ignore (Graph.of_edges ~n:2 [ (0, 2) ]))

let test_families () =
  let k5 = Graph.complete 5 in
  Alcotest.(check int) "K5 edges" 10 (Graph.m k5);
  Alcotest.(check int) "K5 degree" 4 (Graph.max_degree k5);
  let p4 = Graph.path 4 in
  Alcotest.(check int) "P4 edges" 3 (Graph.m p4);
  Alcotest.(check int) "P4 end degree" 1 (Graph.degree p4 0);
  let c5 = Graph.cycle 5 in
  Alcotest.(check int) "C5 edges" 5 (Graph.m c5);
  Alcotest.(check bool) "C5 wraps" true (Graph.mem_edge c5 0 4);
  let s6 = Graph.star 6 in
  Alcotest.(check int) "star center degree" 5 (Graph.degree s6 0);
  Alcotest.(check int) "star leaf degree" 1 (Graph.degree s6 3);
  let e = Graph.empty 4 in
  Alcotest.(check int) "empty m" 0 (Graph.m e);
  Alcotest.(check int) "empty n" 4 (Graph.n e)

let test_cycle_too_small () =
  Alcotest.check_raises "cycle 2" (Invalid_argument "Graph.cycle: need at least 3 nodes")
    (fun () -> ignore (Graph.cycle 2))

let test_mem_edge () =
  let g = paper_graph () in
  Alcotest.(check bool) "present" true (Graph.mem_edge g 0 4);
  Alcotest.(check bool) "symmetric" true (Graph.mem_edge g 4 0);
  Alcotest.(check bool) "absent" false (Graph.mem_edge g 0 9);
  Alcotest.(check bool) "self" false (Graph.mem_edge g 3 3)

let test_edges_listing () =
  let g = Graph.of_edges ~n:4 [ (2, 1); (0, 3); (0, 1) ] in
  Alcotest.(check (list (pair int int))) "sorted u<v" [ (0, 1); (0, 3); (1, 2) ] (Graph.edges g)

let test_degrees () =
  let g = paper_graph () in
  Alcotest.(check int) "deg 2" 4 (Graph.degree g 2);
  Alcotest.(check int) "max degree" 4 (Graph.max_degree g);
  Alcotest.(check (float 1e-9)) "avg degree" (2. *. 12. /. 10.) (Graph.avg_degree g)

let test_neighborhoods () =
  let g = paper_graph () in
  Alcotest.check nodeset "open" (set_of_list [ 0; 8 ]) (Graph.open_neighborhood g 4);
  Alcotest.check nodeset "closed" (set_of_list [ 0; 4; 8 ]) (Graph.closed_neighborhood g 4)

let test_induced () =
  let g = paper_graph () in
  let sub, back = Graph.induced g (set_of_list [ 0; 4; 8; 2 ]) in
  Alcotest.(check int) "size" 4 (Graph.n sub);
  Alcotest.(check (array int)) "mapping" [| 0; 2; 4; 8 |] back;
  (* edges among {0,2,4,8}: (0,4),(4,8),(2,8) *)
  Alcotest.(check int) "edges" 3 (Graph.m sub)

let test_equal () =
  let a = Graph.of_edges ~n:3 [ (0, 1) ] in
  let b = Graph.of_edges ~n:3 [ (1, 0) ] in
  let c = Graph.of_edges ~n:3 [ (1, 2) ] in
  Alcotest.(check bool) "orientation-insensitive" true (Graph.equal a b);
  Alcotest.(check bool) "different" false (Graph.equal a c)

(* BFS *)

let test_distances_path () =
  let g = Graph.path 5 in
  Alcotest.(check (array int)) "chain distances" [| 0; 1; 2; 3; 4 |] (Bfs.distances g ~source:0)

let test_distances_disconnected () =
  let g = Graph.of_edges ~n:4 [ (0, 1) ] in
  let d = Bfs.distances g ~source:0 in
  Alcotest.(check int) "reachable" 1 d.(1);
  Alcotest.(check bool) "unreachable marked" true (d.(2) = max_int && d.(3) = max_int)

let test_distances_upto () =
  let g = Graph.path 6 in
  let d = Bfs.distances_upto g ~source:0 ~limit:2 in
  Alcotest.(check int) "within limit" 2 d.(2);
  Alcotest.(check bool) "beyond limit untouched" true (d.(3) = max_int)

(* N^k(source) read off the bounded traversal. *)
let k_hop g ~source ~k =
  let d = Bfs.distances_upto g ~source ~limit:k in
  Nodeset.filter (fun v -> d.(v) <= k) (Nodeset.range (Graph.n g))

let test_k_hop_and_ring () =
  let g = paper_graph () in
  Alcotest.check nodeset "N^1(3)" (set_of_list [ 3; 8; 9 ]) (k_hop g ~source:3 ~k:1);
  Alcotest.check nodeset "N^2(3)" (set_of_list [ 2; 3; 4; 8; 9 ]) (k_hop g ~source:3 ~k:2);
  Alcotest.check nodeset "ring 2 of 3" (set_of_list [ 2; 4 ]) (ring g ~source:3 ~k:2);
  Alcotest.check nodeset "ring 0" (set_of_list [ 3 ]) (ring g ~source:3 ~k:0)

let test_eccentricity () =
  let g = Graph.path 5 in
  Alcotest.(check int) "end" 4 (eccentricity g 0);
  Alcotest.(check int) "middle" 2 (eccentricity g 2)

(* The kernel's queue in discovery order, after one traversal from
   [source]. *)
let bfs_order g ~source =
  let t = Bfs.create () in
  Bfs.reset t ~n:(Graph.n g);
  Bfs.seed t source;
  Bfs.expand t g ~limit:max_int;
  List.init (Bfs.reached t) (Bfs.nth t)

let test_bfs_order () =
  let g = paper_graph () in
  (match bfs_order g ~source:0 with
  | s :: rest ->
    Alcotest.(check int) "starts at source" 0 s;
    Alcotest.(check int) "visits all (connected)" 9 (List.length rest)
  | [] -> Alcotest.fail "empty order");
  let g2 = Graph.of_edges ~n:4 [ (0, 1) ] in
  Alcotest.(check (list int)) "only component" [ 0; 1 ] (bfs_order g2 ~source:0)

let prop_khop_matches_distances =
  qtest "k_hop agrees with distances" ~count:50 (arb_udg ~n_max:40 ()) (fun case ->
      let g = (sample_of case).graph in
      let dist = Bfs.distances g ~source:0 in
      let k = 3 in
      let expected = ref Nodeset.empty in
      Array.iteri (fun v d -> if d <= k then expected := Nodeset.add v !expected) dist;
      Nodeset.equal !expected (k_hop g ~source:0 ~k))

(* The reference traversal the kernel must match: a multi-source BFS on
   a Queue that never enters a blocked node (a blocked seed is dropped)
   and expands nodes below [limit] only. *)
let reference_dist g ~seeds ~blocked ~limit =
  let d = Array.make (Graph.n g) max_int in
  let q = Queue.create () in
  List.iter
    (fun s ->
      if (not blocked.(s)) && d.(s) = max_int then begin
        d.(s) <- 0;
        Queue.add s q
      end)
    seeds;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    if d.(u) < limit then
      Graph.iter_neighbors g u (fun v ->
          if (not blocked.(v)) && d.(v) = max_int then begin
            d.(v) <- d.(u) + 1;
            Queue.add v q
          end)
  done;
  d

(* One traversal on [t]: block, seed, expand; then every reader must
   agree with the reference. *)
let kernel_agrees t g ~seeds ~blocked ~limit =
  let n = Graph.n g in
  Bfs.reset t ~n;
  Array.iteri (fun v b -> if b then Bfs.block t v) blocked;
  List.iter (Bfs.seed t) seeds;
  Bfs.expand t g ~limit;
  let expected = reference_dist g ~seeds ~blocked ~limit in
  let nodes = List.init n Fun.id in
  let reached = List.init (Bfs.reached t) (Bfs.nth t) in
  let rec ascending = function
    | a :: (b :: _ as rest) -> expected.(a) <= expected.(b) && ascending rest
    | _ -> true
  in
  Array.init n (Bfs.dist t) = expected
  && List.for_all (fun v -> Bfs.seen t v = (blocked.(v) || expected.(v) < max_int)) nodes
  && List.sort Int.compare reached = List.filter (fun v -> expected.(v) < max_int) nodes
  && ascending reached

(* Random seeds, blocked nodes and limit, drawn from [seed]. *)
let traversal_case ~seed g =
  let n = Graph.n g in
  let rng = Rng.create ~seed in
  let seeds = List.init (1 + Rng.int rng 3) (fun _ -> Rng.int rng n) in
  let blocked = Array.init n (fun _ -> Rng.int rng 8 = 0) in
  let limit = if Rng.bool rng then max_int else Rng.int rng 5 in
  (seeds, blocked, limit)

(* One state shared by every case, so stale marks of earlier (larger and
   smaller) graphs are in the map each time. *)
let shared_bfs = Bfs.create ()

let prop_bfs_matches_reference =
  qtest "kernel = reference traversal" ~count:100 (arb_udg ~n_max:80 ~ds:[ 6.; 10.; 18. ] ())
    (fun ((seed, _, _) as case) ->
      let g = (sample_of case).graph in
      let seeds, blocked, limit = traversal_case ~seed g in
      kernel_agrees shared_bfs g ~seeds ~blocked ~limit
      && kernel_agrees (Bfs.create ()) g ~seeds ~blocked ~limit)

let test_bfs_reuse () =
  let t = Bfs.create () in
  List.iteri
    (fun i (seed, n) ->
      let g = (udg ~seed ~n ~d:12.).graph in
      let seeds, blocked, limit = traversal_case ~seed:(seed + i) g in
      Alcotest.(check bool) (Printf.sprintf "reused state, n=%d" n) true
        (kernel_agrees t g ~seeds ~blocked ~limit);
      Alcotest.(check bool) (Printf.sprintf "fresh state, n=%d" n) true
        (kernel_agrees (Bfs.create ()) g ~seeds ~blocked ~limit))
    [ (3, 1000); (4, 20); (5, 1000) ]

(* Connectivity *)

let test_components () =
  let g = Graph.of_edges ~n:6 [ (0, 1); (1, 2); (4, 5) ] in
  let comp, k = Connectivity.components g in
  Alcotest.(check int) "three components" 3 k;
  Alcotest.(check bool) "same component" true (comp.(0) = comp.(2));
  Alcotest.(check bool) "different" true (comp.(0) <> comp.(4));
  Alcotest.(check (array int)) "indexed by smallest member" [| 0; 0; 0; 1; 2; 2 |] comp

let test_is_connected () =
  Alcotest.(check bool) "paper graph" true (Connectivity.is_connected (paper_graph ()));
  Alcotest.(check bool) "empty graph" true (Connectivity.is_connected (Graph.empty 0));
  Alcotest.(check bool) "single" true (Connectivity.is_connected (Graph.empty 1));
  Alcotest.(check bool) "two isolated" false (Connectivity.is_connected (Graph.empty 2))

let test_connected_subset () =
  let g = paper_graph () in
  Alcotest.(check bool) "backbone subset" true
    (Connectivity.is_connected_subset g (set_of_list [ 0; 5; 1 ]));
  Alcotest.(check bool) "broken subset" false
    (Connectivity.is_connected_subset g (set_of_list [ 0; 1 ]));
  Alcotest.(check bool) "empty subset" true (Connectivity.is_connected_subset g Nodeset.empty);
  Alcotest.(check bool) "singleton" true (Connectivity.is_connected_subset g (set_of_list [ 7 ]))

let test_reachable_within () =
  let g = Graph.path 5 in
  Alcotest.check nodeset "blocked by gap" (set_of_list [ 0; 1 ])
    (Connectivity.reachable_within g ~from:0 (set_of_list [ 0; 1; 3; 4 ]));
  Alcotest.check nodeset "from outside set" Nodeset.empty
    (Connectivity.reachable_within g ~from:2 (set_of_list [ 0; 1 ]))

(* Dominating sets *)

let test_dominating () =
  let g = paper_graph () in
  Alcotest.(check bool) "heads dominate" true
    (Dominating.is_dominating g (set_of_list [ 0; 1; 2; 3 ]));
  Alcotest.(check bool) "heads are independent" true
    (Dominating.is_independent g (set_of_list [ 0; 1; 2; 3 ]));
  Alcotest.(check bool) "heads alone are not a CDS" false
    (Dominating.is_cds g (set_of_list [ 0; 1; 2; 3 ]));
  Alcotest.(check bool) "backbone is a CDS" true
    (Dominating.is_cds g (set_of_list [ 0; 1; 2; 3; 4; 5; 6; 7; 8 ]))

let test_undominated () =
  let g = Graph.path 5 in
  Alcotest.check nodeset "far end exposed" (set_of_list [ 3; 4 ])
    (Dominating.undominated g (set_of_list [ 1 ]))

let test_empty_set_domination () =
  Alcotest.(check bool) "empty set on empty graph" true
    (Dominating.is_cds (Graph.empty 0) Nodeset.empty);
  Alcotest.(check bool) "empty set on nonempty graph" false
    (Dominating.is_cds (Graph.empty 1) Nodeset.empty)

let test_domination_lower_bound () =
  Alcotest.(check int) "star" 1 (Dominating.domination_number_lower_bound (Graph.star 8));
  Alcotest.(check int) "path" 2 (Dominating.domination_number_lower_bound (Graph.path 5));
  Alcotest.(check int) "empty" 0 (Dominating.domination_number_lower_bound (Graph.empty 0))

(* Digraph / SCC *)

let test_scc_cycle () =
  let d = Digraph.of_edges ~n:3 [ (0, 1); (1, 2); (2, 0) ] in
  Alcotest.(check bool) "cycle strongly connected" true (Digraph.is_strongly_connected d);
  Alcotest.(check int) "one component" 1 (snd (Digraph.scc d))

let test_scc_dag () =
  let d = Digraph.of_edges ~n:3 [ (0, 1); (1, 2) ] in
  Alcotest.(check bool) "chain not strong" false (Digraph.is_strongly_connected d);
  Alcotest.(check int) "three components" 3 (snd (Digraph.scc d))

let test_scc_mixed () =
  (* Two 2-cycles bridged one way: {0,1} and {2,3}. *)
  let d = Digraph.of_edges ~n:4 [ (0, 1); (1, 0); (2, 3); (3, 2); (1, 2) ] in
  let comp, k = Digraph.scc d in
  Alcotest.(check int) "two components" 2 k;
  Alcotest.(check bool) "0,1 together" true (comp.(0) = comp.(1));
  Alcotest.(check bool) "2,3 together" true (comp.(2) = comp.(3));
  Alcotest.(check bool) "separate" true (comp.(0) <> comp.(2))

let test_scc_deep_chain () =
  (* Long path: the iterative Tarjan must not blow the stack. *)
  let n = 50_000 in
  let d = Digraph.of_edges ~n (List.init (n - 1) (fun i -> (i, i + 1))) in
  Alcotest.(check int) "n components" n (snd (Digraph.scc d))

let test_scc_big_cycle () =
  let n = 50_000 in
  let d = Digraph.of_edges ~n ((n - 1, 0) :: List.init (n - 1) (fun i -> (i, i + 1))) in
  Alcotest.(check bool) "big ring strong" true (Digraph.is_strongly_connected d)

let test_digraph_misc () =
  let d = Digraph.of_edges ~n:3 [ (0, 1); (0, 1); (2, 2) ] in
  Alcotest.(check int) "dedup arcs" 2 (Digraph.m d);
  Alcotest.(check bool) "mem arc" true (Digraph.mem_arc d 0 1);
  Alcotest.(check bool) "not reverse" false (Digraph.mem_arc d 1 0);
  let r = Digraph.reverse d in
  Alcotest.(check bool) "reversed" true (Digraph.mem_arc r 1 0);
  Alcotest.(check bool) "self loop survives reverse" true (Digraph.mem_arc r 2 2);
  Alcotest.(check bool) "single node strong" true
    (Digraph.is_strongly_connected (Digraph.of_edges ~n:1 []))

let prop_scc_mutual_reachability =
  qtest "scc = mutual reachability classes" ~count:40
    QCheck.(pair (int_bound 10_000) (int_range 2 25))
    (fun (seed, n) ->
      let rng = Manet_rng.Rng.create ~seed in
      let edges = ref [] in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if u <> v && Manet_rng.Rng.float rng 1. < 0.15 then edges := (u, v) :: !edges
        done
      done;
      let d = Digraph.of_edges ~n !edges in
      let comp, _ = Digraph.scc d in
      let reach s =
        let seen = Array.make n false in
        let q = Queue.create () in
        seen.(s) <- true;
        Queue.add s q;
        while not (Queue.is_empty q) do
          let u = Queue.pop q in
          Array.iter
            (fun v ->
              if not seen.(v) then begin
                seen.(v) <- true;
                Queue.add v q
              end)
            (Digraph.successors d u)
        done;
        seen
      in
      let reachability = Array.init n reach in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          let mutual = reachability.(u).(v) && reachability.(v).(u) in
          if mutual <> (comp.(u) = comp.(v)) then ok := false
        done
      done;
      !ok)

(* Unit disk *)

let test_unit_disk_simple () =
  let pts = [| Point.make ~x:0. ~y:0.; Point.make ~x:1. ~y:0.; Point.make ~x:5. ~y:0. |] in
  let g = Unit_disk.build ~radius:1.5 pts in
  Alcotest.(check bool) "close pair" true (Graph.mem_edge g 0 1);
  Alcotest.(check bool) "far pair" false (Graph.mem_edge g 1 2)

let test_unit_disk_strict () =
  let pts = [| Point.make ~x:0. ~y:0.; Point.make ~x:2. ~y:0. |] in
  let g = Unit_disk.build ~radius:2. pts in
  Alcotest.(check int) "distance exactly r is not a link" 0 (Graph.m g)

let prop_unit_disk_matches_brute =
  qtest "grid construction = brute force" ~count:60
    QCheck.(pair (int_bound 100_000) (int_range 2 80))
    (fun (seed, n) ->
      let rng = Manet_rng.Rng.create ~seed in
      let pts =
        Array.init n (fun _ ->
            Point.make ~x:(Manet_rng.Rng.float rng 100.) ~y:(Manet_rng.Rng.float rng 100.))
      in
      let radius = 5. +. Manet_rng.Rng.float rng 30. in
      Graph.equal (Unit_disk.build ~radius pts) (Unit_disk.build_brute_force ~radius pts))

(* Cell build = brute-force oracle over the layouts the cell binning must
   survive: every seeded graph is compared as CSR arrays, so a missed,
   extra, duplicated or misordered neighbour all fail. *)

let check_udg name ~radius pts =
  if not (Graph.equal (Unit_disk.build ~radius pts) (Unit_disk.build_brute_force ~radius pts))
  then Alcotest.failf "%s: grid build differs from brute force (n=%d, radius %h)" name
      (Array.length pts) radius

let uniform_points rng ~n ~lo ~hi =
  Array.init n (fun _ ->
      Point.make ~x:(lo +. Manet_rng.Rng.float rng (hi -. lo))
        ~y:(lo +. Manet_rng.Rng.float rng (hi -. lo)))

let test_udg_oracle_uniform () =
  List.iter
    (fun n ->
      for seed = 1 to 3 do
        let rng = Manet_rng.Rng.create ~seed:((seed * 7919) + n) in
        let pts = uniform_points rng ~n ~lo:0. ~hi:100. in
        let by_degree =
          if n < 2 then []
          else
            List.map
              (fun degree -> Unit_disk.radius_for_degree ~n ~degree ~width:100. ~height:100.)
              [ 6.; 12.; 18. ]
        in
        List.iter
          (fun radius -> check_udg (Printf.sprintf "uniform seed %d" seed) ~radius pts)
          ((1. +. Manet_rng.Rng.float rng 30.) :: by_degree)
      done)
    [ 0; 1; 2; 20; 100; 1000 ]

let test_udg_oracle_radius_beyond_field () =
  let rng = Manet_rng.Rng.create ~seed:31 in
  List.iter
    (fun n ->
      let pts = uniform_points rng ~n ~lo:0. ~hi:100. in
      List.iter
        (fun radius ->
          check_udg "radius beyond field" ~radius pts;
          Alcotest.(check int) "complete" (n * (n - 1) / 2) (Graph.m (Unit_disk.build ~radius pts)))
        [ 150.; 1e4 ])
    [ 2; 100; 500 ]

let test_udg_oracle_parked_rail () =
  (* The serving loop's snapshot: active nodes in the field, left nodes on
     a rail above it spaced 2r + 1 apart (isolated), here also at a
     tighter spacing so rail nodes link along a line of thousands of
     cells. *)
  List.iter
    (fun (n, spacing_of_r) ->
      let rng = Manet_rng.Rng.create ~seed:(n + 17) in
      let radius = Unit_disk.radius_for_degree ~n ~degree:12. ~width:100. ~height:100. in
      let park_y = 100. +. (2. *. radius) +. 1. in
      let field = uniform_points rng ~n ~lo:0. ~hi:100. in
      let pts =
        Array.mapi
          (fun v p ->
            if Manet_rng.Rng.float rng 1. < 0.3 then
              Point.make ~x:(float_of_int v *. spacing_of_r radius) ~y:park_y
            else p)
          field
      in
      check_udg "parked rail" ~radius pts)
    [
      (200, fun r -> (2. *. r) +. 1.);
      (1000, fun r -> (2. *. r) +. 1.);
      (1000, fun r -> 0.7 *. r);
    ]

let test_udg_oracle_negative_coincident () =
  let rng = Manet_rng.Rng.create ~seed:57 in
  let radius = 7.3 in
  let base = uniform_points rng ~n:300 ~lo:(-50.) ~hi:50. in
  (* Points exactly on cell edges (either sign, and -0.), plus copies of
     earlier points: coincident distinct nodes are linked. *)
  let edges =
    Array.init 40 (fun i ->
        let k = float_of_int ((i mod 9) - 4) in
        Point.make ~x:(k *. radius) ~y:(if i mod 2 = 0 then -0. else -.k *. radius))
  in
  let copies = Array.init 60 (fun i -> base.((i * 37) mod 300)) in
  let pts = Array.concat [ base; edges; copies; [| Point.origin; Point.origin |] ] in
  check_udg "negative and coincident" ~radius pts;
  let g = Unit_disk.build ~radius pts in
  Alcotest.(check bool) "coincident copies linked" true (Graph.mem_edge g 0 (300 + 40))

let test_udg_oracle_cell_edge_pairs () =
  (* Pairs at distance r (1 +- 2^-52) straddling a cell edge: one point a
     hair below a multiple of the radius, its partner one radius further
     along a random direction (axis-aligned half the time). *)
  let rng = Manet_rng.Rng.create ~seed:73 in
  for trial = 1 to 20 do
    let radius = 0.1 +. Manet_rng.Rng.float rng 12. in
    let pts =
      Array.concat
        (List.init 60 (fun _ ->
             let k = float_of_int (Manet_rng.Rng.int rng 41 - 20) in
             let edge = k *. radius in
             let x = edge -. (Manet_rng.Rng.float rng 1e-6 *. radius) in
             let y = float_of_int (Manet_rng.Rng.int rng 41 - 20) *. radius in
             let theta =
               if Manet_rng.Rng.int rng 2 = 0 then 0. else Manet_rng.Rng.float rng (2. *. Float.pi)
             in
             let d =
               radius *. (if Manet_rng.Rng.int rng 2 = 0 then 1. -. epsilon_float else 1. +. epsilon_float)
             in
             [| Point.make ~x ~y; Point.make ~x:(x +. (d *. cos theta)) ~y:(y +. (d *. sin theta)) |]))
    in
    check_udg (Printf.sprintf "cell-edge trial %d" trial) ~radius pts
  done

(* [Unit_disk.patch] = [build] on the moved points: the serving loop's
   join/leave snapshot.  A quarter of the nodes start on the parking
   rail.  A moved node goes to a uniform field point, onto its rail
   slot, onto another node (coincident) or exactly one radius from one
   along an axis; a move list may be empty or repeat a node, n reaches
   past 256, and a second patch starts from the first one's graph.  One
   scratch serves every build and patch, as in the serving loop. *)
let prop_patch_matches_build =
  qtest "patch = build on the moved points" ~count:100
    QCheck.(triple (int_bound 100_000) (int_range 2 400) (int_bound 20))
    (fun (seed, n, k) ->
      let rng = Manet_rng.Rng.create ~seed in
      let float b = Manet_rng.Rng.float rng b and int b = Manet_rng.Rng.int rng b in
      let radius =
        Unit_disk.radius_for_degree ~n ~degree:(4. +. float 14.) ~width:100. ~height:100.
      in
      let park v =
        Point.make ~x:(float_of_int v *. ((2. *. radius) +. 1.)) ~y:(100. +. (2. *. radius) +. 1.)
      in
      let field () = Point.make ~x:(float 100.) ~y:(float 100.) in
      let pts = Array.init n (fun v -> if int 4 = 0 then park v else field ()) in
      let scratch = Unit_disk.Scratch.create () in
      let move pts k =
        let moved = Array.init k (fun _ -> int n) in
        let next = Array.copy pts in
        Array.iter
          (fun v ->
            let other : Point.t = next.(int n) in
            next.(v) <-
              (match int 5 with
              | 0 -> park v
              | 1 -> other
              | 2 -> Point.make ~x:(other.x +. radius) ~y:other.y
              | 3 -> Point.make ~x:other.x ~y:(other.y -. radius)
              | _ -> field ()))
          moved;
        (moved, next)
      in
      let g = Unit_disk.build ~scratch ~radius pts in
      let moved, pts1 = move pts k in
      let g1 = Unit_disk.patch ~scratch ~radius pts1 g ~changed:moved k in
      let rebuilt = Unit_disk.build ~scratch ~radius pts1 in
      let moved, pts2 = move pts1 (int 6) in
      let g2 = Unit_disk.patch ~scratch ~radius pts2 g1 ~changed:moved (Array.length moved) in
      let fresh = Unit_disk.build ~radius pts1 in
      Graph.equal g1 fresh && Graph.equal rebuilt fresh
      && Graph.equal g2 (Unit_disk.build ~radius pts2))

(* Every builder guards with [not (radius > 0.)], so a NaN radius is
   rejected with the builder's own message instead of yielding an
   edgeless graph. *)
let check_rejects_radius name build =
  List.iter
    (fun radius ->
      Alcotest.check_raises (Printf.sprintf "%s, radius %g" name radius)
        (Invalid_argument (name ^ ": radius must be positive"))
        (fun () -> ignore (build ~radius [| Point.make ~x:0. ~y:0.; Point.make ~x:1. ~y:0. |])))
    [ Float.nan; 0.; -2. ]

let test_build_rejects_nan () =
  check_rejects_radius "Unit_disk.build" (fun ~radius pts -> Unit_disk.build ~radius pts)

let test_brute_force_rejects_nan () =
  check_rejects_radius "Unit_disk.build_brute_force" Unit_disk.build_brute_force

let test_toroidal_rejects_nan () =
  check_rejects_radius "Unit_disk.build_toroidal"
    (Unit_disk.build_toroidal ~width:10. ~height:10.)

let test_unit_disk_toroidal () =
  let pts = [| Point.make ~x:1. ~y:5.; Point.make ~x:9. ~y:5.; Point.make ~x:5. ~y:5. |] in
  let g = Unit_disk.build_toroidal ~radius:3. ~width:10. ~height:10. pts in
  (* 0 and 1 are 8 apart in the plane but 2 apart on the torus. *)
  Alcotest.(check bool) "wrapped link" true (Graph.mem_edge g 0 1);
  Alcotest.(check bool) "plain non-link unchanged" false (Graph.mem_edge g 0 2)

let prop_toroidal_supergraph =
  qtest "toroidal graph contains the confined graph" ~count:30 (arb_udg ~n_max:40 ())
    (fun case ->
      let s = sample_of case in
      let t =
        Unit_disk.build_toroidal ~radius:s.radius ~width:100. ~height:100. s.points
      in
      List.for_all (fun (u, v) -> Graph.mem_edge t u v) (Graph.edges s.graph))

(* CSR equivalence: the flat representation against a naive sorted-list
   reference, over random edge lists (duplicates in both orientations)
   and adversarial shapes, through every construction path. *)

let reference_adjacency ~n edges =
  let rows = Array.make n [] in
  List.iter
    (fun (u, v) ->
      rows.(u) <- v :: rows.(u);
      rows.(v) <- u :: rows.(v))
    edges;
  Array.map (fun l -> Array.of_list (List.sort_uniq Int.compare l)) rows

let random_edges rng ~n ~count =
  List.filter
    (fun (u, v) -> u <> v)
    (List.init count (fun _ -> (Manet_rng.Rng.int rng n, Manet_rng.Rng.int rng n)))

let prop_csr_matches_reference =
  qtest "of_edges = sorted-list reference" ~count:100
    QCheck.(pair (int_bound 100_000) (int_range 1 60))
    (fun (seed, n) ->
      let rng = Manet_rng.Rng.create ~seed in
      (* Duplicates on purpose: both orientations and repeats collapse. *)
      let edges = random_edges rng ~n ~count:(2 * n) in
      let edges = edges @ List.map (fun (u, v) -> (v, u)) edges in
      let g = Graph.of_edges ~n edges in
      let reference = reference_adjacency ~n edges in
      let m_ref = Array.fold_left (fun acc r -> acc + Array.length r) 0 reference / 2 in
      let { Graph.off; nbr; _ } = g in
      Graph.n g = n
      && Graph.m g = m_ref
      && off.(0) = 0
      && off.(n) = Array.length nbr
      && Array.for_all (fun v -> reference.(v) = Graph.neighbors g v) (Array.init n Fun.id)
      && Array.for_all
           (fun v ->
             Graph.degree g v = Array.length reference.(v)
             && Graph.fold_neighbors g v (fun acc _ -> acc + 1) 0 = Array.length reference.(v)
             && Array.sub nbr off.(v) (off.(v + 1) - off.(v)) = reference.(v))
           (Array.init n Fun.id)
      && List.for_all
           (fun (u, v) -> Graph.mem_edge g u v && Graph.mem_edge g v u)
           edges)

let prop_construction_paths_agree =
  qtest "of_edges = of_adjacency = of_half_edges" ~count:100
    QCheck.(pair (int_bound 100_000) (int_range 1 60))
    (fun (seed, n) ->
      let rng = Manet_rng.Rng.create ~seed in
      let edges = List.sort_uniq compare (random_edges rng ~n ~count:(2 * n)) in
      (* Keep one orientation per undirected edge for the half-edge path. *)
      let edges = List.filter (fun (u, v) -> u < v) edges in
      let g_edges = Graph.of_edges ~n edges in
      let g_adj = Graph.of_adjacency (reference_adjacency ~n edges) in
      let buf = Array.make (2 * List.length edges) 0 in
      List.iteri
        (fun k (u, v) ->
          (* Alternate orientations: of_half_edges accepts either. *)
          let u, v = if k land 1 = 0 then (u, v) else (v, u) in
          buf.(2 * k) <- u;
          buf.((2 * k) + 1) <- v)
        edges;
      let g_half = Graph.of_half_edges ~n ~len:(2 * List.length edges) buf in
      Graph.equal g_edges g_adj && Graph.equal g_edges g_half
      && Graph.edges g_edges = Graph.edges g_half)

let test_csr_adversarial () =
  let check_equal name a b = Alcotest.(check bool) name true (Graph.equal a b) in
  (* Empty graphs, isolated nodes, stars, complete graphs: the shapes
     whose rows are degenerate (all-empty, one huge, all-equal). *)
  check_equal "n=0" (Graph.of_edges ~n:0 []) (Graph.of_half_edges ~n:0 ~len:0 [||]);
  check_equal "n=1" (Graph.of_edges ~n:1 []) (Graph.of_adjacency [| [||] |]);
  check_equal "isolated nodes" (Graph.empty 5) (Graph.of_half_edges ~n:5 ~len:0 (Array.make 8 0));
  let star_buf = Array.concat (List.init 6 (fun i -> [| i + 1; 0 |])) in
  check_equal "star, reversed orientations" (Graph.star 7) (Graph.of_half_edges ~n:7 ~len:12 star_buf);
  let k5 = Graph.complete 5 in
  let buf = Array.make 20 0 in
  let k = ref 0 in
  List.iter
    (fun (u, v) ->
      buf.(!k) <- u;
      buf.(!k + 1) <- v;
      k := !k + 2)
    (Graph.edges k5);
  check_equal "complete" k5 (Graph.of_half_edges ~n:5 ~len:20 buf);
  (* Slack beyond len is ignored. *)
  check_equal "slack ignored" (Graph.path 3) (Graph.of_half_edges ~n:3 ~len:4 [| 0; 1; 1; 2; 9; 9 |])

let test_of_half_edges_validation () =
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.of_half_edges: self-loop")
    (fun () -> ignore (Graph.of_half_edges ~n:3 ~len:2 [| 1; 1 |]));
  Alcotest.check_raises "range" (Invalid_argument "Graph.of_half_edges: endpoint out of range")
    (fun () -> ignore (Graph.of_half_edges ~n:2 ~len:2 [| 0; 2 |]));
  Alcotest.check_raises "odd length" (Invalid_argument "Graph.of_half_edges: bad buffer length")
    (fun () -> ignore (Graph.of_half_edges ~n:2 ~len:1 [| 0; 1 |]));
  Alcotest.check_raises "length over buffer"
    (Invalid_argument "Graph.of_half_edges: bad buffer length") (fun () ->
      ignore (Graph.of_half_edges ~n:2 ~len:4 [| 0; 1 |]))

let test_neighbors_is_a_copy () =
  let g = Graph.path 3 in
  let row = Graph.neighbors g 1 in
  row.(0) <- 99;
  Alcotest.(check (array int)) "internal storage unaffected" [| 0; 2 |] (Graph.neighbors g 1);
  Alcotest.(check bool) "membership unaffected" true (Graph.mem_edge g 1 0)

let test_radius_for_degree_roundtrip () =
  let r = Unit_disk.radius_for_degree ~n:100 ~degree:6. ~width:100. ~height:100. in
  let d = Unit_disk.expected_degree ~n:100 ~radius:r ~width:100. ~height:100. in
  Alcotest.(check (float 1e-9)) "roundtrip" 6. d

(* Export *)

let test_export_dot () =
  let g = Graph.of_edges ~n:3 [ (0, 1); (1, 2) ] in
  let dot =
    Export.to_dot ~name:"t" ~highlight:(set_of_list [ 0 ]) ~secondary:(set_of_list [ 1 ]) g
  in
  Alcotest.(check bool) "has edge" true (contains dot "0 -- 1");
  Alcotest.(check bool) "highlight styling" true (contains dot "fillcolor=black");
  Alcotest.(check bool) "secondary styling" true (contains dot "fillcolor=gray")

let test_export_csv () =
  let g = Graph.of_edges ~n:3 [ (0, 2); (0, 1) ] in
  Alcotest.(check string) "csv" "u,v\n0,1\n0,2\n" (Export.to_edge_csv g)

let test_export_adjacency () =
  let g = Graph.of_edges ~n:2 [ (0, 1) ] in
  Alcotest.(check string) "adjacency" "0: 1\n1: 0\n" (Export.to_adjacency_lines g)

let test_export_digraph () =
  let d = Digraph.of_edges ~n:2 [ (0, 1) ] in
  Alcotest.(check bool) "digraph dot" true (contains (Export.digraph_to_dot d) "0 -> 1")

let test_import_edge_csv_roundtrip () =
  let g = paper_graph () in
  let g2 = Export.of_edge_csv (Export.to_edge_csv g) in
  Alcotest.(check bool) "roundtrip" true (Graph.equal g g2)

let test_import_edge_csv_forms () =
  let g = Export.of_edge_csv "0,1\n\n2 , 1 \n" in
  Alcotest.(check int) "nodes from max id" 3 (Graph.n g);
  Alcotest.(check int) "edges" 2 (Graph.m g);
  (match Export.of_edge_csv "0,1\nbogus" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument");
  Alcotest.(check int) "empty text" 0 (Graph.n (Export.of_edge_csv ""))

(* Nodeset *)

let test_nodeset_helpers () =
  let s = Nodeset.of_indicator [| true; false; true |] in
  Alcotest.check nodeset "of_indicator" (set_of_list [ 0; 2 ]) s;
  Alcotest.(check (array bool)) "to_indicator roundtrip" [| true; false; true |]
    (Nodeset.to_indicator ~n:3 s);
  Alcotest.check nodeset "range" (set_of_list [ 0; 1; 2 ]) (Nodeset.range 3);
  Alcotest.check_raises "to_indicator range check"
    (Invalid_argument "Nodeset.to_indicator: element out of range") (fun () ->
      ignore (Nodeset.to_indicator ~n:1 s))

let test_nodeset_of_increasing () =
  Alcotest.check nodeset "slack beyond len ignored" (set_of_list [ 5; 9 ])
    (Nodeset.of_increasing [| 5; 9; 0; 0 |] ~len:2);
  Alcotest.check nodeset "slice" (set_of_list [ 9; 11 ])
    (Nodeset.of_increasing ~pos:1 [| 5; 9; 11; 0 |] ~len:2);
  let a = [| 1; 2 |] in
  let s = Nodeset.of_increasing a ~len:2 in
  a.(0) <- 7;
  Alcotest.check nodeset "a copy of the input" (set_of_list [ 1; 2 ]) s;
  Alcotest.check_raises "not increasing"
    (Invalid_argument "Nodeset.of_increasing: not strictly increasing") (fun () ->
      ignore (Nodeset.of_increasing [| 1; 1 |] ~len:2));
  Alcotest.check_raises "len out of range"
    (Invalid_argument "Nodeset.of_increasing: len out of range") (fun () ->
      ignore (Nodeset.of_increasing [| 1 |] ~len:2));
  Alcotest.check_raises "slice out of range"
    (Invalid_argument "Nodeset.of_increasing: len out of range") (fun () ->
      ignore (Nodeset.of_increasing ~pos:1 [| 1; 2 |] ~len:2))

let test_nodeset_of_predicate () =
  Alcotest.check nodeset "dense" (Nodeset.range 5)
    (Nodeset.of_predicate ~n:5 ~card:5 (fun _ -> true));
  Alcotest.check nodeset "sparse" (set_of_list [ 1; 4; 7 ])
    (Nodeset.of_predicate ~n:9 ~card:3 (fun v -> v mod 3 = 1));
  let raises name msg card =
    Alcotest.check_raises name (Invalid_argument ("Nodeset.of_predicate: " ^ msg)) (fun () ->
        ignore (Nodeset.of_predicate ~n:10 ~card (fun v -> v mod 2 = 0)))
  in
  raises "card too large" "fewer than card elements" 6;
  raises "card far too large" "fewer than card elements" max_int;
  raises "card too small" "more than card elements" 4;
  raises "negative card" "card must be non-negative" (-1)

(* Every Nodeset operation against the stdlib's balanced-tree sets on
   random inputs: empty sets, singletons, lists with duplicates, and
   sets past 64 elements, drawn from a small range so that operands
   overlap. *)
module Model = Set.Make (Int)

let arb_elements =
  let open QCheck.Gen in
  let elements =
    frequency
      [
        (1, return []);
        (1, map (fun v -> [ v ]) (int_range (-3) 150));
        (3, list_size (int_range 0 40) (int_range (-3) 60));
        (3, list_size (int_range 65 200) (int_range (-3) 150));
      ]
  in
  QCheck.make
    ~print:QCheck.Print.(triple (list int) (list int) int)
    (triple elements elements (int_range (-5) 155))

let prop_nodeset_model =
  qtest "nodeset = stdlib set model" ~count:300 arb_elements (fun (la, lb, x) ->
      let a = Nodeset.of_list la and b = Nodeset.of_list lb in
      let ma = Model.of_list la and mb = Model.of_list lb in
      let same s m = Nodeset.elements s = Model.elements m in
      let p v = v mod 3 = 0 in
      let visited s = List.rev (Nodeset.fold (fun v acc -> v :: acc) s []) in
      let iterated s =
        let l = ref [] in
        Nodeset.iter (fun v -> l := v :: !l) s;
        List.rev !l
      in
      let n = 1 + List.fold_left max 0 (la @ lb) in
      let in_range = List.filter (fun v -> v >= 0) la in
      same a ma && same b mb
      && Nodeset.cardinal a = Model.cardinal ma
      && Nodeset.is_empty a = Model.is_empty ma
      && Nodeset.mem x a = Model.mem x ma
      && List.for_all (fun v -> Nodeset.mem v a) la
      && Nodeset.equal a b = Model.equal ma mb
      && Nodeset.equal a (Nodeset.of_list (List.rev la))
      && Nodeset.subset a b = Model.subset ma mb
      && Nodeset.subset (Nodeset.inter a b) a
      && same (Nodeset.union a b) (Model.union ma mb)
      && same (Nodeset.inter a b) (Model.inter ma mb)
      && same (Nodeset.diff a b) (Model.diff ma mb)
      && same (Nodeset.diff b a) (Model.diff mb ma)
      && same (Nodeset.add x a) (Model.add x ma)
      && same (Nodeset.remove x a) (Model.remove x ma)
      && same (Nodeset.filter p a) (Model.filter p ma)
      && same (Nodeset.singleton x) (Model.singleton x)
      && visited a = Model.elements ma
      && iterated a = Model.elements ma
      && Nodeset.for_all p a = Model.for_all p ma
      && Nodeset.exists p a = Model.exists p ma
      && Nodeset.min_elt_opt a = Model.min_elt_opt ma
      && Nodeset.max_elt_opt a = Model.max_elt_opt ma
      && (match Nodeset.max_elt a with
         | v -> Some v = Model.max_elt_opt ma
         | exception Not_found -> Model.is_empty ma)
      && (let sorted = Array.of_list (Nodeset.elements a) in
          let k = Array.length sorted in
          same (Nodeset.of_increasing sorted ~len:k) ma
          && (k < 2 || same (Nodeset.of_increasing ~pos:1 sorted ~len:(k - 1)) (Model.remove sorted.(0) ma)))
      && (let ind = Array.init n (fun v -> Model.mem v ma) in
          let mr = Model.of_list in_range in
          same (Nodeset.of_indicator ind) mr
          && same (Nodeset.of_predicate ~n ~card:(Model.cardinal mr) (fun v -> Model.mem v mr)) mr
          && Nodeset.to_indicator ~n (Nodeset.of_list in_range) = ind)
      && same (Nodeset.range n) (Model.of_list (List.init n Fun.id))
      && Format.asprintf "%a" Nodeset.pp a
         = "{" ^ String.concat ", " (List.map string_of_int (Model.elements ma)) ^ "}")

(* The one in-place int sort: ranges on both sides of its 64-entry
   insertion-sort/heapsort switch, with duplicates, leaving the rest of
   the array untouched. *)
let prop_sort_range =
  qtest "sort_range sorts exactly the requested range" ~count:200
    QCheck.(pair (int_bound 100_000) (int_range 1 160))
    (fun (seed, n) ->
      let rng = Manet_rng.Rng.create ~seed in
      let a = Array.init n (fun _ -> Manet_rng.Rng.int rng 50) in
      let len = Manet_rng.Rng.int rng (n + 1) in
      let lo = Manet_rng.Rng.int rng (n - len + 1) in
      let hi = lo + len in
      let expect = Array.copy a in
      let sorted = Array.sub a lo len in
      Array.sort Int.compare sorted;
      Array.blit sorted 0 expect lo len;
      Manet_graph.Row_sort.sort_range a lo hi;
      a = expect)

let () =
  Alcotest.run "graph"
    [
      ( "construction",
        [
          Alcotest.test_case "dedup and sorting" `Quick test_of_edges_dedup;
          Alcotest.test_case "rejects self-loops" `Quick test_of_edges_rejects_self_loop;
          Alcotest.test_case "rejects out-of-range" `Quick test_of_edges_rejects_out_of_range;
          Alcotest.test_case "standard families" `Quick test_families;
          Alcotest.test_case "cycle minimum size" `Quick test_cycle_too_small;
          Alcotest.test_case "mem_edge" `Quick test_mem_edge;
          Alcotest.test_case "edge listing" `Quick test_edges_listing;
          Alcotest.test_case "degrees" `Quick test_degrees;
          Alcotest.test_case "neighborhoods" `Quick test_neighborhoods;
          Alcotest.test_case "induced subgraph" `Quick test_induced;
          Alcotest.test_case "structural equality" `Quick test_equal;
          Alcotest.test_case "nodeset helpers" `Quick test_nodeset_helpers;
          Alcotest.test_case "nodeset of_increasing" `Quick test_nodeset_of_increasing;
          Alcotest.test_case "nodeset of_predicate" `Quick test_nodeset_of_predicate;
          prop_nodeset_model;
        ] );
      ( "bfs",
        [
          Alcotest.test_case "path distances" `Quick test_distances_path;
          Alcotest.test_case "disconnected distances" `Quick test_distances_disconnected;
          Alcotest.test_case "bounded exploration" `Quick test_distances_upto;
          Alcotest.test_case "k-hop and rings" `Quick test_k_hop_and_ring;
          Alcotest.test_case "eccentricity" `Quick test_eccentricity;
          Alcotest.test_case "bfs order" `Quick test_bfs_order;
          prop_khop_matches_distances;
          prop_bfs_matches_reference;
          Alcotest.test_case "reused state = fresh state" `Quick test_bfs_reuse;
        ] );
      ( "connectivity",
        [
          Alcotest.test_case "components" `Quick test_components;
          Alcotest.test_case "is_connected" `Quick test_is_connected;
          Alcotest.test_case "connected subsets" `Quick test_connected_subset;
          Alcotest.test_case "reachable within" `Quick test_reachable_within;
        ] );
      ( "dominating",
        [
          Alcotest.test_case "paper-graph domination facts" `Quick test_dominating;
          Alcotest.test_case "undominated witnesses" `Quick test_undominated;
          Alcotest.test_case "empty set conventions" `Quick test_empty_set_domination;
          Alcotest.test_case "lower bound" `Quick test_domination_lower_bound;
        ] );
      ( "digraph",
        [
          Alcotest.test_case "scc of a cycle" `Quick test_scc_cycle;
          Alcotest.test_case "scc of a dag" `Quick test_scc_dag;
          Alcotest.test_case "scc mixed" `Quick test_scc_mixed;
          Alcotest.test_case "deep chain (no stack overflow)" `Quick test_scc_deep_chain;
          Alcotest.test_case "big cycle" `Quick test_scc_big_cycle;
          Alcotest.test_case "digraph misc" `Quick test_digraph_misc;
          prop_scc_mutual_reachability;
        ] );
      ( "unit_disk",
        [
          Alcotest.test_case "simple" `Quick test_unit_disk_simple;
          Alcotest.test_case "strict threshold" `Quick test_unit_disk_strict;
          prop_unit_disk_matches_brute;
          prop_patch_matches_build;
          Alcotest.test_case "oracle: uniform n in {0..1000}" `Quick test_udg_oracle_uniform;
          Alcotest.test_case "oracle: radius beyond field" `Quick test_udg_oracle_radius_beyond_field;
          Alcotest.test_case "oracle: parked rail" `Quick test_udg_oracle_parked_rail;
          Alcotest.test_case "oracle: negative and coincident" `Quick
            test_udg_oracle_negative_coincident;
          Alcotest.test_case "oracle: cell-edge pairs" `Quick test_udg_oracle_cell_edge_pairs;
          Alcotest.test_case "build rejects nan radius" `Quick test_build_rejects_nan;
          Alcotest.test_case "brute force rejects nan radius" `Quick test_brute_force_rejects_nan;
          Alcotest.test_case "toroidal rejects nan radius" `Quick test_toroidal_rejects_nan;
          Alcotest.test_case "toroidal wrap" `Quick test_unit_disk_toroidal;
          prop_toroidal_supergraph;
          Alcotest.test_case "radius/degree roundtrip" `Quick test_radius_for_degree_roundtrip;
        ] );
      ( "csr",
        [
          prop_csr_matches_reference;
          prop_construction_paths_agree;
          prop_sort_range;
          Alcotest.test_case "adversarial shapes" `Quick test_csr_adversarial;
          Alcotest.test_case "of_half_edges validation" `Quick test_of_half_edges_validation;
          Alcotest.test_case "neighbors returns a copy" `Quick test_neighbors_is_a_copy;
        ] );
      ( "export",
        [
          Alcotest.test_case "dot" `Quick test_export_dot;
          Alcotest.test_case "csv" `Quick test_export_csv;
          Alcotest.test_case "adjacency" `Quick test_export_adjacency;
          Alcotest.test_case "digraph dot" `Quick test_export_digraph;
          Alcotest.test_case "edge csv roundtrip" `Quick test_import_edge_csv_roundtrip;
          Alcotest.test_case "edge csv forms" `Quick test_import_edge_csv_forms;
        ] );
    ]
