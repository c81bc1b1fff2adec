module Spec = Manet_topology.Spec
module Generator = Manet_topology.Generator
module Mobility = Manet_topology.Mobility
module Graph = Manet_graph.Graph
module Connectivity = Manet_graph.Connectivity
module Point = Manet_geom.Point
module Rng = Manet_rng.Rng
open Test_helpers

(* Spec *)

let test_spec_defaults () =
  let s = Spec.make ~n:50 ~avg_degree:6. () in
  Alcotest.(check (float 1e-9)) "width" 100. s.width;
  Alcotest.(check (float 1e-9)) "height" 100. s.height

let test_spec_radius_formula () =
  let s = Spec.make ~n:100 ~avg_degree:6. () in
  Alcotest.(check (float 1e-6)) "radius"
    (sqrt (6. *. 10000. /. (Float.pi *. 99.)))
    (Spec.radius s)

let test_spec_validation () =
  Alcotest.check_raises "n too small" (Invalid_argument "Spec.make: need at least 2 nodes")
    (fun () -> ignore (Spec.make ~n:1 ~avg_degree:6. ()));
  Alcotest.check_raises "bad degree"
    (Invalid_argument "Spec.make: avg_degree must be positive") (fun () ->
      ignore (Spec.make ~n:10 ~avg_degree:0. ()));
  Alcotest.check_raises "NaN degree"
    (Invalid_argument "Spec.make: avg_degree must be positive") (fun () ->
      ignore (Spec.make ~n:10 ~avg_degree:Float.nan ()));
  Alcotest.check_raises "bad area"
    (Invalid_argument "Spec.make: non-positive working space") (fun () ->
      ignore (Spec.make ~width:0. ~n:10 ~avg_degree:6. ()))

(* Generator *)

let test_placement_in_box () =
  let rng = Rng.create ~seed:1 in
  let spec = Spec.make ~n:200 ~avg_degree:6. () in
  let pts = Generator.place_uniform rng spec in
  Alcotest.(check int) "count" 200 (Array.length pts);
  Array.iter
    (fun p ->
      if not (Point.in_box p ~width:100. ~height:100.) then
        Alcotest.failf "point outside working space: %f %f" p.Point.x p.Point.y)
    pts

let test_placement_spread () =
  (* All four quadrants should be populated for a 200-point placement. *)
  let rng = Rng.create ~seed:2 in
  let spec = Spec.make ~n:200 ~avg_degree:6. () in
  let pts = Generator.place_uniform rng spec in
  let quadrant (p : Point.t) = ((if p.x > 50. then 1 else 0) * 2) + if p.y > 50. then 1 else 0 in
  let seen = Array.make 4 false in
  Array.iter (fun p -> seen.(quadrant p) <- true) pts;
  Alcotest.(check bool) "all quadrants" true (Array.for_all Fun.id seen)

let test_sample_connected_is_connected () =
  let rng = Rng.create ~seed:3 in
  let spec = Spec.make ~n:60 ~avg_degree:6. () in
  for _ = 1 to 20 do
    let s = Generator.sample_connected rng spec in
    Alcotest.(check bool) "connected" true (Connectivity.is_connected s.graph);
    Alcotest.(check bool) "attempts positive" true (s.attempts >= 1)
  done

let test_sample_deterministic () =
  let s1 = Generator.sample_connected (Rng.create ~seed:77) (Spec.make ~n:40 ~avg_degree:6. ()) in
  let s2 = Generator.sample_connected (Rng.create ~seed:77) (Spec.make ~n:40 ~avg_degree:6. ()) in
  Alcotest.(check bool) "same graph from same seed" true (Graph.equal s1.graph s2.graph)

let test_sample_degree_accuracy () =
  (* The realized mean degree over many samples should be within ~20% of
     the target (border effects push it below). *)
  let rng = Rng.create ~seed:5 in
  let spec = Spec.make ~n:100 ~avg_degree:6. () in
  let sum = ref 0. in
  let count = 30 in
  for _ = 1 to count do
    let s = Generator.sample_connected rng spec in
    sum := !sum +. Graph.avg_degree s.graph
  done;
  let mean = !sum /. float_of_int count in
  Alcotest.(check bool)
    (Printf.sprintf "realized degree %.2f near 6" mean)
    true
    (mean > 4.5 && mean < 7.5)

let test_sample_infeasible_fails () =
  (* Degree target far below the connectivity threshold: the attempt
     budget must trip. *)
  let rng = Rng.create ~seed:7 in
  let spec = Spec.make ~n:100 ~avg_degree:0.5 () in
  (match Generator.sample_connected ~max_attempts:5 rng spec with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected Failure on infeasible spec")

(* Mobility *)

let mob ~seed ~model ~speed spec =
  let rng = Rng.create ~seed in
  let pts = Generator.place_uniform rng spec in
  Mobility.create ~model ~speed_min:speed ~speed_max:speed ~rng ~spec pts

let test_mobility_stays_in_box () =
  let spec = Spec.make ~n:50 ~avg_degree:6. () in
  List.iter
    (fun model ->
      let m = mob ~seed:11 ~model ~speed:5. spec in
      for _ = 1 to 100 do
        Mobility.step m ~dt:0.7;
        Array.iter
          (fun p ->
            if not (Point.in_box p ~width:100. ~height:100.) then
              Alcotest.failf "node escaped: %f %f" p.Point.x p.Point.y)
          (Mobility.positions m)
      done)
    [ Mobility.Random_waypoint; Mobility.Random_direction ]

let test_mobility_deterministic () =
  (* Equal seeds walk identical trajectories — the property the check
     harness's replay keys rely on. *)
  List.iter
    (fun model ->
      let spec = Spec.make ~n:30 ~avg_degree:6. () in
      let m1 = mob ~seed:19 ~model ~speed:4. spec in
      let m2 = mob ~seed:19 ~model ~speed:4. spec in
      for step = 1 to 20 do
        Mobility.step m1 ~dt:0.9;
        Mobility.step m2 ~dt:0.9;
        let p1 = Mobility.positions m1 and p2 = Mobility.positions m2 in
        Array.iteri
          (fun i p ->
            if not (Point.equal p p2.(i)) then Alcotest.failf "trajectories diverge at step %d" step)
          p1
      done)
    [ Mobility.Random_waypoint; Mobility.Random_direction ]

let test_mobility_moves () =
  let spec = Spec.make ~n:30 ~avg_degree:6. () in
  let m = mob ~seed:13 ~model:Mobility.Random_waypoint ~speed:5. spec in
  let before = Mobility.positions m in
  Mobility.step m ~dt:2.;
  let after = Mobility.positions m in
  let moved = ref 0 in
  Array.iteri (fun i p -> if not (Point.equal p after.(i)) then incr moved) before;
  Alcotest.(check bool) "most nodes moved" true (!moved > 20)

let test_mobility_speed_bound () =
  (* No node may travel farther than speed * dt in one step. *)
  let spec = Spec.make ~n:40 ~avg_degree:6. () in
  List.iter
    (fun model ->
      let speed = 3. in
      let m = mob ~seed:17 ~model ~speed spec in
      for _ = 1 to 50 do
        let before = Mobility.positions m in
        let dt = 0.9 in
        Mobility.step m ~dt;
        let after = Mobility.positions m in
        Array.iteri
          (fun i p ->
            let d = Point.dist p after.(i) in
            if d > (speed *. dt) +. 1e-6 then Alcotest.failf "node %d jumped %f" i d)
          before
      done)
    [ Mobility.Random_waypoint; Mobility.Random_direction ]

let test_mobility_zero_speed () =
  let spec = Spec.make ~n:20 ~avg_degree:6. () in
  let m = mob ~seed:19 ~model:Mobility.Random_waypoint ~speed:0. spec in
  let before = Mobility.positions m in
  Mobility.step m ~dt:10.;
  let after = Mobility.positions m in
  Array.iteri
    (fun i p -> Alcotest.(check bool) "frozen" true (Point.equal p after.(i)))
    before

let test_mobility_pause () =
  (* With an enormous pause time, a waypoint node that arrives stays put;
     over a short horizon with tiny speed nothing moves far. *)
  let spec = Spec.make ~n:10 ~avg_degree:6. () in
  let rng = Rng.create ~seed:23 in
  let pts = Generator.place_uniform rng spec in
  let m =
    Mobility.create ~pause_time:1e9 ~model:Mobility.Random_waypoint ~speed_min:1. ~speed_max:1.
      ~rng ~spec pts
  in
  (* Just exercising the pause branch: must not raise or move nodes outside. *)
  for _ = 1 to 20 do
    Mobility.step m ~dt:5.
  done;
  Array.iter
    (fun p -> Alcotest.(check bool) "in box" true (Point.in_box p ~width:100. ~height:100.))
    (Mobility.positions m)

let test_mobility_graph_snapshot () =
  let spec = Spec.make ~n:40 ~avg_degree:8. () in
  let m = mob ~seed:29 ~model:Mobility.Random_direction ~speed:4. spec in
  Mobility.step m ~dt:1.;
  let g = Mobility.graph m ~radius:(Spec.radius spec) in
  Alcotest.(check int) "node count preserved" 40 (Graph.n g);
  (* Snapshot must equal building from the exported positions. *)
  let g2 = Manet_graph.Unit_disk.build ~radius:(Spec.radius spec) (Mobility.positions m) in
  Alcotest.(check bool) "consistent with positions" true (Graph.equal g g2)

let test_mobility_validation () =
  let spec = Spec.make ~n:5 ~avg_degree:2. () in
  Alcotest.check_raises "bad speeds" (Invalid_argument "Mobility.create: bad speed range")
    (fun () ->
      ignore
        (Mobility.create ~model:Mobility.Random_waypoint ~speed_min:5. ~speed_max:1.
           ~rng:(Rng.create ~seed:1) ~spec [||]))

let prop_generated_graph_matches_radius =
  qtest "generated unit-disk graph honours the radius" ~count:30 (arb_udg ~n_max:50 ())
    (fun case ->
      let s = sample_of case in
      let ok = ref true in
      for u = 0 to Graph.n s.graph - 1 do
        for v = u + 1 to Graph.n s.graph - 1 do
          let linked = Graph.mem_edge s.graph u v in
          let near = Point.dist s.points.(u) s.points.(v) < s.radius in
          if linked <> near then ok := false
        done
      done;
      !ok)

let () =
  Alcotest.run "topology"
    [
      ( "spec",
        [
          Alcotest.test_case "defaults" `Quick test_spec_defaults;
          Alcotest.test_case "radius formula" `Quick test_spec_radius_formula;
          Alcotest.test_case "validation" `Quick test_spec_validation;
        ] );
      ( "generator",
        [
          Alcotest.test_case "placement in box" `Quick test_placement_in_box;
          Alcotest.test_case "placement spread" `Quick test_placement_spread;
          Alcotest.test_case "connected sampling" `Quick test_sample_connected_is_connected;
          Alcotest.test_case "determinism" `Quick test_sample_deterministic;
          Alcotest.test_case "degree accuracy" `Quick test_sample_degree_accuracy;
          Alcotest.test_case "infeasible spec fails" `Quick test_sample_infeasible_fails;
          prop_generated_graph_matches_radius;
        ] );
      ( "mobility",
        [
          Alcotest.test_case "stays in box" `Quick test_mobility_stays_in_box;
          Alcotest.test_case "deterministic" `Quick test_mobility_deterministic;
          Alcotest.test_case "moves" `Quick test_mobility_moves;
          Alcotest.test_case "speed bound" `Quick test_mobility_speed_bound;
          Alcotest.test_case "zero speed" `Quick test_mobility_zero_speed;
          Alcotest.test_case "pause" `Quick test_mobility_pause;
          Alcotest.test_case "graph snapshot" `Quick test_mobility_graph_snapshot;
          Alcotest.test_case "validation" `Quick test_mobility_validation;
        ] );
    ]
