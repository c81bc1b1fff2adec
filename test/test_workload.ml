(* The continuous-traffic serving core: deterministic replay of the
   event-timeline stream, warmup accounting, probe monotonicity, and
   the observable effect of the seeded skip-maintenance fault. *)

module Workload = Manet_experiment.Workload
module Generator = Manet_topology.Generator
module Spec = Manet_topology.Spec
module Rng = Manet_rng.Rng

let sample seed =
  let spec = Spec.make ~n:30 ~avg_degree:6. () in
  let s = Generator.sample_connected (Rng.create ~seed) spec in
  (spec, s.Generator.points, s.Generator.radius)

(* warmup 2 of duration 12: measured window is exactly 10 time units. *)
let w = Workload.make ~arrival_rate:40. ~duration:12. ~warmup:2. ~join_rate:0.6 ~leave_rate:0.6 ()

let run ?skip_maintenance ?on_maintenance ~seed () =
  let spec, points, radius = sample 7 in
  Workload.run ?skip_maintenance ?on_maintenance ~rng:(Rng.create ~seed) ~points ~radius ~spec w

let test_determinism () =
  let a = run ~seed:42 () and b = run ~seed:42 () in
  Alcotest.(check bool) "same seed, same stats" true (a = b);
  let c = run ~seed:43 () in
  Alcotest.(check bool) "different seed, different stream" true (a <> c)

let test_stats_sanity () =
  let s = run ~seed:42 () in
  Alcotest.(check bool) "stream served" true (s.Workload.broadcasts > 0);
  Alcotest.(check (float 1e-9)) "throughput = broadcasts / measured time"
    (float_of_int s.Workload.broadcasts /. 10.)
    s.Workload.throughput;
  Alcotest.(check bool) "churn happened" true (s.Workload.churn_events > 0);
  Alcotest.(check bool) "delivery is a ratio" true
    (s.Workload.delivery >= 0. && s.Workload.delivery <= 1.);
  Alcotest.(check bool) "maintenance ran" true (s.Workload.maintenance_updates > 0)

let test_probe_monotone () =
  let last = ref neg_infinity and count = ref 0 in
  let probe (p : Workload.probe) =
    Alcotest.(check bool) "probe times strictly increase" true (p.Workload.time > !last);
    last := p.Workload.time;
    incr count
  in
  let _ = run ~on_maintenance:probe ~seed:42 () in
  Alcotest.(check bool) "probed at least once" true (!count > 0)

let test_fault_observable () =
  let clean = run ~seed:42 () in
  let faulted = run ~skip_maintenance:3 ~seed:42 () in
  Alcotest.(check bool) "skipping one maintenance changes the served stream" true
    (clean <> faulted);
  (* The dropped update is post-warmup (t = 3 with warmup 2), so the
     faulted run counts exactly one update fewer; every event stream
     draws from its own split generator, so nothing else reorders. *)
  Alcotest.(check int) "exactly one update dropped"
    (clean.Workload.maintenance_updates - 1)
    faulted.Workload.maintenance_updates

let test_bad_specs () =
  let expect_invalid name f =
    match f () with
    | _ -> Alcotest.failf "%s accepted" name
    | exception Invalid_argument _ -> ()
  in
  expect_invalid "zero arrival rate" (fun () -> Workload.make ~arrival_rate:0. ~duration:5. ());
  expect_invalid "negative duration" (fun () -> Workload.make ~arrival_rate:1. ~duration:(-1.) ());
  expect_invalid "warmup past duration" (fun () ->
      Workload.make ~arrival_rate:1. ~duration:5. ~warmup:5. ());
  expect_invalid "negative join rate" (fun () ->
      Workload.make ~arrival_rate:1. ~duration:5. ~join_rate:(-0.1) ());
  expect_invalid "negative sources" (fun () ->
      Workload.make ~arrival_rate:1. ~duration:5. ~sources:(-1) ());
  (* A period below the clock's resolution at [duration] would re-fire at
     the same instant forever. *)
  expect_invalid "stalled maintenance period" (fun () ->
      Workload.make ~arrival_rate:1. ~duration:2. ~maintenance_every:1e-300 ());
  ignore (Workload.make ~arrival_rate:1. ~duration:2. ~maintenance_every:0. ());
  let spec, points, radius = sample 3 in
  let motion dt =
    {
      Workload.model = Manet_topology.Mobility.Random_waypoint;
      dt;
      speed_min = 0.;
      speed_max = 1.;
      pause_time = 0.;
    }
  in
  List.iter
    (fun dt ->
      expect_invalid (Printf.sprintf "motion dt %g" dt) (fun () ->
          Workload.run ~motion:(motion dt) ~rng:(Rng.create ~seed:4) ~points ~radius ~spec
            (Workload.make ~arrival_rate:1. ~duration:2. ())))
    [ 1e-300; 0.; -1.; Float.nan ]

let () =
  Alcotest.run "workload"
    [
      ( "serving",
        [
          Alcotest.test_case "deterministic replay" `Quick test_determinism;
          Alcotest.test_case "stats sanity" `Quick test_stats_sanity;
          Alcotest.test_case "maintenance probes are monotone" `Quick test_probe_monotone;
          Alcotest.test_case "skipped maintenance is observable" `Quick test_fault_observable;
          Alcotest.test_case "bad specs rejected" `Quick test_bad_specs;
        ] );
    ]
