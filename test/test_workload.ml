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

let test_nan_radius () =
  let spec, points, _ = sample 3 in
  List.iter
    (fun radius ->
      Alcotest.check_raises (Printf.sprintf "radius %g" radius)
        (Invalid_argument "Workload.run: radius must be positive") (fun () ->
          ignore (Workload.run ~rng:(Rng.create ~seed:4) ~points ~radius ~spec w)))
    [ Float.nan; 0.; -1. ]

(* The epoch certificate, on two churning streams: the n = 30 stream
   above (a stale backbone often fails to certify there) and the bench
   traffic stream at n = 200 over nine measured time units.  Each
   stream's stats, perfect and under [Lossy 0.5], are pinned to the loop
   that traversed every arrival.  Loss-free, the n = 200 stream runs 30
   traversals for 406 broadcasts; under loss every arrival runs the
   reception loop. *)
let certificate_cases =
  let traffic =
    let spec = Spec.make ~n:200 ~avg_degree:12. () in
    let s = Generator.sample_connected (Rng.create ~seed:2027) spec in
    (spec, s.Generator.points, s.Generator.radius)
  in
  [
    ( "n=30",
      sample 7,
      w,
      42,
      (401, 0x1.40ccccccccccdp+5, 17, 11, 461, 0x1.b1e1e1e1e1e1ep+4, 0x1.9b21d5dd86b4p-1),
      (0x1.e23a35da9befp-1, 0x1.71ea5f77b4272p-2),
      217 );
    ( "n=200",
      traffic,
      Workload.make ~arrival_rate:50. ~duration:10. ~warmup:1. ~join_rate:0.4 ~leave_rate:0.4 (),
      4242,
      (406, 0x1.68e38e38e38e4p+5, 4, 10, 235, 0x1.d6p+5, 0x1.c5fd7a533b456p-4),
      (0x1p+0, 0x1.500af6726acc3p-1),
      30 );
  ]

let test_certificate () =
  List.iter
    (fun ( name,
           (spec, points, radius),
           w,
           seed,
           (broadcasts, throughput, churn_events, maintenance_updates, maintenance_messages,
            messages_per_churn, mean_staleness),
           (perfect, lossy),
           traversals ) ->
      let serve mode delivery =
        let r = Workload.serve ~mode ~rng:(Rng.create ~seed) ~points ~radius ~spec w in
        Alcotest.(check bool) (name ^ " stats") true
          (r.Workload.stats
          = {
              Workload.broadcasts;
              skipped = 0;
              throughput;
              churn_events;
              maintenance_updates;
              maintenance_messages;
              messages_per_churn;
              mean_staleness;
              delivery;
            });
        r.Workload.traversals
      in
      Alcotest.(check int) (name ^ " traversals") traversals
        (serve Manet_broadcast.Protocol.Perfect perfect);
      Alcotest.(check bool) (name ^ " traversals < broadcasts") true (traversals < broadcasts);
      Alcotest.(check int) (name ^ " lossy: every arrival traverses") broadcasts
        (serve (Manet_broadcast.Protocol.Lossy 0.5) lossy))
    certificate_cases

(* The roster answers the serving loop's three questions (the k-th
   inactive node for a join, the k-th active node for a leave or a
   source, the size of a bounded source pool) as a scan over all nodes
   would, at every step of a seeded join/leave stream. *)
let test_roster_matches_scan () =
  let n = 60 in
  let roster = Workload.Roster.create n in
  let active = Array.make n true in
  let rng = Rng.create ~seed:5 in
  let nth pred k =
    let rec go v seen =
      if not (pred v) then go (v + 1) seen else if seen = k then v else go (v + 1) (seen + 1)
    in
    go 0 0
  in
  for step = 1 to 2000 do
    let live = Array.fold_left (fun acc a -> if a then acc + 1 else acc) 0 active in
    Alcotest.(check int) "live" live (Workload.Roster.live roster);
    (* Joins and leaves in turn with a random bias, so the stream drains
       towards two live nodes and refills towards all of them. *)
    let bias = if step mod 400 < 200 then 3 else 7 in
    if Rng.int rng 10 < bias && live < n then begin
      let k = Rng.int rng (n - live) in
      let v = nth (fun v -> not active.(v)) k in
      Workload.Roster.join roster k;
      active.(v) <- true
    end
    else if live > 2 then begin
      let k = Rng.int rng live in
      let v = nth (fun v -> active.(v)) k in
      Alcotest.(check int) "k-th active" v (Workload.Roster.nth_active roster k);
      Workload.Roster.leave roster k;
      active.(v) <- false
    end;
    let bound = Rng.int rng (n + 2) in
    let below = ref 0 in
    Array.iteri (fun v a -> if a && v < bound then incr below) active;
    Alcotest.(check int) "active below bound" !below (Workload.Roster.active_below roster bound);
    (* The membership check also pins which node the join or leave took. *)
    Alcotest.(check (array bool)) "membership" active
      (Array.init n (Workload.Roster.is_active roster))
  done

(* A seeded motion-plus-churn stream at n = 300, pinned to the values of
   the eager-snapshot loop that scanned every node per event: its stats,
   and the sums of the edge counts and backbone sizes handed to the
   maintenance probe.  Snapshots are built only when read, so the stream
   builds fewer of them than it has topology events. *)
let test_pinned_stream () =
  let spec = Spec.make ~n:300 ~avg_degree:10. () in
  let s = Generator.sample_connected (Rng.create ~seed:2024) spec in
  let w =
    Workload.make ~arrival_rate:3. ~duration:30. ~warmup:1. ~join_rate:0.4 ~leave_rate:0.4 ()
  in
  let motion =
    {
      Workload.model = Manet_topology.Mobility.Random_waypoint;
      dt = 0.5;
      speed_min = 0.;
      speed_max = 2.;
      pause_time = 0.;
    }
  in
  let sum_m = ref 0 and sum_members = ref 0 and events = ref 0 and snapshots = ref 0 in
  let on_maintenance (p : Workload.probe) =
    events := !events + p.Workload.stale_events;
    snapshots := p.Workload.snapshots;
    sum_m := !sum_m + Manet_graph.Graph.m p.Workload.graph;
    sum_members :=
      !sum_members
      + Manet_graph.Nodeset.cardinal p.Workload.backbone.Manet_backbone.Static_backbone.members
  in
  let serve ?mode ?on_maintenance w =
    Workload.run ?mode ~motion ?on_maintenance ~rng:(Rng.create ~seed:99) ~points:s.Generator.points
      ~radius:s.Generator.radius ~spec w
  in
  let st = serve ~on_maintenance w in
  Alcotest.(check bool) "stats" true
    (st
    = {
        Workload.broadcasts = 79;
        skipped = 0;
        throughput = 0x1.5cb08d3dcb08dp+1;
        churn_events = 15;
        maintenance_updates = 30;
        maintenance_messages = 21755;
        messages_per_churn = 0x1.6a95555555555p+10;
        mean_staleness = 0x1p+0;
        delivery = 0x1.fd31c945af3dcp-1;
      });
  Alcotest.(check int) "sum of probed edge counts" 53072 !sum_m;
  Alcotest.(check int) "sum of probed backbone sizes" 4843 !sum_members;
  Alcotest.(check int) "topology events up to the last probe" 77 !events;
  Alcotest.(check bool)
    (Printf.sprintf "%d snapshots < %d topology events" !snapshots !events)
    true (!snapshots < !events);
  let lossy = serve ~mode:(Manet_broadcast.Protocol.Lossy 0.2) w in
  Alcotest.(check (float 0.)) "lossy delivery" 0x1.f88d5bf88ae1p-1 lossy.Workload.delivery

(* Edge cases of the serving loop, each under a perfect MAC and under
   [Lossy 0.5], pinned to the stats of the loop that counted deliveries
   in its own [decide] callback (every node offered a copy, plus the
   source) before delivery came from the engine's count: two nodes;
   a source pool larger than the network, under churn; a maintenance
   period longer than the stream; and a leave-heavy stream drained to
   two live nodes (28 of the 30 nodes leave). *)
let edge_cases =
  let two =
    ( Spec.make ~n:2 ~avg_degree:1. (),
      [| Manet_geom.Point.make ~x:10. ~y:10.; Manet_geom.Point.make ~x:15. ~y:10. |],
      10. )
  in
  [
    ( "n=2",
      two,
      Workload.make ~arrival_rate:20. ~duration:6. ~warmup:1. ~join_rate:1. ~leave_rate:1. (),
      (106, 0x1.5333333333333p+4, 0, 6, 0, 0x0p+0, 0x0p+0),
      (0x1p+0, 0x1.6f1826a439f65p-1) );
    ( "sources > n under churn",
      sample 7,
      Workload.make ~arrival_rate:30. ~duration:8. ~warmup:1. ~join_rate:0.8 ~leave_rate:0.8
        ~sources:50 (),
      (219, 0x1.f492492492492p+4, 4, 8, 63, 0x1.f8p+3, 0x1.b7866de19b786p-3),
      (0x1p+0, 0x1.857218f9a7c9ep-2) );
    ( "maintenance_every > duration",
      sample 7,
      Workload.make ~arrival_rate:30. ~duration:8. ~join_rate:0.6 ~leave_rate:0.6
        ~maintenance_every:20. (),
      (247, 0x1.eep+4, 3, 0, 0, 0x0p+0, 0x1.2b87c5f5a2b88p+0),
      (0x1p+0, 0x1.9049eb10fc548p-2) );
    ( "drained to two live nodes",
      sample 7,
      Workload.make ~arrival_rate:30. ~duration:10. ~leave_rate:20. (),
      (306, 0x1.e99999999999ap+4, 28, 10, 73, 0x1.4db6db6db6db7p+1, 0x1.62b80d62b80d6p+0),
      (0x1.00d3a6097d47dp-1, 0x1.d45407745b72ap-2) );
  ]

let test_edge_cases () =
  List.iter
    (fun ( name,
           (spec, points, radius),
           w,
           (broadcasts, throughput, churn_events, maintenance_updates, maintenance_messages,
            messages_per_churn, mean_staleness),
           (perfect, lossy) ) ->
      List.iter
        (fun (mode, delivery) ->
          let st = Workload.run ~mode ~rng:(Rng.create ~seed:11) ~points ~radius ~spec w in
          Alcotest.(check bool) name true
            (st
            = {
                Workload.broadcasts;
                skipped = 0;
                throughput;
                churn_events;
                maintenance_updates;
                maintenance_messages;
                messages_per_churn;
                mean_staleness;
                delivery;
              }))
        [ (Manet_broadcast.Protocol.Perfect, perfect); (Manet_broadcast.Protocol.Lossy 0.5, lossy) ])
    edge_cases

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
          Alcotest.test_case "nan radius rejected" `Quick test_nan_radius;
          Alcotest.test_case "epoch certificate: traversals and stats" `Quick test_certificate;
          Alcotest.test_case "roster = full scan on a churning stream" `Quick
            test_roster_matches_scan;
          Alcotest.test_case "pinned motion-plus-churn stream (n=300)" `Quick test_pinned_stream;
          Alcotest.test_case "pinned edge cases, perfect and lossy" `Quick test_edge_cases;
        ] );
    ]
