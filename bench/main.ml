(* Benchmark harness: regenerates every figure of the paper plus the
   extension experiments of DESIGN.md, and times the constructions with
   Bechamel.

   Usage:
     dune exec bench/main.exe                 # everything, full precision
     dune exec bench/main.exe -- fig7 timing  # selected experiments
     dune exec bench/main.exe -- --quick all  # fast smoke run
     dune exec bench/main.exe -- --csv out/ fig6   # also write CSVs *)

module Figures = Manet_experiment.Figures
module Scenario = Manet_experiment.Scenario
module Runner = Manet_experiment.Runner
module Render = Manet_experiment.Render
module Coverage = Manet_coverage.Coverage
module Json = Manet_experiment.Json
module Protocol = Manet_broadcast.Protocol

let quick = ref false
let csv_dir = ref None
let json_dir = ref None
let domains = ref 1

(* JSON output goes through the experiment layer's JSON tree; a
   non-finite measurement is written as null. *)
let num f = if Float.is_finite f then Json.Num f else Json.Null
let int i = Json.Num (float_of_int i)

let write_json ~dir ~name json =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir name in
  let oc = open_out path in
  output_string oc (Json.print json ^ "\n");
  close_out oc;
  Printf.printf "  [json] %s\n%!" path

let maybe_csv name table =
  match !csv_dir with
  | None -> ()
  | Some dir ->
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    let path = Filename.concat dir (name ^ ".csv") in
    Render.write_csv ~path table;
    Printf.printf "  [csv] %s\n%!" path

let section title = Printf.printf "\n=== %s ===\n%!" title

(* The sweep-shaped figures are builtin scenarios executed through the
   Runner; the historical per-file CSV names (underscores, one file per
   degree) are preserved. *)
let run_builtin title name =
  section title;
  let s = Figures.builtin_exn name in
  let s = if !quick then Scenario.quicken s else s in
  let s = { s with Scenario.domains = !domains } in
  let base = String.map (fun c -> if c = '-' then '_' else c) name in
  let degrees = s.Scenario.topology.Scenario.degrees in
  List.iter2
    (fun d t ->
      print_string (Render.to_text ~title:base t);
      maybe_csv (if List.length degrees = 1 then base else Printf.sprintf "%s_d%g" base d) t)
    degrees (Runner.run s)

(* The builtin figure scenarios [all] runs, in order, with their section
   titles; ext-resilience stays out of [all] (run it through `manet
   run`). *)
let figures =
  [
    ("fig6", "Figure 6: average CDS size (static backbone vs MO_CDS)");
    ("fig7", "Figure 7: average forward-node-set size (dynamic backbone vs MO_CDS)");
    ("fig8", "Figure 8: forward-node-set size (static vs dynamic backbone)");
    ("ext-baselines", "Extension: forward counts across baseline protocols");
    ("ext-si-cds", "Extension: CDS sizes across SI algorithms");
    ("ext-clustering", "Ablation: lowest-ID vs highest-connectivity clustering");
    ("ext-pruning", "Ablation: dynamic backbone pruning levels (2.5-hop)");
    ("ext-approx", "Extension: approximation ratios vs exact MCDS (d = 6, small n)");
    ("ext-msgs", "Extension: construction message complexity (O(n) check)");
    ("ext-delivery", "Diagnostic: delivery ratios of SD protocols");
    ("ext-lossy", "Extension: delivery under lossy links");
    ("ext-border", "Diagnostic: border effects of the confined working space");
    ("ext-reliable", "Extension: reliable broadcast (ack/retransmit) under loss");
    ("ext-maintenance", "Extension: clustering maintenance cost under mobility");
    ("ext-mobility", "Extension: static backbone maintenance under mobility");
    ("ext-traffic", "Extension: continuous-traffic serving under churn");
  ]

(* BENCH_timing.json holds the top-level keys of three experiments:
   the Bechamel table ([timing]: n, avg_degree, results), the
   allocation tables ([alloc]: per_broadcast, then one key for each row
   with a section of its own) and the serving throughput ([traffic]).
   Each experiment replaces only its own keys in the file on disk and
   keeps every other key, so `--json . alloc` leaves the Bechamel results and
   the traffic section in place. *)
let merge_timing_json fields =
  match !json_dir with
  | None -> ()
  | Some dir ->
    let path = Filename.concat dir "BENCH_timing.json" in
    let kept =
      if not (Sys.file_exists path) then []
      else
        let text = In_channel.with_open_bin path In_channel.input_all in
        match Json.parse text with
        | Ok (Json.Obj kept) -> kept
        | Ok _ | Error _ ->
          Printf.eprintf "%s: not a JSON object; fix or delete it before merging into it\n" path;
          exit 1
    in
    let replaced = List.map (fun (k, v) -> (k, Option.value (List.assoc_opt k fields) ~default:v)) kept in
    let added = List.filter (fun (k, _) -> not (List.mem_assoc k kept)) fields in
    write_json ~dir ~name:"BENCH_timing.json" (Json.Obj (replaced @ added))

(* Bechamel micro-benchmarks at the paper's largest scale (n = 100): the
   substrate stages (topology sampling, clustering, the three Figure 6
   constructions), then one broadcast of every registered protocol,
   prepared once and run from source 0 through the uniform pipeline. *)
let timing () =
  section "Timing (Bechamel): per-sample cost of each experiment unit";
  let open Bechamel in
  let rng = Manet_rng.Rng.create ~seed:99 in
  let spec = Manet_topology.Spec.make ~n:100 ~avg_degree:6. () in
  let sample = Manet_topology.Generator.sample_connected rng spec in
  let g = sample.graph in
  let cl = Manet_cluster.Lowest_id.cluster g in
  let stage f = Staged.stage f in
  let substrate =
    [
      Test.make ~name:"topology-sample"
        (stage (fun () ->
             ignore (Manet_topology.Generator.sample_connected rng spec)));
      Test.make ~name:"clustering" (stage (fun () -> ignore (Manet_cluster.Lowest_id.cluster g)));
      Test.make ~name:"fig6-static-2.5hop"
        (stage (fun () ->
             ignore (Manet_backbone.Static_backbone.build ~clustering:cl g Coverage.Hop25)));
      Test.make ~name:"fig6-static-3hop"
        (stage (fun () ->
             ignore (Manet_backbone.Static_backbone.build ~clustering:cl g Coverage.Hop3)));
      Test.make ~name:"fig6-mo_cds"
        (stage (fun () -> ignore (Manet_baselines.Mo_cds.build ~clustering:cl g)));
    ]
  in
  let broadcasts =
    List.map
      (fun (p : Protocol.t) ->
        let rng = Manet_rng.Rng.create ~seed:17 in
        let env = Protocol.make_env ~clustering:(lazy cl) ~rng g in
        let built = p.prepare env in
        Test.make ~name:("bcast-" ^ p.name)
          (stage (fun () -> ignore (built.run ~source:0 ~mode:Protocol.Perfect))))
      Manet_protocols.Registry.all
  in
  let tests = substrate @ broadcasts in
  let grouped = Test.make_grouped ~name:"manet" tests in
  let cfg =
    Benchmark.cfg ~limit:300
      ~quota:(Time.second (if !quick then 0.05 else 0.5))
      ~stabilize:false ()
  in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] grouped in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns = match Analyze.OLS.estimates ols with Some (e :: _) -> e | Some [] | None -> nan in
        let r2 = match Analyze.OLS.r_square ols with Some r -> r | None -> nan in
        (name, ns, r2) :: acc)
      results []
    |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
  in
  Printf.printf "%-36s %14s %8s\n" "benchmark (n=100, d=6)" "ns/run" "r²";
  List.iter
    (fun (name, ns, r2) -> Printf.printf "%-36s %14.0f %8.3f\n" name ns r2)
    rows;
  merge_timing_json
    [
      ("n", int 100);
      ("avg_degree", int 6);
      ( "results",
        Json.Arr
          (List.map
             (fun (name, ns, r2) ->
               Json.Obj [ ("name", Json.Str name); ("ns_per_run", num ns); ("r_square", num r2) ])
             rows) );
    ]

(* Every row is timed over [intervals] back-to-back intervals of [per]
   operations each and reports the median interval, so one slow slice
   (another process on the core, a major collection) does not become the
   committed [speedup]; minor words are averaged over all of them.
   [prepare k] runs before interval [k], outside both measurements, and
   hands its result to [interval]. *)
let intervals = 5

let measure_with ~per prepare interval =
  let times = Array.make intervals 0. in
  let words = ref 0. in
  for k = 0 to intervals - 1 do
    let x = prepare k in
    let w0 = Gc.minor_words () in
    let t0 = Sys.time () in
    interval x;
    times.(k) <- Sys.time () -. t0;
    words := !words +. (Gc.minor_words () -. w0)
  done;
  Array.sort Float.compare times;
  (1e6 *. times.(intervals / 2) /. float_of_int per, !words /. float_of_int (intervals * per))

let measure ~per interval = measure_with ~per Fun.id interval

(* Per-broadcast latency and allocation at the sweep scale (n = 1000,
   d = 12): prepare each protocol once, then run broadcasts back to
   back through the uniform pipeline — the same motion as [Metric]'s
   per-source loops, reusing the calling domain's engine arena.  The
   seed_* fields are the measurements recorded before the CSR/arena
   rework and stay pinned so the JSON carries the before/after pair;
   the ceiling is a hard bound on minor words per broadcast — exceed
   it and the bench exits nonzero, failing the CI smoke run.

   Every ceiling sits well below a tenth of its seed measurement, so
   the guard enforces the >= 10x reduction outright.  The dynamic
   backbone's seed pair predates the flat-coverage-set rework (its
   bespoke designation loop used to rebuild the CH_HOP cache and AVL
   coverage sets per broadcast); its ceilings pin the arena-backed
   loop.  The lossy row covers the frozen-replay path — a clean
   native run plus an SI replay through the loss engine — whose seed
   was measured under Lossy 0.1 before the rework.  Its ceiling was
   ratcheted from 95k to 85k when the per-reception loss draw moved
   from a boxed [Rng.float] comparison to an unboxed [Rng.bits53]
   int-threshold test (measured ~76k after), and from 85k to 52k when
   the generator state became unboxed (76,420 -> 46,691 words: a draw
   no longer allocates), ~12% above the measured value.  The
   self-pruning row pins the backoff schemes' shared loop on
   Engine.Scratch.  Its seed pair is the per-scheme event-heap loop it
   replaced (a key record and a tuple per event, per-node Nodeset
   unions at each expiry); the Scratch loop measured ~17,600 words,
   mostly the 1000 backoff draws, and ~5,660 once a draw allocated
   nothing (the timeline and the forward set).  The ceiling sits
   about 13% above that: two words per event (a tuple, an option)
   over its ~2000 events, or a boxed draw again, cross it.  The two
   dynamic rows were ratcheted to 40k and 45.5k, about 13% above
   35,223 and 40,246 words, once the gateway selection was read in
   place (no per-head copy of the selection) and [Graph.mem_edge]
   stopped allocating a closure per call, and to 8,500 and 14,200,
   about 13% above 7,501 and 12,524 words, once the gateway kernel
   stopped allocating (no closure over boxed counters per selection)
   and a transmission pushed its copies without a closure, and to
   5,770 and 11,450, about 13% above 5,104 and 10,127 words, once
   coverage sets were flat arrays and a relaying head's selection
   took its pruning rows as arguments (no predicate, no callback).
   The perfect row went to 5,720, about 13% above 5,065 words, once the
   loop calendared only the receptions that decide something, with no
   closure per broadcast and no [Some] around the arena.

   The flooding and dynamic-2.5hop "count" rows run the same perfect
   broadcast through the prepared protocol's [count] instead of [run]:
   no result, no timeline.  Their seed pair is the same protocol's [run] reading
   when the rows were added (flooding 302.3 us, 11,032 words;
   dynamic-2.5hop 694.4 us, 35,223 words), so [alloc_reduction] is
   what the count-only epilogue and the allocation-free gateway
   kernel save.  They read 21 and 2,450 words, and the dynamic row
   53 once a relaying head allocated no pruning predicate, no [Some]
   and no selection callback, and 22 once the loop's [transmit] and
   [head_transmit] were top-level functions instead of closures built
   per broadcast and the arena argument lost its [Some]; its ceiling
   went 60 -> 25, about 13% above, so a closure per broadcast (four
   words or more) or an O(n) epilogue crosses it.  The flooding row
   read 18 words until a loss-free SI count became one traversal
   ([Engine.run_si_count]), 6 after (the counts record and the [Some]
   of the arena argument), and 4 once the engine took its arena as a
   required argument: the counts record alone; its ceiling went
   24 -> 7 -> 5.  The static-2.5hop "count" row pins that traversal on
   a real backbone.  Its seed pair is the row's reading on the
   reception loop (83.9 us, 18 words), so [speedup] is what skipping
   the level sort, the packed keys and the decide call per reception
   saves; it reads 4 words, and its ceiling of 5 is crossed by any
   allocation per broadcast beyond the counts record.

   The dp "count" row pins the neighbor-designation schemes' 2-hop
   cover kernel.  Its seed pair is the same row before the kernel, when
   every forwarding node rebuilt its 2-hop universe as AVL sets and ran
   a list-of-sets greedy (17,165 us, 8,281,427 words); the kernel reads
   4,691 words, the forward arrays and decide results, and the ceiling
   sits about 13% above. *)
let alloc_broadcast ~reps g name mode_label mode =
  let p = Manet_protocols.Registry.find_exn name in
  let built = p.Protocol.prepare (Protocol.make_env ~rng:(Manet_rng.Rng.create ~seed:17) g) in
  let broadcast ~source =
    if mode_label = "count" then ignore (built.Protocol.count ~source ~mode)
    else ignore (built.Protocol.run ~source ~mode)
  in
  (* Warm-up grows the arena to this graph's capacity, so the timed loop
     measures steady-state reuse. *)
  for s = 0 to 2 do
    broadcast ~source:s
  done;
  let n = Manet_graph.Graph.n g and per = reps / intervals in
  measure ~per (fun k ->
      for i = k * per to ((k + 1) * per) - 1 do
        broadcast ~source:(i mod n)
      done)

(* One unit-disk build of the same n = 1000, d = 12 placement, each with
   a fresh scratch: every topology sample and every serving-loop snapshot
   that is read pays it.  The seed pair was measured with this loop on
   the hashtable grid (boxed cell keys, a 5 x 5 probe block, the
   half-edge buffer); the candidate-list kernel allocates only O(n)
   arrays, which bypass the minor heap at this size, so the ceiling sits
   at a five-hundredth of the seed: any per-node or per-probe allocation
   crosses it. *)
let alloc_build ~reps (sample : Manet_topology.Generator.sample) =
  let points = sample.Manet_topology.Generator.points
  and radius = sample.Manet_topology.Generator.radius in
  ignore (Manet_graph.Unit_disk.build ~radius points);
  let per = reps / intervals in
  measure ~per (fun _ ->
      for _ = 1 to per do
        ignore (Manet_graph.Unit_disk.build ~radius points)
      done)

(* One static backbone build of the same n = 1000, d = 12 placement
   over a shared 2.5-hop CH_HOP cache whose coverage sets are forced
   before the timed loop, so the row measures gateway selection and the
   member union alone.  The seed pair is this loop over the list-based
   batched selection that [Gateway_selection.select_all] used to be
   (fresh per-head arrays and cons cells for every connector entry);
   the shared kernel on a per-call scratch measured 46,242 words (with
   [Graph.mem_edge] allocating no closure), 14,603 once the kernel
   stopped allocating per selection, and 5,879 once the members were
   built from one indicator (no per-head [Nodeset.add], no union) and
   the per-call scratch's node maps were presized to n, and 5,376 once
   the scratch's chain-linked entry pools became per-slot ranges: what
   is left is the scratch's tables and the two sets.  The ceiling sits
   about 13% above that, so per-head allocation in the static build
   crosses it. *)
let alloc_static ~reps (sample : Manet_topology.Generator.sample) =
  let g = sample.Manet_topology.Generator.graph in
  let cache = Coverage.Cache.create g (Manet_cluster.Lowest_id.cluster g) Coverage.Hop25 in
  ignore (Coverage.Cache.coverages cache);
  let build () = ignore (Manet_backbone.Static_backbone.build ~cache g Coverage.Hop25) in
  build ();
  let per = reps / intervals in
  measure ~per (fun _ ->
      for _ = 1 to per do
        build ()
      done)

(* One [Coverage.Cache.coverages] call on a fresh 2.5-hop CH_HOP cache
   of the same n = 1000, d = 12 placement: the flat CH_HOP2 rows, the
   working scratch and every head's coverage set, which the static
   build, the dynamic broadcast, maintenance, the forwarding tree and
   MO_CDS all read.  The caches (and their CH_HOP1 rows) are created
   before each interval, outside the measurement.  The seed pair is
   this loop when a coverage set was a list of (clusterhead, connector
   array) tuples with one boxed tuple per connector pair, and each head
   sorted its keys with the stdlib [Array.sort].  The O(n) arrays
   bypass the minor heap at this size, so the row reads the per-head
   sets; the list layout measured 27,911 words, the flat one 7,999: one
   record, its [Some] and seven exact-sized int arrays per head.  The
   ceiling sits about 13% above that, so per-entry boxing or an
   allocating sort crosses it. *)
let alloc_coverage ~reps (sample : Manet_topology.Generator.sample) =
  let g = sample.Manet_topology.Generator.graph in
  let cl = Manet_cluster.Lowest_id.cluster g in
  let per = reps / intervals in
  measure_with ~per
    (fun _ -> Array.init per (fun _ -> Coverage.Cache.create g cl Coverage.Hop25))
    (fun caches -> Array.iter (fun c -> ignore (Coverage.Cache.coverages c)) caches)

(* One head's gateway selection ([Gateway_selection.select_pruned] with
   nothing pruned: its whole coverage set) on the same n = 1000, d = 12 placement's
   2.5-hop coverage sets, averaged over every head: the kernel the
   dynamic broadcast runs once per relaying clusterhead and the static
   build and backbone maintenance once per head.  The seed pair is this
   loop when the kernel walked the coverage lists through closures over
   boxed counters.  The kernel now allocates nothing once its scratch
   has grown, and the ceiling is 0: a single word per selection
   crosses it. *)
let alloc_select ~reps (sample : Manet_topology.Generator.sample) =
  let g = sample.Manet_topology.Generator.graph in
  let cache = Coverage.Cache.create g (Manet_cluster.Lowest_id.cluster g) Coverage.Hop25 in
  let coverages = Coverage.Cache.coverages cache in
  let heads = ref 0 in
  let sink = ref 0 in
  let pass () =
    for h = 0 to Array.length coverages - 1 do
      match coverages.(h) with
      | None -> ()
      | Some cov ->
        let k =
          Manet_backbone.Gateway_selection.select_pruned cov ~upstream:(-1) ~upstream_cov:None
            ~heard:[||]
        in
        sink := !sink + k
    done
  in
  Array.iter (fun c -> if Option.is_some c then incr heads) coverages;
  pass ();
  let passes = reps / intervals in
  measure ~per:(passes * !heads) (fun _ ->
      for _ = 1 to passes do
        pass ()
      done)

(* One lowest-ID clustering ([Lowest_id.cluster]) of the same n = 1000,
   d = 12 placement: the election every backbone construction and
   every sweep sample runs first.  The seed pair is this loop when the
   election's declare/join passes folded each neighbour row through a
   closure and collected the declaring nodes in a list.  The ceiling
   is set from the one [Clustering.elect] kernel, which scans the CSR
   rows directly and collects declarations in one int buffer, over a
   [Graph.mem_edge] that allocates no closure per membership test (one
   per member in [Clustering.of_head_array]'s validation): 1,219 words.
   It sits about 15% above that, so a closure per neighbour scan or per
   edge test crosses it. *)
let alloc_cluster ~reps (sample : Manet_topology.Generator.sample) =
  let g = sample.Manet_topology.Generator.graph in
  ignore (Manet_cluster.Lowest_id.cluster g);
  let per = reps / intervals in
  measure ~per (fun _ ->
      for _ = 1 to per do
        ignore (Manet_cluster.Lowest_id.cluster g)
      done)

(* Minor words per [Generator.sample_connected] at n = 100, d = 6: the
   largest sparse point of the paper's figures, where rejection sampling
   draws about 11 placements per connected one, so what each attempt
   allocates dominates.  Averaged over one fixed seeded sequence, the
   same in quick and full runs.  The loop measured 30,516.1 words when
   the flat cell index allocated its tables per attempt, 23,764 once the
   unit-disk build shared one scratch across a call's attempts, and
   10,168 once the generator state was unboxed (a placement draws two
   floats per node, and an [Rng.float] no longer allocates its state).
   The ceiling sits about 13% above that: a boxed generator state or a
   table allocated per attempt again crosses it. *)
let sample_count = 200

let alloc_sample () =
  let spec = Manet_topology.Spec.make ~n:100 ~avg_degree:6. () in
  let rng = Manet_rng.Rng.create ~seed:1007 in
  let attempts = ref 0 in
  let per = sample_count / intervals in
  let us, words =
    measure ~per (fun _ ->
        for _ = 1 to per do
          let s = Manet_topology.Generator.sample_connected rng spec in
          attempts := !attempts + s.Manet_topology.Generator.attempts
        done)
  in
  (us, words, float_of_int !attempts /. float_of_int sample_count)

(* One incremental maintenance update of the same n = 1000, d = 12
   placement, over random-waypoint steps (speed 0-2, dt 1): the per-step
   cost of keeping the static backbone alive.  The snapshots are built
   before the timed loop, so the row measures [Backbone_maintenance.update]
   alone.  The seed pair was measured with this loop when every
   refreshed head rebuilt its CH_HOP rows through [Coverage.of_head] and
   the state lived in hashtables; the ceiling sits well under half the
   seed.  The loop measured 61,390 words while each refreshed head's
   gateway selection allocated ~210 words, and 32,694 once the kernel
   allocated nothing beyond its result, 14,016 once each refreshed
   head's coverage set was a flat record of int arrays, and 13,587 once
   the kernel's scratch held per-slot ranges and reading a graph's CSR
   arrays stopped allocating a tuple; the ceiling sits about 13% above
   that, so a return to per-head row rebuilding, per-entry boxing or an
   allocating selection crosses it. *)
let maint_steps = 40

let alloc_maint (sample : Manet_topology.Generator.sample) spec =
  let module Bm = Manet_backbone.Backbone_maintenance in
  let mob =
    Manet_topology.Mobility.create ~model:Manet_topology.Mobility.Random_waypoint ~speed_min:0.
      ~speed_max:2. ~rng:(Manet_rng.Rng.create ~seed:1006) ~spec
      sample.Manet_topology.Generator.points
  in
  let snapshots =
    Array.init maint_steps (fun _ ->
        Manet_topology.Mobility.step mob ~dt:1.;
        Manet_topology.Mobility.graph mob ~radius:sample.Manet_topology.Generator.radius)
  in
  let bm = Bm.create sample.Manet_topology.Generator.graph Coverage.Hop25 in
  let per = maint_steps / intervals in
  measure ~per (fun k ->
      for i = k * per to ((k + 1) * per) - 1 do
        ignore (Bm.update bm snapshots.(i))
      done)

(* Minor words per serving-loop arrival on the [traffic] stream (n = 200,
   d = 12, arrivals at 50 per time unit under join/leave churn at 0.4),
   served for a fixed 20 time units with no warmup, so every arrival
   counts and the value is the same in quick and full runs.  The words
   of a set-up-only stream (duration 1e-6: the initial snapshot and
   backbone, no event) are subtracted: maintenance and snapshots are
   amortised over the arrivals, the fixed set-up is not.  The seed is
   this loop's value when every arrival materialized the engine's full
   result (an n-sized delivered array, the forwarder set, the timeline)
   only to discard it.  The ceiling was half the seed (770) while an
   arrival read 96 words on the reception loop; a loss-free arrival is
   now one traversal ([Engine.run_si_count]) with no generator split,
   which read 76, and the ceiling sits about 13% above that, so a
   returning split, an O(n) epilogue or a closure per arrival crosses
   it.  It read 74 once the engine took its arena as a required
   argument (no [Some] per broadcast), and reads 70 since the epoch
   certificate answers most loss-free arrivals with no traversal and
   no counts record; the ceiling sits about 13% above that again. *)
let arrival_duration = 20.

let alloc_arrival () =
  let module Workload = Manet_experiment.Workload in
  let topo = Manet_topology.Spec.make ~n:200 ~avg_degree:12. () in
  let sample =
    Manet_topology.Generator.sample_connected (Manet_rng.Rng.create ~seed:2027) topo
  in
  let serve duration =
    let w = Workload.make ~arrival_rate:50. ~duration ~join_rate:0.4 ~leave_rate:0.4 () in
    let arrivals = ref 0 in
    let us, words =
      measure ~per:1 (fun _ ->
          let stats =
            Workload.run
              ~rng:(Manet_rng.Rng.create ~seed:4242)
              ~points:sample.Manet_topology.Generator.points
              ~radius:sample.Manet_topology.Generator.radius ~spec:topo w
          in
          arrivals := stats.Workload.broadcasts)
    in
    (us, words, !arrivals)
  in
  let setup_us, setup_words, _ = serve 1e-6 in
  let us, words, arrivals = serve arrival_duration in
  let per = float_of_int arrivals in
  ((us -. setup_us) /. per, (words -. setup_words) /. per, arrivals)

(* Minor words per sample of [Sweep.run_point] over fig8's four series
   (forwards of static and dynamic, 2.5-hop and 3-hop) at n = 60, d = 18:
   the topology draw, then four broadcasts on the sample's one
   environment.  One chunk of 8 samples, run [intervals] times on the
   same seed after a warm-up run, so the value is the same in quick and
   full runs.  The seed pair is this loop when every series prepared
   on a fresh environment and built its own CH_HOP tables (four per
   sample, where one per coverage mode does).  Sharing them measured
   17,343 words (gateway selections read in place, [Graph.mem_edge]
   closure-free), 10,835 once each series read counts only, the
   gateway kernel stopped allocating and the 3-hop table reused the
   2.5-hop table's CH_HOP1 rows, 6,657 once coverage sets were flat
   arrays and the static members came from one indicator, and 6,216
   once the gateway kernel's scratch held per-slot ranges instead of
   chain-linked entry pools, and 5,979 once a dynamic count pruned by
   the upstream's coverage set in place (no merged C(u) row memoised
   per environment) and built no closure per broadcast.  The ceiling
   went 7,030 -> 6,760, about 13% above that, so a series that builds
   its own tables or materializes its result again crosses it. *)
let sweep_samples = 8

let alloc_sweep () =
  let metrics = Scenario.compile (Figures.builtin_exn "fig8") in
  let spec = Manet_topology.Spec.make ~n:60 ~avg_degree:18. () in
  let run () =
    ignore
      (Manet_experiment.Sweep.run_point ~min_samples:sweep_samples ~max_samples:sweep_samples
         ~rng:(Manet_rng.Rng.create ~seed:1008) ~spec metrics)
  in
  run ();
  measure ~per:sweep_samples (fun _ -> run ())

(* One pinned ceiling of [alloc]: a line of its table and its JSON.
   [run] measures the µs and minor words per [unit] and returns the
   members the JSON reports beside them (sizes, counts).  A row without
   a [section] (its JSON key and name) is an entry of
   per_broadcast.results, printed under the protocol/mode header; a row
   with one is its own top-level key, printed under its own header.  A
   row without seed words shows its [aside] member in that column, and
   a [fine] row prints µs and words to two decimals.  Each ceiling's
   history and reason are at its measurement function above. *)
type row = {
  label : string;
  scale : string;
  unit : string;
  section : (string * string) option;
  ceiling : float;
  seed_us : float option;
  seed_words : float option;
  fine : bool;
  aside : (string * string) option;
  run : unit -> float * float * (string * float) list;
}

let row ?section ?seed_us ?seed_words ?(fine = false) ?aside ~ceiling label scale unit run =
  { label; scale; unit; section; ceiling; seed_us; seed_words; fine; aside; run }

let alloc () =
  section "Allocation: per-broadcast cost on the uniform pipeline (n = 1000, d = 12)";
  let reps = if !quick then 40 else 200 in
  let spec = Manet_topology.Spec.make ~n:1000 ~avg_degree:12. () in
  let sample =
    Manet_topology.Generator.sample_connected (Manet_rng.Rng.create ~seed:1005) spec
  in
  let bcast name mode_label mode ~ceiling ~seed:(seed_us, seed_words) =
    row ~seed_us ~seed_words ~ceiling name mode_label "broadcast" (fun () ->
        let us, words = alloc_broadcast ~reps sample.graph name mode_label mode in
        (us, words, []))
  in
  let sized ?(n = 1000) ?(d = 12) members (us, words) =
    (us, words, ("n", float_of_int n) :: ("avg_degree", float_of_int d) :: members)
  in
  let per_rep = sized [ ("reps", float_of_int reps) ] in
  let rows =
    [
      bcast "flooding" "perfect" Perfect ~ceiling:16_000. ~seed:(4548.7, 181_307.);
      bcast "flooding" "count" Perfect ~ceiling:5. ~seed:(302.3, 11_032.);
      bcast "static-2.5hop" "perfect" Perfect ~ceiling:9_000. ~seed:(2559.7, 94_252.);
      bcast "static-2.5hop" "count" Perfect ~ceiling:5. ~seed:(83.9, 18.);
      bcast "dynamic-2.5hop" "perfect" Perfect ~ceiling:5_720. ~seed:(4007.8, 440_236.);
      bcast "dynamic-2.5hop" "lossy-0.1" (Lossy 0.1) ~ceiling:11_450. ~seed:(5010.1, 451_774.);
      bcast "dynamic-2.5hop" "count" Perfect ~ceiling:25. ~seed:(694.4, 35_223.);
      bcast "self-pruning" "perfect" Perfect ~ceiling:6_400. ~seed:(12632.8, 2_344_293.);
      bcast "dp" "count" Perfect ~ceiling:5_300. ~seed:(17165.1, 8_281_427.);
      row ~section:("per_build", "unit-disk-build") ~ceiling:1_000. ~seed_us:4772.
        ~seed_words:492_543. "unit-disk build" "n=1000" "build" (fun () ->
          per_rep (alloc_build ~reps sample));
      row ~section:("per_static_build", "static-backbone-build") ~ceiling:6_080. ~seed_us:550.8
        ~seed_words:76_790. "static build" "n=1000" "build" (fun () ->
          per_rep (alloc_static ~reps sample));
      row ~section:("per_coverage_sets", "coverage-sets-fresh-cache") ~ceiling:9_050.
        ~seed_us:508.8 ~seed_words:27_911. "coverage sets" "n=1000" "cache" (fun () ->
          per_rep (alloc_coverage ~reps sample));
      row ~section:("per_selection", "gateway-selection-per-head") ~ceiling:0. ~seed_us:1.85
        ~seed_words:210.89 ~fine:true "gateway selection" "n=1000" "head" (fun () ->
          per_rep (alloc_select ~reps sample));
      row ~section:("per_cluster", "lowest-id-cluster") ~ceiling:1_400. ~seed_us:239.4
        ~seed_words:19_220. "clustering" "n=1000" "cluster" (fun () ->
          per_rep (alloc_cluster ~reps sample));
      row ~section:("per_sample", "sample-connected") ~ceiling:11_500.
        ~aside:("attempts", "attempts_per_sample") "connected sample" "n=100 d=6" "sample"
        (fun () ->
          let us, words, attempts = alloc_sample () in
          sized ~n:100 ~d:6
            [ ("samples", float_of_int sample_count); ("attempts_per_sample", attempts) ]
            (us, words));
      row ~section:("per_update", "backbone-maintenance-update") ~ceiling:15_360. ~seed_us:8347.
        ~seed_words:543_562. "maintenance update" "n=1000" "update" (fun () ->
          sized [ ("steps", float_of_int maint_steps) ] (alloc_maint sample spec));
      row ~section:("per_arrival", "serving-arrival") ~ceiling:79. ~seed_words:1540.1
        "serving arrival" "n=200 d=12" "arrival" (fun () ->
          let us, words, arrivals = alloc_arrival () in
          sized ~n:200
            [
              ("arrival_rate", 50.);
              ("duration", arrival_duration);
              ("arrivals", float_of_int arrivals);
            ]
            (us, words));
      row ~section:("per_sweep_sample", "sweep-sample-fig8") ~ceiling:6_760. ~seed_us:371.2
        ~seed_words:28_150. "sweep sample" "n=60 d=18" "sample" (fun () ->
          sized ~n:60 ~d:18
            [ ("samples", float_of_int (intervals * sweep_samples)) ]
            (alloc_sweep ()));
    ]
  in
  let line = Printf.printf "%-18s %-10s %10s %10s %14s %14s %10s%s\n" in
  line "protocol" "mode" "us/bcast" "seed us" "words/bcast" "seed words" "ceiling" "";
  let failures = ref [] in
  let results, sections =
    List.partition_map
      (fun r ->
        let us, words, members = r.run () in
        let over = words > r.ceiling in
        let fixed digits x = Printf.sprintf "%.*f" digits x in
        let us_digits, words_digits = if r.fine then (2, 2) else (1, 0) in
        let aside_head, aside =
          match (r.seed_words, r.aside) with
          | Some w, _ -> ("seed words", fixed 0 w)
          | None, Some (head, key) -> (head, fixed 2 (List.assoc key members))
          | None, None -> ("", "")
        in
        let cells first second =
          line first second (fixed us_digits us)
            (Option.fold ~none:"" ~some:(fixed us_digits) r.seed_us)
            (fixed words_digits words) aside (fixed 0 r.ceiling)
            (if over then "  EXCEEDED" else "")
        in
        let seeded key f = Option.fold ~none:[] ~some:(fun s -> [ (key, num (f s)) ]) in
        let measured =
          [
            ("us_per_" ^ r.unit, num us);
            ("minor_words_per_" ^ r.unit, num words);
            ("ceiling_words", num r.ceiling);
          ]
          @ seeded ("seed_us_per_" ^ r.unit) Fun.id r.seed_us
          @ seeded ("seed_minor_words_per_" ^ r.unit) Fun.id r.seed_words
          @ seeded "speedup" (fun s -> s /. us) r.seed_us
          @ seeded "alloc_reduction" (fun s -> s /. words) r.seed_words
        in
        match r.section with
        | None ->
          cells r.label r.scale;
          if over then failures := Printf.sprintf "%s (%s)" r.label r.scale :: !failures;
          Either.Left
            (Json.Obj (("name", Json.Str r.label) :: ("mode", Json.Str r.scale) :: measured))
        | Some (key, name) ->
          print_newline ();
          line r.label r.scale ("us/" ^ r.unit)
            (if Option.is_some r.seed_us then "seed us" else "")
            ("words/" ^ r.unit) aside_head "ceiling" "";
          cells "" "";
          if over then failures := r.label :: !failures;
          let members = List.map (fun (k, v) -> (k, num v)) members in
          Either.Right (key, Json.Obj ((("name", Json.Str name) :: members) @ measured)))
      rows
  in
  merge_timing_json
    (( "per_broadcast",
       Json.Obj
         [
           ("n", int 1000);
           ("avg_degree", int 12);
           ("reps", int reps);
           ("results", Json.Arr results);
         ] )
    :: sections);
  if !failures <> [] then begin
    Printf.eprintf "alloc: minor-words ceiling exceeded: %s\n"
      (String.concat ", " (List.rev !failures));
    exit 1
  end

(* Sustained serving throughput of the continuous-traffic core
   (DESIGN.md §6g): one long-lived network, a Poisson broadcast stream
   under join/leave churn, the backbone maintained incrementally, every
   broadcast reusing one pre-sized arena, at n = 200, 1000 and 5000
   (d = 12).  Each floor is a hard bound on broadcasts served per CPU
   second at its size — dip below one and the bench exits nonzero,
   failing the CI smoke run.  Each sits about 3x under the slower
   --quick rates measured with the epoch certificate (about 210,000,
   49,000 and 5,600 broadcasts/s; 335,000, 76,000 and 8,700 on a
   quieter host, where a traversal per arrival read 140,000, 23,500 and
   2,900), so only a structural regression (per-arrival allocation,
   arena regrowth, whole-graph work per broadcast) can cross it;
   machine-to-machine noise cannot.  The traversals column counts the
   arrivals that still ran one.  The larger networks serve shorter
   streams, so the --quick run stays within a few seconds. *)
let traffic_cases =
  (* n, quick duration, full duration, warmup, floor (broadcasts/s) *)
  [ (200, 40., 200., 2., 70_000.); (1000, 10., 40., 1., 16_000.); (5000, 4., 12., 1., 1_900.) ]

let traffic () =
  section "Traffic: sustained serving throughput (d = 12)";
  let module Workload = Manet_experiment.Workload in
  Printf.printf "%-6s %10s %10s %8s %12s %10s %12s %10s\n" "n" "broadcasts" "traversals" "churn"
    "maint msgs" "wall s" "bcast/s" "floor";
  let rows =
    List.map
      (fun (n, quick_duration, full_duration, warmup, floor) ->
        let topo = Manet_topology.Spec.make ~n ~avg_degree:12. () in
        let sample =
          Manet_topology.Generator.sample_connected (Manet_rng.Rng.create ~seed:2027) topo
        in
        let duration = if !quick then quick_duration else full_duration in
        let w =
          Workload.make ~arrival_rate:50. ~duration ~warmup ~join_rate:0.4 ~leave_rate:0.4 ()
        in
        let t0 = Sys.time () in
        let served =
          Workload.serve
            ~rng:(Manet_rng.Rng.create ~seed:4242)
            ~points:sample.Manet_topology.Generator.points
            ~radius:sample.Manet_topology.Generator.radius ~spec:topo w
        in
        let dt = Sys.time () -. t0 in
        let stats = served.Workload.stats in
        let bps = float_of_int stats.Workload.broadcasts /. dt in
        Printf.printf "%-6d %10d %10d %8d %12d %10.2f %12.0f %10.0f%s\n" n stats.Workload.broadcasts
          served.Workload.traversals stats.Workload.churn_events stats.Workload.maintenance_messages
          dt bps floor
          (if bps < floor then "  BELOW FLOOR" else "");
        (n, duration, served, dt, bps, floor))
      traffic_cases
  in
  merge_timing_json
    [
      ( "traffic",
        Json.Obj
          [
            ("avg_degree", int 12);
            ("arrival_rate", int 50);
            ( "results",
              Json.Arr
                (List.map
                   (fun (n, duration, { Workload.stats; traversals }, dt, bps, floor) ->
                     Json.Obj
                       [
                         ("n", int n);
                         ("duration", num duration);
                         ("broadcasts", int stats.broadcasts);
                         ("traversals", int traversals);
                         ("churn_events", int stats.churn_events);
                         ("maintenance_messages", int stats.maintenance_messages);
                         ("wall_s", num dt);
                         ("broadcasts_per_sec", num bps);
                         ("floor_broadcasts_per_sec", num floor);
                       ])
                   rows) );
          ] );
    ];
  let below = List.filter (fun (_, _, _, _, bps, floor) -> bps < floor) rows in
  if below <> [] then begin
    List.iter
      (fun (n, _, _, _, bps, floor) ->
        Printf.eprintf "traffic: n=%d sustained throughput %.0f broadcasts/s below the %.0f floor\n"
          n bps floor)
      below;
    exit 1
  end

(* Scalability: wall-clock of each construction as n grows an order of
   magnitude past the paper's largest network, at fixed density. *)
let timing_scale () =
  section "Timing: construction scalability (CPU seconds, fixed d = 12)";
  Printf.printf "%8s %10s %12s %12s %12s %14s\n" "n" "sample" "clustering" "static-2.5"
    "dynamic bc" "us per node";
  let rows = ref [] in
  List.iter
    (fun n ->
      let rng = Manet_rng.Rng.create ~seed:(n + 5) in
      (* d = 12 keeps even the largest n safely above the connectivity
         threshold (~ln n), so rejection sampling stays cheap. *)
      let spec = Manet_topology.Spec.make ~n ~avg_degree:12. () in
      let time f =
        let t0 = Sys.time () in
        let r = f () in
        (Sys.time () -. t0, r)
      in
      let t_sample, sample = time (fun () -> Manet_topology.Generator.sample_connected rng spec) in
      let g = sample.Manet_topology.Generator.graph in
      let t_cluster, cl = time (fun () -> Manet_cluster.Lowest_id.cluster g) in
      let t_static, _ =
        time (fun () -> Manet_backbone.Static_backbone.build ~clustering:cl g Coverage.Hop25)
      in
      (* One registry broadcast on a fresh preparation, so the CH_HOP
         tables it builds on first use are part of the time. *)
      let dynamic = Manet_protocols.Registry.find_exn "dynamic-2.5hop" in
      let t_dynamic, _ =
        time (fun () ->
            (dynamic.prepare (Protocol.make_env ~clustering:(lazy cl) g)).run ~source:0
              ~mode:Protocol.Perfect)
      in
      Printf.printf "%8d %10.3f %12.3f %12.3f %12.3f %14.1f\n" n t_sample t_cluster t_static
        t_dynamic
        (1e6 *. t_static /. float_of_int n);
      rows := (n, t_sample, t_cluster, t_static, t_dynamic) :: !rows)
    [ 100; 300; 1000; 3000; 10000 ];
  Option.iter
    (fun dir ->
      write_json ~dir ~name:"BENCH_scale.json"
        (Json.Obj
           [
             ("avg_degree", int 12);
             ( "results",
               Json.Arr
                 (List.rev_map
                    (fun (n, ts, tc, tst, td) ->
                      Json.Obj
                        [
                          ("n", int n);
                          ("sample_s", num ts);
                          ("clustering_s", num tc);
                          ("static_s", num tst);
                          ("dynamic_s", num td);
                        ])
                    !rows) );
           ]))
    !json_dir

let experiments =
  List.map (fun (name, title) -> (name, fun () -> run_builtin title name)) figures
  @ [ ("timing", timing); ("timing-scale", timing_scale); ("alloc", alloc); ("traffic", traffic) ]

let usage oc =
  output_string oc
    "usage: main.exe [--quick] [--csv DIR] [--json DIR] [--domains N] [experiment ...]\n\
     experiments:\n";
  List.iter (fun (name, _) -> Printf.fprintf oc "  %s\n" name) experiments;
  output_string oc "  all (default)\n"

(* Bad arguments exit with code 2 and the usage message, before any
   experiment has run. *)
let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "main.exe: %s\n" msg;
      usage stderr;
      exit 2)
    fmt

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let is_flag a = String.length a > 0 && a.[0] = '-' in
  let rec parse acc = function
    | [] -> List.rev acc
    | "--quick" :: rest ->
      quick := true;
      parse acc rest
    | "--alloc" :: rest ->
      (* Alias for the alloc experiment, so CI can say `bench --alloc`. *)
      parse ("alloc" :: acc) rest
    | "--csv" :: dir :: rest when not (is_flag dir) ->
      csv_dir := Some dir;
      parse acc rest
    | "--json" :: dir :: rest when not (is_flag dir) ->
      json_dir := Some dir;
      parse acc rest
    | (("--csv" | "--json") as flag) :: _ -> usage_error "%s needs a DIR" flag
    | "--domains" :: k :: rest -> (
      match int_of_string_opt k with
      | Some d when d >= 1 ->
        domains := d;
        parse acc rest
      | Some _ | None -> usage_error "--domains needs a positive integer, got %S" k)
    | [ "--domains" ] -> usage_error "--domains needs a positive integer"
    | ("--help" | "-h") :: _ ->
      usage stdout;
      exit 0
    | name :: rest ->
      if name <> "all" && not (List.mem_assoc name experiments) then
        usage_error "unknown experiment: %s" name;
      parse (name :: acc) rest
  in
  let selected = parse [] args in
  let selected = if selected = [] then [ "all" ] else selected in
  List.iter
    (fun name ->
      if name = "all" then List.iter (fun (_, f) -> f ()) experiments
      else (List.assoc name experiments) ())
    selected
