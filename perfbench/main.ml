(* The repository's benchmark: one workload per process, timed end to
   end, with an optional traced replay for the per-layer split.

   Usage (from the repository root, after `dune build`):
     _build/default/perfbench/main.exe --workload serve-churn --seed 42 --seconds 20 --trace 0
     _build/default/perfbench/main.exe --smoke --data perfbench --benchmark BENCHMARK.json

   Every workload is a batch run over strict-codec scenario files under
   workloads/, executed through [Runner.run] on one domain exactly as
   `manet run FILE` would.  Arrivals in the serving workloads are
   open-loop in simulated time, so a slower program does the same work
   and only takes longer.  A run first executes the workload once at the
   default seed — the warm-up, checked against the goldens, and where
   allocation and retained memory are measured — then once untimed at
   --seed as the reference, then timed reps at --seed until --seconds
   have passed, with a full major collection before each and the host's
   reference kernel timed between them; the time metrics are medians
   over reps, a rep's wall time rescaled by the kernel's (see Host
   speed).  The last line of standard output is
   one JSON object with the verdict and the metrics. *)

module Rng = Manet_rng.Rng
module Scenario = Manet_experiment.Scenario
module Runner = Manet_experiment.Runner
module Render = Manet_experiment.Render
module Json = Manet_experiment.Json
module Metric = Manet_experiment.Metric
module Sweep = Manet_experiment.Sweep
module Workload = Manet_experiment.Workload
module Summary = Manet_stats.Summary
module Static = Manet_backbone.Static_backbone
module Protocol = Manet_broadcast.Protocol
module Result = Manet_broadcast.Result

(* Why each workload exists is recorded in README.md and BENCHMARK.json. *)
type workload = { name : string; files : string list; journal : bool }

let workloads =
  [
    { name = "serve-churn"; files = [ "serve-churn.json" ]; journal = false };
    { name = "serve-mobile"; files = [ "serve-mobile.json" ]; journal = false };
    { name = "sweep-paper"; files = [ "fig6.json"; "fig7.json"; "fig8.json" ]; journal = true };
    { name = "sweep-scale"; files = [ "sweep-scale.json" ]; journal = false };
  ]

let default_seed = 42

type config = {
  workload : workload;
  seed : int;
  seconds : float;
  data : string;
  out : string;
  smoke : bool;
}

exception Bench_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Bench_error m)) fmt

(* {1 Inputs} *)

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error m -> fail "cannot read %s: %s" path m

(* The smoke transform: the same series on one small point, two
   samples, and a serving stream a few time units long. *)
let shrink (s : Scenario.t) =
  let workload =
    Option.map
      (fun (w : Workload.spec) ->
        Workload.make ~warmup:1. ~join_rate:w.join_rate ~leave_rate:w.leave_rate ~sources:w.sources
          ~maintenance_every:w.maintenance_every ~arrival_rate:w.arrival_rate ~duration:4. ())
      s.workload
  in
  {
    s with
    topology = { s.topology with ns = [ min 200 (List.hd s.topology.ns) ]; degrees = [ List.hd s.topology.degrees ] };
    stopping = { Scenario.min_samples = 2; max_samples = 2; rel_precision = 0.5 };
    workload;
  }

let load cfg file =
  let path = Filename.concat (Filename.concat cfg.data "workloads") file in
  match Scenario.of_string (read_file path) with
  | Error m -> fail "%s: %s" path m
  | Ok s ->
    if s.domains <> 1 then fail "%s: the benchmark runs on one domain" path;
    let s = { s with seed = cfg.seed } in
    if cfg.smoke then shrink s else s

let journal_path cfg (s : Scenario.t) = Filename.concat cfg.out (s.name ^ ".jsonl")

let csv_name (s : Scenario.t) d =
  let base = String.map (fun c -> if c = '-' then '_' else c) s.name in
  if List.length s.topology.degrees = 1 then base else Printf.sprintf "%s_d%g" base d

let first_spec (s : Scenario.t) =
  Manet_topology.Spec.make ~width:s.topology.width ~height:s.topology.height ~n:(List.hd s.topology.ns)
    ~avg_degree:(List.hd s.topology.degrees) ()

(* {1 Set-up}

   What a run pays before its first result: loading, parsing and
   compiling the scenarios; for a serving workload also the loop's fixed
   cost — the initial placement and a stream of duration 1e-6, which
   builds the first snapshot, the maintained backbone and the pre-sized
   environment.  Creating the journal is left to [Runner.run], which
   does it in every rep: timed here, its file truncation and flush made
   set-up swing by 2x between runs. *)
let setup cfg =
  let scenarios = List.map (load cfg) cfg.workload.files in
  List.iter
    (fun (s : Scenario.t) ->
      ignore (Scenario.compile s);
      match s.workload with
      | None -> ()
      | Some w ->
        let spec = first_spec s in
        let rng = Rng.create ~seed:s.seed in
        let sample = Manet_topology.Generator.sample_connected rng spec in
        let fixed =
          Workload.make ~join_rate:w.join_rate ~leave_rate:w.leave_rate ~sources:w.sources
            ~maintenance_every:w.maintenance_every ~arrival_rate:w.arrival_rate ~duration:1e-6 ()
        in
        ignore
          (Workload.run ?motion:(Replay.motion s) ~rng:(Rng.split rng) ~points:sample.points ~radius:sample.radius
             ~spec fixed))
    scenarios;
  scenarios

(* {1 Reps} *)

(* Every cell of every table, bit for bit: what reps and the replay are
   compared on. *)
let fingerprint scenarios tables =
  List.concat
    (List.map2
       (fun (s : Scenario.t) ts ->
         List.map
           (fun (t : Sweep.table) ->
             ( csv_name s t.d,
               List.map
                 (fun (p : Sweep.point) ->
                   ( p.n,
                     p.samples,
                     List.map
                       (fun (name, (c : Sweep.cell)) ->
                         ( name,
                           Summary.mean c.summary,
                           Summary.ci_half_width c.summary ~z:Manet_stats.Confidence.z99,
                           c.converged ))
                       p.cells ))
                 t.points ))
           ts)
       scenarios tables)

let write_csvs cfg scenarios tables =
  List.iter2
    (fun (s : Scenario.t) ts ->
      List.iter
        (fun (t : Sweep.table) ->
          Render.write_csv ~path:(Filename.concat cfg.out (csv_name s t.d ^ ".csv")) t)
        ts)
    scenarios tables

(* One rep: [run] is [Runner.run], or its traced replay. *)
let rep ~run cfg scenarios =
  let tables =
    List.map
      (fun s -> run (if cfg.workload.journal then Some (journal_path cfg s) else None) s)
      scenarios
  in
  write_csvs cfg scenarios tables;
  tables

let run_untraced journal s = Runner.run ?journal s
let run_traced journal s = Replay.run ?journal s

(* {1 Correctness} *)

(* Goldens are MD5 digests of the CSVs at the default seed and full
   size; the sweep-paper digests are those of results/fig*_d*.csv. *)
let goldens cfg =
  read_file (Filename.concat cfg.data "golden.txt")
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' (String.trim line) with
         | [ w; table; digest ] when w <> "" && w.[0] <> '#' -> Some ((w, table), digest)
         | _ -> None)

let check_golden cfg scenarios tables =
  if not cfg.smoke then begin
    let known = goldens cfg in
    List.iter2
      (fun (s : Scenario.t) ts ->
        List.iter
          (fun (t : Sweep.table) ->
            let table = csv_name s t.d in
            let got = Digest.to_hex (Digest.string (Render.to_csv t)) in
            match List.assoc_opt (cfg.workload.name, table) known with
            | None -> fail "no golden digest for %s %s (computed %s)" cfg.workload.name table got
            | Some digest ->
              if got <> digest then fail "%s: CSV digest %s differs from golden %s" table got digest)
          ts)
      scenarios tables
  end

(* Invariants that hold at every seed: every sample count within the
   stopping bounds and every cell mean finite and non-negative. *)
let check_tables scenarios tables =
  List.iter2
    (fun (s : Scenario.t) ts ->
      List.iter
        (fun (t : Sweep.table) ->
          List.iter
            (fun (p : Sweep.point) ->
              if p.samples < s.stopping.min_samples || p.samples > s.stopping.max_samples then
                fail "%s n=%d: %d samples outside the stopping bounds" s.name p.n p.samples;
              List.iter
                (fun (name, (c : Sweep.cell)) ->
                  let m = Summary.mean c.summary in
                  if not (Float.is_finite m && m >= 0.) then fail "%s n=%d: %s mean %g" s.name p.n name m)
                p.cells)
            t.points)
        ts)
    scenarios tables

(* Oracles on one context drawn from the seed, independent of the
   tables: a serving stream's maintained backbone equals a from-scratch
   rebuild at every maintenance event, and every broadcast series
   delivers to every node of a connected graph over a structure that is
   a connected dominating set. *)
let check_oracles (s : Scenario.t) =
  let spec = first_spec s in
  let ctx = Metric.draw ?perturb:s.mobility (Rng.create ~seed:s.seed) spec in
  (match s.workload with
  | None -> ()
  | Some w ->
    let probe (p : Workload.probe) =
      let live = p.backbone in
      let fresh = Static.build ~clustering:live.clustering p.graph live.mode in
      for v = 0 to Manet_graph.Graph.n p.graph - 1 do
        if Static.in_backbone live v <> Static.in_backbone fresh v then
          fail "%s t=%g: maintained backbone differs from a rebuild at node %d" s.name p.time v
      done
    in
    let st =
      Workload.run ?motion:(Replay.motion s) ~on_maintenance:probe ~rng:(Rng.split ctx.rng) ~points:ctx.points
        ~radius:ctx.radius ~spec w
    in
    if st.broadcasts = 0 || not (st.delivery > 0. && st.delivery <= 1.) then
      fail "%s: served %d broadcasts with delivery %g" s.name st.broadcasts st.delivery);
  List.iter
    (function
      | Scenario.Forwards { protocol; _ } | Scenario.Structure_size { protocol; _ } ->
        let built = (Manet_protocols.Registry.find_exn protocol).prepare (Metric.env_of ctx) in
        let r, _ = built.run ~source:ctx.source ~mode:Protocol.Perfect in
        if not (Result.all_delivered r) then fail "%s: %s left nodes undelivered" s.name protocol;
        Option.iter
          (fun m ->
            if not (Manet_graph.Dominating.is_cds ctx.graph m) then
              fail "%s: %s built a structure that is not a CDS" s.name protocol)
          built.members
      | _ -> ())
    s.metrics

(* {1 Measurement} *)

let now_s () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Quartiles as Python's statistics.quantiles(n=4) (exclusive method). *)
let iqr xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n < 2 then 0.
  else
    let q p =
      let m = p *. float_of_int (n + 1) in
      let j = max 1 (min (n - 1) (int_of_float m)) in
      let delta = m -. float_of_int j in
      a.(j - 1) +. ((a.(j) -. a.(j - 1)) *. delta)
    in
    q 0.75 -. q 0.25

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
  spread : (string * float * int) list;  (** IQR and count behind each median *)
  note : string;
}

(* Set-up is timed in batches: each repeats it until a batch has lasted
   [setup_batch_s], so that the median of [setup_batches] batch means is
   not at the mercy of the clock's resolution on the workloads whose
   set-up takes microseconds. *)
let setup_batches = 21
let setup_batch_s = 0.02

let setup_time cfg =
  Gc.full_major ();
  let t0 = now_s () in
  let rec go k =
    ignore (setup cfg);
    let dt = now_s () -. t0 in
    if dt < setup_batch_s then go (k + 1) else dt /. float_of_int k
  in
  go 1

(* Traced reps per traced run: a fixed number, so that every per-layer
   value is a per-rep figure drawn from a call pool of the same size on
   every commit, however fast the code runs. *)
let traced_reps = 3

let timed f =
  Gc.full_major ();
  let t0 = now_s () in
  let r = f () in
  (r, now_s () -. t0)

(* {1 Host speed}

   The host is shared, and its speed drifts by 10-20% over tens of
   seconds as its other tenants come and go; between runs that drift,
   not the program, made most of the spread of wall time.  A reference
   kernel of the benchmark's own — no library code, so no change to the
   library moves it — is timed before and after every rep, and the rep's
   wall time is rescaled by the mean of the two: [wall_ref_s] is what the
   rep would take on a host where the kernel takes [reference_kernel_s].
   The kernel mixes what the workloads do: integer arithmetic, random
   reads and writes of a 2 MB array, a dependent walk through 32 MB and
   short-lived allocation with some promotion.  Its arrays live outside
   the OCaml heap, so that they add nothing to the workloads' collections.
   Set-up is rescaled the same way, by the kernel timed before and after
   its batches. *)

module Ints = Bigarray.Array1

let reference_kernel_s = 0.1
let small_n = 1 lsl 18
let big_n = 1 lsl 22

let kernel_arrays =
  lazy
    (let make n f =
       let a = Ints.create Bigarray.int Bigarray.c_layout n in
       for i = 0 to n - 1 do
         Ints.unsafe_set a i (f i)
       done;
       a
     in
     ( make small_n (fun i -> (i * 2654435761) land 0xffffff),
       make big_n (fun i -> ((i * 2654435761) + 12345) land (big_n - 1)) ))

let kernel () =
  let small, big = Lazy.force kernel_arrays in
  let x = ref 1 in
  for i = 1 to 10_000_000 do
    x := ((!x * 1103515245) + i) land 0xffffffff;
    x := !x lxor (!x lsr 13)
  done;
  let acc = ref 0 in
  for r = 1 to 5 do
    for i = 0 to small_n - 1 do
      let j = ((i * 7919) + !acc + r) land (small_n - 1) in
      acc := (!acc + Ints.unsafe_get small j) land 0xffffff;
      Ints.unsafe_set small j (!acc lxor i)
    done
  done;
  let p = ref 0 in
  for _ = 1 to 1_200_000 do
    p := Ints.unsafe_get big !p;
    Ints.unsafe_set big !p (((!p * 7) + 1) land (big_n - 1))
  done;
  let keep = Array.make 4096 [] in
  for i = 0 to 350_000 do
    let k = i land 4095 in
    keep.(k) <- (i, float_of_int i) :: (if i land 31 = 0 then [] else keep.(k))
  done;
  ignore (Sys.opaque_identity (!x, !acc, !p, keep))

let kernel_s () =
  ignore (Lazy.force kernel_arrays);
  Gc.full_major ();
  let t0 = now_s () in
  kernel ();
  now_s () -. t0

let live_words () = (Gc.stat ()).live_words

(* The canonical rep: the workload at the default seed, whatever --seed
   says.  It is the process's warm-up and is checked against the
   goldens; allocation is counted over it, so that a change is compared
   on the same input at every seed and to the exact word.  Only the
   outcome leaves this function, so that the tables are garbage by the
   time retained memory is read. *)
let canonical_rep cfg canonical check =
  let w0 = Gc.minor_words () in
  let tables = rep ~run:run_untraced cfg canonical in
  let words = Gc.minor_words () -. w0 in
  check (fun () -> check_golden cfg canonical tables);
  check (fun () -> check_tables canonical tables);
  (fingerprint canonical tables, words)

let measure cfg ~trace =
  if not (Sys.file_exists cfg.out) then Sys.mkdir cfg.out 0o755;
  let problems = ref [] in
  let check f =
    try f () with
    | Bench_error m -> problems := m :: !problems
    | e -> problems := Printexc.to_string e :: !problems
  in
  let canonical_cfg = { cfg with seed = default_seed } in
  let canonical = setup canonical_cfg in
  (* Retained memory is what the canonical rep leaves live beyond the
     benchmark's own data: the arenas, pools and caches the library keeps
     between jobs.  The peak heap size would be the other choice, but it
     follows the collector's pacing: it moved by half between seeds and
     by 5x when unrelated code ran earlier. *)
  let live0 = live_words () in
  let canonical_fp, words = canonical_rep cfg canonical check in
  let retained_mb = float_of_int ((live_words () - live0) * (Sys.word_size / 8)) /. 1e6 in
  (* A traced run reports no end-to-end time, so it skips the kernel. *)
  let host_s () = if trace then nan else kernel_s () in
  let rescale host t = t *. reference_kernel_s /. host in
  (* Set-up is timed on the canonical input too, after the warm-up, on a
     busy processor: timed first, its few milliseconds would run at
     whatever clock speed the processor idled at; at --seed, the serving
     workloads' initial placement needs one or several draws depending on
     the seed, which moved set-up by 2x between seeds. *)
  let k0 = host_s () in
  let setups = List.init setup_batches (fun _ -> setup_time canonical_cfg) in
  let setups = List.map (rescale ((k0 +. host_s ()) /. 2.)) setups in
  (* Nothing at --seed runs before this point, so allocation, retained
     memory and set-up see the same input and heap at every seed. *)
  let scenarios = if cfg.seed = default_seed then canonical else setup cfg in
  (* The reference every timed rep must reproduce: the canonical rep
     itself at the default seed, otherwise one untimed rep at --seed. *)
  let expected =
    if cfg.seed = default_seed then canonical_fp
    else begin
      let tables = rep ~run:run_untraced cfg scenarios in
      check (fun () -> check_tables scenarios tables);
      fingerprint scenarios tables
    end
  in
  List.iter (fun s -> check (fun () -> check_oracles s)) scenarios;
  let before = ref (host_s ()) in
  let walls = ref [] and scaled = ref [] and traced = ref [] and attempts = ref 0 and failed = ref 0 in
  let mismatched = ref 0 and traced_ns = ref 0 in
  Trace.reset ();
  let start = now_s () in
  let untraced_rep () =
    incr attempts;
    let outcome = try Ok (timed (fun () -> rep ~run:run_untraced cfg scenarios)) with e -> Error e in
    let after = host_s () in
    let host = (!before +. after) /. 2. in
    before := after;
    match outcome with
    | Ok (tables, wall) ->
      if fingerprint scenarios tables <> expected then incr failed;
      walls := wall :: !walls;
      scaled := rescale host wall :: !scaled
    | Error e ->
      prerr_endline ("rep failed: " ^ Printexc.to_string e);
      incr failed
  in
  let traced_rep () =
    Gc.full_major ();
    let t0 = Trace.now_ns () in
    match rep ~run:run_traced cfg scenarios with
    | tables ->
      let dt = Trace.now_ns () - t0 in
      traced_ns := !traced_ns + dt;
      traced := (float_of_int dt /. 1e9) :: !traced;
      if fingerprint scenarios tables <> expected then incr mismatched
    | exception e ->
      prerr_endline ("traced rep failed: " ^ Printexc.to_string e);
      traced := nan :: !traced;
      incr mismatched
  in
  let want_traced = if trace then traced_reps else 0 in
  while !attempts = 0 || now_s () -. start < cfg.seconds || List.length !traced < want_traced do
    untraced_rep ();
    if List.length !traced < want_traced then traced_rep ()
  done;
  List.iter (fun m -> prerr_endline ("check failed: " ^ m)) (List.rev !problems);
  (* A wrong reference makes every rep that reproduced it wrong too. *)
  let failed = if !problems = [] then !failed else !attempts in
  let walls = !walls in
  let e2e =
    [
      ("setup_s", setups, "s");
      ("wall_ref_s", !scaled, "s");
      ("alloc_mwords", [ words /. 1e6 ], "Mwords");
      ("retained_mb", [ retained_mb ], "MB");
    ]
  in
  let metrics, spread =
    if not trace then
      ( List.map (fun (name, xs, unit) -> (name, median xs, unit)) e2e,
        List.map (fun (name, xs, _) -> (name, iqr xs, List.length xs)) e2e )
    else
      ( Trace.metrics ~wall_ns:!traced_ns ~reps:traced_reps ~traced_median_s:(median !traced)
          ~untraced_median_s:(median walls) ~matched:(!mismatched = 0),
        [] )
  in
  let finite = List.for_all (fun (_, v, _) -> Float.is_finite v) metrics in
  {
    correct = failed = 0 && !mismatched = 0 && finite;
    attempted = !attempts;
    failed;
    metrics;
    spread;
    note =
      Printf.sprintf "%s seed=%d: %d timed reps, median wall time %.4g s%s" cfg.workload.name cfg.seed
        (List.length walls) (median walls)
        (if trace then Printf.sprintf ", %d traced reps" (List.length !traced) else "");
  }

(* {1 Output} *)

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result r =
  print_endline r.note;
  List.iter
    (fun (name, v, unit) ->
      match List.find_opt (fun (n, _, _) -> n = name) r.spread with
      | Some (_, q, k) -> Printf.printf "  %-32s %16.6g %-9s (IQR %.3g, n=%d)\n" name v unit q k
      | None -> Printf.printf "  %-32s %16.6g %s\n" name v unit)
    r.metrics;
  let fields =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" (Json.escape_string name) (json_number v)
          (Json.escape_string unit))
      r.metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" r.correct
    r.attempted r.failed (String.concat ", " fields)

(* {1 Smoke test}

   Every workload at smoke size, untraced and traced: every metric named
   in BENCHMARK.json must be present and finite, the replay must match,
   and no rep may fail. *)
let benchmark_names path =
  let names section =
    match Json.parse (read_file path) with
    | Ok (Json.Obj fields) -> (
      match List.assoc_opt section fields with
      | Some (Json.Arr items) ->
        List.filter_map
          (function
            | Json.Obj f -> (match List.assoc_opt "name" f with Some (Json.Str s) -> Some s | _ -> None)
            | _ -> None)
          items
      | _ -> fail "%s: no %S list" path section)
    | Ok _ | Error _ -> fail "%s: not a JSON object" path
  in
  (names "end_to_end", names "per_layer")

let smoke ~data ~out ~benchmark =
  let e2e, per_layer = benchmark_names benchmark in
  let problems = ref [] in
  List.iter
    (fun workload ->
      let cfg = { workload; seed = default_seed; seconds = 0.; data; out; smoke = true } in
      List.iter
        (fun (trace, wanted) ->
          let r = measure cfg ~trace in
          let bad fmt = Printf.ksprintf (fun m -> problems := (workload.name ^ ": " ^ m) :: !problems) fmt in
          if not r.correct then bad "not correct";
          if r.failed <> 0 then bad "%d failed reps" r.failed;
          List.iter
            (fun name ->
              match List.find_opt (fun (n, _, _) -> n = name) r.metrics with
              | None -> bad "metric %s missing" name
              | Some (_, v, _) -> if not (Float.is_finite v) then bad "metric %s = %g" name v)
            wanted;
          if trace then
            match List.find_opt (fun (n, _, _) -> n = "trace.match") r.metrics with
            | Some (_, 1., _) -> ()
            | _ -> bad "traced replay does not match")
        [ (false, e2e); (true, per_layer) ];
      Printf.printf "smoke %s: ok\n%!" workload.name)
    workloads;
  match !problems with
  | [] -> ()
  | ps ->
    List.iter prerr_endline (List.rev ps);
    exit 1

(* {1 Command line} *)

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--data DIR] [--out DIR]\n\
    \       main.exe --smoke [--data DIR] [--out DIR] [--benchmark FILE]";
  prerr_endline ("workloads: " ^ String.concat ", " (List.map (fun w -> w.name) workloads));
  exit 2

let usage_error fmt = Printf.ksprintf (fun m -> prerr_endline ("error: " ^ m); usage ()) fmt

let int_arg flag v ~min =
  match int_of_string_opt v with
  | Some k when k >= min -> k
  | _ -> usage_error "%s expects an integer >= %d, got %S" flag min v

let () =
  let workload = ref None and seed = ref default_seed and seconds = ref 20 and trace = ref false in
  let data = ref "perfbench" and out = ref None and smoke_mode = ref false in
  let benchmark = ref "BENCHMARK.json" in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      (match List.find_opt (fun w -> w.name = v) workloads with
      | Some w -> workload := Some w
      | None -> usage_error "unknown workload %S" v);
      parse rest
    | "--seed" :: v :: rest ->
      seed := int_arg "--seed" v ~min:0;
      parse rest
    | "--seconds" :: v :: rest ->
      seconds := int_arg "--seconds" v ~min:1;
      parse rest
    | "--trace" :: v :: rest ->
      (match v with "0" -> trace := false | "1" -> trace := true | _ -> usage_error "--trace expects 0 or 1");
      parse rest
    | "--data" :: v :: rest ->
      data := v;
      parse rest
    | "--out" :: v :: rest ->
      out := Some v;
      parse rest
    | "--benchmark" :: v :: rest ->
      benchmark := v;
      parse rest
    | "--smoke" :: rest ->
      smoke_mode := true;
      parse rest
    | ("--help" | "-h") :: _ -> usage ()
    | arg :: _ -> usage_error "unexpected argument %S" arg
  in
  parse (List.tl (Array.to_list Sys.argv));
  let out = match !out with Some o -> o | None -> Filename.concat !data "out" in
  try
    if !smoke_mode then smoke ~data:!data ~out ~benchmark:!benchmark
    else
      match !workload with
      | None -> usage_error "--workload is required"
      | Some workload ->
        let cfg =
          { workload; seed = !seed; seconds = float_of_int !seconds; data = !data; out; smoke = false }
        in
        print_result (measure cfg ~trace:!trace)
  with
  | Bench_error m ->
    prerr_endline ("benchmark: " ^ m);
    exit 1
  | e ->
    prerr_endline ("benchmark: " ^ Printexc.to_string e);
    exit 1
