(* The scenario layer: codec strictness, parity of every builtin figure
   with the historical hand-coded sweeps, and journal-based resume. *)

module Figures = Manet_experiment.Figures
module Scenario = Manet_experiment.Scenario
module Runner = Manet_experiment.Runner
module Journal = Manet_experiment.Journal
module Json = Manet_experiment.Json
module Sweep = Manet_experiment.Sweep
module Metric = Manet_experiment.Metric
module Summary = Manet_stats.Summary
module Rng = Manet_rng.Rng
open Test_helpers

(* JSON substrate *)

let test_json_roundtrip () =
  List.iter
    (fun text ->
      match Json.parse text with
      | Error m -> Alcotest.failf "%s: %s" text m
      | Ok j -> (
        let printed = Json.print j in
        match Json.parse printed with
        | Error m -> Alcotest.failf "reparse %s: %s" printed m
        | Ok j' -> Alcotest.(check bool) (text ^ " round-trips") true (j = j')))
    [
      "null";
      "true";
      "[1, 2.5, -3e2, 0.1]";
      {|{"a": [], "b": {"c": "x\n\"y\"", "d": 1e-9}}|};
      {|"A\t"|};
    ]

let test_json_numbers () =
  (* Floats print shortest-exact: reparsing reproduces the bits. *)
  List.iter
    (fun f ->
      let s = Json.number_to_string f in
      Alcotest.(check bool)
        (Printf.sprintf "%h survives as %s" f s)
        true
        (float_of_string s = f))
    [ 0.1; 1. /. 3.; 1e300; -4.2e-7; 123456789.; 2. ]

let test_json_errors () =
  List.iter
    (fun (text, fragment) ->
      match Json.parse text with
      | Ok _ -> Alcotest.failf "%s unexpectedly parsed" text
      | Error m ->
        Alcotest.(check bool) (Printf.sprintf "%s -> %s" text m) true (contains m fragment))
    [ ("{", "byte"); ("[1,]", "byte"); ("\"ab", "byte"); ("{\"a\" 1}", "byte") ]

(* Scenario codec *)

let test_builtin_roundtrip () =
  List.iter
    (fun (name, s) ->
      match Scenario.of_string (Scenario.to_string s) with
      | Ok s' -> Alcotest.(check bool) (name ^ " round-trips") true (s = s')
      | Error m -> Alcotest.failf "%s: %s" name m)
    Figures.builtins

let test_full_roundtrip () =
  (* Every optional axis at once: mobility, loss, overrides, domains. *)
  let s =
    Scenario.make ~name:"everything" ~description:"all the knobs" ~seed:5 ~domains:3
      ~ns:[ 20; 40 ] ~width:120. ~height:80.
      ~mobility:
        {
          Metric.model = Manet_topology.Mobility.Random_direction;
          steps = 4;
          dt = 0.5;
          speed_min = 1.;
          speed_max = 2.;
          pause_time = 0.25;
        }
      ~loss:0.1
      ~stopping:{ Scenario.min_samples = 3; max_samples = 6; rel_precision = 0.4 }
      ~degrees:[ 6.; 9. ]
      [
        Scenario.Forwards { protocol = "flooding"; name = Some "flood"; loss = Some 0.2 };
        Scenario.Delivery { protocol = "mpr"; name = None; loss = None };
        Scenario.Structure_size
          { protocol = "static-2.5hop"; name = None; clustering = Some Scenario.Highest_degree };
        Scenario.Completion_time { protocol = "dp"; name = None };
        Scenario.Cluster_count { clustering = Scenario.Highest_degree };
        Scenario.Realized_degree;
        Scenario.Mcds_size;
        Scenario.Mcds_ratio { protocol = "greedy-cds"; name = None };
        Scenario.Construction_cost { field = Scenario.Total_per_hello; name = None };
      ]
  in
  (match Scenario.validate s with
  | Ok () -> ()
  | Error m -> Alcotest.failf "validate: %s" m);
  match Scenario.of_string (Scenario.to_string s) with
  | Ok s' -> Alcotest.(check bool) "round-trips" true (s = s')
  | Error m -> Alcotest.fail m

let base_json =
  {|{"version": 1, "name": "t", "seed": 1, "domains": 1,
     "topology": {"n": [20], "degree": [6]},
     "stopping": {"min_samples": 2, "max_samples": 4, "rel_precision": 0.5},
     "metrics": [{"kind": "forwards", "protocol": "flooding"}]}|}

let rejects text fragment =
  match Scenario.of_string text with
  | Ok _ -> Alcotest.failf "unexpectedly accepted (wanted %S)" fragment
  | Error m ->
    Alcotest.(check bool) (Printf.sprintf "message %S mentions %S" m fragment) true
      (contains m fragment)

let test_base_accepted () =
  match Scenario.of_string base_json with
  | Ok s -> Alcotest.(check string) "name" "t" s.Scenario.name
  | Error m -> Alcotest.fail m

let test_unknown_field () =
  rejects
    {|{"version": 1, "name": "t", "seed": 1, "bogus": 3,
       "topology": {"n": [20], "degree": [6]},
       "stopping": {"min_samples": 2, "max_samples": 4, "rel_precision": 0.5},
       "metrics": [{"kind": "forwards", "protocol": "flooding"}]}|}
    {|unknown field "bogus"|};
  rejects
    {|{"version": 1, "name": "t", "seed": 1,
       "topology": {"n": [20], "degree": [6], "radius": 9},
       "stopping": {"min_samples": 2, "max_samples": 4, "rel_precision": 0.5},
       "metrics": [{"kind": "forwards", "protocol": "flooding"}]}|}
    {|unknown field "radius"|};
  rejects
    {|{"version": 1, "name": "t", "seed": 1,
       "topology": {"n": [20], "degree": [6]},
       "stopping": {"min_samples": 2, "max_samples": 4, "rel_precision": 0.5},
       "metrics": [{"kind": "forwards", "protocol": "flooding", "clustering": "lowest-id"}]}|}
    {|unknown field "clustering"|}

let test_unknown_protocol () =
  rejects
    {|{"version": 1, "name": "t", "seed": 1,
       "topology": {"n": [20], "degree": [6]},
       "stopping": {"min_samples": 2, "max_samples": 4, "rel_precision": 0.5},
       "metrics": [{"kind": "forwards", "protocol": "warp-drive"}]}|}
    {|unknown protocol "warp-drive"|};
  (* the rejection lists what is registered *)
  rejects
    {|{"version": 1, "name": "t", "seed": 1,
       "topology": {"n": [20], "degree": [6]},
       "stopping": {"min_samples": 2, "max_samples": 4, "rel_precision": 0.5},
       "metrics": [{"kind": "forwards", "protocol": "warp-drive"}]}|}
    "flooding"

let test_bad_grids () =
  rejects
    {|{"version": 1, "name": "t", "seed": 1,
       "topology": {"n": [1, 20], "degree": [6]},
       "stopping": {"min_samples": 2, "max_samples": 4, "rel_precision": 0.5},
       "metrics": [{"kind": "forwards", "protocol": "flooding"}]}|}
    "every size must be >= 2";
  rejects
    {|{"version": 1, "name": "t", "seed": 1,
       "topology": {"n": [20], "degree": []},
       "stopping": {"min_samples": 2, "max_samples": 4, "rel_precision": 0.5},
       "metrics": [{"kind": "forwards", "protocol": "flooding"}]}|}
    "at least one target degree";
  rejects
    {|{"version": 1, "name": "t", "seed": 1,
       "topology": {"n": [20], "degree": [6]},
       "stopping": {"min_samples": 5, "max_samples": 4, "rel_precision": 0.5},
       "metrics": [{"kind": "forwards", "protocol": "flooding"}]}|}
    "must be >= stopping.min_samples";
  rejects
    {|{"version": 1, "name": "t", "seed": 1,
       "topology": {"n": [20], "degree": [6]},
       "stopping": {"min_samples": 2, "max_samples": 4, "rel_precision": 0.5},
       "metrics": [{"kind": "forwards", "protocol": "flooding"},
                   {"kind": "forwards", "protocol": "flooding"}]}|}
    "duplicate series label";
  rejects
    {|{"version": 3, "name": "t", "seed": 1,
       "topology": {"n": [20], "degree": [6]},
       "stopping": {"min_samples": 2, "max_samples": 4, "rel_precision": 0.5},
       "metrics": [{"kind": "forwards", "protocol": "flooding"}]}|}
    "unsupported version 3";
  rejects
    {|{"version": 1, "name": "t", "seed": 1,
       "topology": {"n": [20], "degree": [6]}, "loss": 1.5,
       "stopping": {"min_samples": 2, "max_samples": 4, "rel_precision": 0.5},
       "metrics": [{"kind": "forwards", "protocol": "flooding"}]}|}
    "outside [0, 1]";
  rejects
    {|{"version": 1, "name": "t", "seed": 1,
       "topology": {"n": [20], "degree": [6]},
       "stopping": {"min_samples": 2, "max_samples": 4, "rel_precision": 0.5},
       "metrics": [{"kind": "telepathy", "protocol": "flooding"}]}|}
    {|unknown metric kind "telepathy"|}

(* The failure-injection axis: codec round-trip of every spelling, and
   strict rejection of malformed or orphaned failure events. *)

let test_failures_roundtrip () =
  let s =
    Scenario.make ~name:"resilience-knobs" ~description:"kill, heal, any-node scope" ~seed:5
      ~ns:[ 20 ] ~degrees:[ 6. ]
      ~failures:{ Metric.kill = 2; round = 3; heal = Some 7; backbone_only = false }
      ~stopping:{ Scenario.min_samples = 2; max_samples = 4; rel_precision = 0.5 }
      [
        Scenario.Failure_delivery { protocol = "kmcds-k2m2"; name = None; loss = Some 0.1 };
        Scenario.Reconnection_rounds { protocol = "kmcds-k2m2"; name = Some "rc" };
        Scenario.Redundancy { protocol = "static-2.5hop"; name = None };
      ]
  in
  (match Scenario.validate s with
  | Ok () -> ()
  | Error m -> Alcotest.failf "validate: %s" m);
  (match Scenario.of_string (Scenario.to_string s) with
  | Ok s' -> Alcotest.(check bool) "round-trips" true (s = s')
  | Error m -> Alcotest.fail m);
  (* The backbone scope is the default and round-trips implicitly. *)
  let s = { s with Scenario.failures = Some { Metric.kill = 1; round = 0; heal = None; backbone_only = true } } in
  match Scenario.of_string (Scenario.to_string s) with
  | Ok s' -> Alcotest.(check bool) "backbone scope round-trips" true (s = s')
  | Error m -> Alcotest.fail m

let test_failures_rejections () =
  rejects
    {|{"version": 1, "name": "t", "seed": 1,
       "topology": {"n": [20], "degree": [6]},
       "stopping": {"min_samples": 2, "max_samples": 4, "rel_precision": 0.5},
       "metrics": [{"kind": "failure-delivery", "protocol": "kmcds-k2m2"}]}|}
    {|needs the scenario-level "failures" event|};
  rejects
    {|{"version": 1, "name": "t", "seed": 1,
       "topology": {"n": [20], "degree": [6]},
       "failures": {"kill": 0, "round": 1},
       "stopping": {"min_samples": 2, "max_samples": 4, "rel_precision": 0.5},
       "metrics": [{"kind": "failure-delivery", "protocol": "kmcds-k2m2"}]}|}
    "failures.kill";
  rejects
    {|{"version": 1, "name": "t", "seed": 1,
       "topology": {"n": [20], "degree": [6]},
       "failures": {"kill": 1, "round": 5, "heal": 5},
       "stopping": {"min_samples": 2, "max_samples": 4, "rel_precision": 0.5},
       "metrics": [{"kind": "failure-delivery", "protocol": "kmcds-k2m2"}]}|}
    "failures.heal";
  rejects
    {|{"version": 1, "name": "t", "seed": 1,
       "topology": {"n": [20], "degree": [6]},
       "failures": {"kill": 1, "round": 1, "scope": "everywhere"},
       "stopping": {"min_samples": 2, "max_samples": 4, "rel_precision": 0.5},
       "metrics": [{"kind": "failure-delivery", "protocol": "kmcds-k2m2"}]}|}
    "scope";
  rejects
    {|{"version": 1, "name": "t", "seed": 1,
       "topology": {"n": [20], "degree": [6]},
       "failures": {"kill": 1, "round": 1, "blast_radius": 3},
       "stopping": {"min_samples": 2, "max_samples": 4, "rel_precision": 0.5},
       "metrics": [{"kind": "failure-delivery", "protocol": "kmcds-k2m2"}]}|}
    {|unknown field "blast_radius"|}

(* The continuous-traffic axis (codec version 2): round-trip of every
   workload knob, version gating of the new object, and strict
   rejection of malformed or orphaned workloads. *)

let test_workload_roundtrip () =
  let w =
    Manet_experiment.Workload.make ~arrival_rate:20. ~duration:50. ~warmup:5. ~join_rate:0.3
      ~leave_rate:0.2 ~sources:4 ~maintenance_every:2. ()
  in
  let s =
    Scenario.make ~name:"traffic-knobs" ~description:"every workload field" ~seed:7 ~ns:[ 20 ]
      ~degrees:[ 6. ] ~workload:w
      ~stopping:{ Scenario.min_samples = 2; max_samples = 4; rel_precision = 0.5 }
      [
        Scenario.Workload_throughput { name = None };
        Scenario.Workload_maintenance { name = Some "maint" };
        Scenario.Workload_staleness { name = None };
        Scenario.Workload_delivery { name = None };
      ]
  in
  (match Scenario.validate s with
  | Ok () -> ()
  | Error m -> Alcotest.failf "validate: %s" m);
  let text = Scenario.to_string s in
  (* A workload-bearing scenario must declare the v2 codec... *)
  Alcotest.(check bool) "emitted as version 2" true (contains text {|"version": 2|});
  (match Scenario.of_string text with
  | Ok s' -> Alcotest.(check bool) "round-trips" true (s = s')
  | Error m -> Alcotest.fail m);
  (* ...while workload-free scenarios keep their byte-stable v1 files. *)
  Alcotest.(check bool) "workload-free stays version 1" true
    (contains (Scenario.to_string (Figures.builtin_exn "fig6")) {|"version": 1|})

(* A period that cannot advance the clock (duration +. p = duration)
   would re-fire at one instant forever; the codec must refuse it with a
   parse error naming the field, never hang.  A zero maintenance period
   (maintenance off) stays valid. *)
let test_workload_stalled_clock () =
  let scenario ~mobility ~workload =
    Printf.sprintf
      {|{"version": 2, "name": "t", "seed": 1,
         "topology": {"n": [30], "degree": [6]},%s
         "workload": {%s},
         "stopping": {"min_samples": 2, "max_samples": 4, "rel_precision": 0.5},
         "metrics": [{"kind": "workload-throughput"}]}|}
      mobility workload
  in
  let stream = {|"arrival_rate": 10, "duration": 2|} in
  rejects
    (scenario ~mobility:"" ~workload:(stream ^ {|, "maintenance_every": 1e-300|}))
    "maintenance_every";
  rejects
    (scenario
       ~mobility:
         {|"mobility": {"model": "random-waypoint", "steps": 0, "dt": 1e-300,
                        "speed_min": 0, "speed_max": 1},|}
       ~workload:stream)
    "mobility.dt";
  match
    Scenario.of_string (scenario ~mobility:"" ~workload:(stream ^ {|, "maintenance_every": 0|}))
  with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "maintenance_every = 0 rejected: %s" m

let test_workload_rejections () =
  rejects
    {|{"version": 1, "name": "t", "seed": 1,
       "topology": {"n": [20], "degree": [6]},
       "workload": {"arrival_rate": 10, "duration": 5},
       "stopping": {"min_samples": 2, "max_samples": 4, "rel_precision": 0.5},
       "metrics": [{"kind": "workload-throughput"}]}|}
    {|"workload" requires version 2|};
  rejects
    {|{"version": 2, "name": "t", "seed": 1,
       "topology": {"n": [20], "degree": [6]},
       "workload": {"arrival_rate": 10, "duration": 5, "bandwidth": 3},
       "stopping": {"min_samples": 2, "max_samples": 4, "rel_precision": 0.5},
       "metrics": [{"kind": "workload-throughput"}]}|}
    {|unknown field "bandwidth"|};
  rejects
    {|{"version": 2, "name": "t", "seed": 1,
       "topology": {"n": [20], "degree": [6]},
       "workload": {"arrival_rate": 10, "duration": 5, "join_rate": -0.5},
       "stopping": {"min_samples": 2, "max_samples": 4, "rel_precision": 0.5},
       "metrics": [{"kind": "workload-throughput"}]}|}
    "join_rate must be non-negative";
  rejects
    {|{"version": 2, "name": "t", "seed": 1,
       "topology": {"n": [20], "degree": [6]},
       "workload": {"arrival_rate": -3, "duration": 5},
       "stopping": {"min_samples": 2, "max_samples": 4, "rel_precision": 0.5},
       "metrics": [{"kind": "workload-throughput"}]}|}
    "arrival_rate must be positive";
  (* a workload metric without the scenario-level workload object *)
  rejects
    {|{"version": 2, "name": "t", "seed": 1,
       "topology": {"n": [20], "degree": [6]},
       "stopping": {"min_samples": 2, "max_samples": 4, "rel_precision": 0.5},
       "metrics": [{"kind": "workload-staleness"}]}|}
    {|needs the scenario-level "workload" object|};
  (* workload metrics are protocol-free: a protocol field is unknown *)
  rejects
    {|{"version": 2, "name": "t", "seed": 1,
       "topology": {"n": [20], "degree": [6]},
       "workload": {"arrival_rate": 10, "duration": 5},
       "stopping": {"min_samples": 2, "max_samples": 4, "rel_precision": 0.5},
       "metrics": [{"kind": "workload-throughput", "protocol": "flooding"}]}|}
    {|unknown field "protocol"|}

(* The extension-probe kinds: codec round-trip of every field tag, and
   strict rejection of unknown tags, missing or bad parameters and
   unknown keys. *)

let test_probes_roundtrip () =
  let s =
    Scenario.make ~name:"probe-knobs" ~seed:3 ~ns:[ 20 ] ~degrees:[ 6. ]
      ~stopping:{ Scenario.min_samples = 2; max_samples = 4; rel_precision = 0.5 }
      (List.map
         (fun field -> Scenario.Reliable_broadcast { field; loss = 0.25 })
         Metric.[ Tree_data; Tree_acks; Tree_complete; Oracle_flood ]
      @ [
          Scenario.Reliable_broadcast { field = Metric.Tree_data; loss = 0. };
          Scenario.Toroidal { field = Metric.Torus_degree };
          Scenario.Toroidal { field = Metric.Torus_backbone };
          Scenario.Motion { field = Metric.Valid_time; speed = 0. };
        ]
      @ List.map
          (fun field -> Scenario.Motion { field; speed = 2.5 })
          Metric.
            [
              Cluster_msgs;
              Head_churn;
              Backbone_msgs;
              Gateways;
              Valid_time;
              Stale_delivery;
              Dynamic_delivery;
            ])
  in
  (match Scenario.validate s with
  | Ok () -> ()
  | Error m -> Alcotest.failf "validate: %s" m);
  Alcotest.(check bool) "labels carry the parameter" true
    (List.mem "tree-acks@0.25" (List.map Scenario.metric_name s.Scenario.metrics)
    && List.mem "head-churn@2.5" (List.map Scenario.metric_name s.Scenario.metrics));
  match Scenario.of_string (Scenario.to_string s) with
  | Ok s' -> Alcotest.(check bool) "round-trips" true (s = s')
  | Error m -> Alcotest.fail m

let with_metric metric =
  Printf.sprintf
    {|{"version": 1, "name": "t", "seed": 1,
       "topology": {"n": [20], "degree": [6]},
       "stopping": {"min_samples": 2, "max_samples": 4, "rel_precision": 0.5},
       "metrics": [%s]}|}
    metric

let test_probes_rejections () =
  List.iter
    (fun (metric, fragment) -> rejects (with_metric metric) fragment)
    [
      ({|{"kind": "reliable-broadcast", "field": "tree-size", "loss": 0.1}|},
       {|unknown reliable-broadcast field "tree-size"|});
      ({|{"kind": "toroidal", "field": "radius"}|}, {|unknown toroidal field "radius"|});
      ({|{"kind": "motion", "field": "warp", "speed": 1}|}, {|unknown motion field "warp"|});
      ({|{"kind": "motion", "field": "valid-time"}|}, {|missing required field "speed"|});
      ({|{"kind": "motion", "field": "valid-time", "speed": -1}|}, "speed -1 must be");
      ({|{"kind": "reliable-broadcast", "field": "tree-data"}|}, {|missing required field "loss"|});
      ({|{"kind": "reliable-broadcast", "field": "tree-data", "loss": 1.5}|}, "outside [0, 1]");
      ({|{"kind": "reliable-broadcast", "field": "tree-data", "loss": -0.1}|}, "outside [0, 1]");
      ({|{"kind": "toroidal"}|}, {|missing required field "field"|});
      ({|{"kind": "reliable-broadcast", "field": "tree-data", "loss": 0.1, "protocol": "dp"}|},
       {|unknown field "protocol"|});
      ({|{"kind": "toroidal", "field": "degree", "loss": 0.1}|}, {|unknown field "loss"|});
      ({|{"kind": "motion", "field": "gateways", "speed": 1, "dt": 2}|}, {|unknown field "dt"|});
      ({|{"kind": "motion", "field": "gateways", "speed": 1, "name": "g"}|}, {|unknown field "name"|});
    ]

(* The strict input boundary: a key given twice is rejected in every
   object (first-wins would run another scenario than the file states),
   and every float that sizes or paces the run must be finite. *)

let scenario_with ?(topology = {|{"n": [20], "degree": [6]}|}) ?(extra = "")
    ?(stopping = {|{"min_samples": 2, "max_samples": 4, "rel_precision": 0.5}|})
    ?(metric = {|{"kind": "forwards", "protocol": "flooding"}|}) () =
  Printf.sprintf
    {|{"version": 1, "name": "t", "seed": 1, "topology": %s,%s
       "stopping": %s, "metrics": [%s]}|}
    topology extra stopping metric

let mobility_with field =
  Printf.sprintf
    {| "mobility": {"model": "random-waypoint", "steps": 1, "dt": 0.5, "speed_min": 0,
                    "speed_max": 2, %s},|}
    field

let test_duplicate_keys () =
  List.iter
    (fun (text, fragment) -> rejects text fragment)
    [
      ( {|{"version": 1, "name": "t", "seed": 1, "seed": 2,
           "topology": {"n": [20], "degree": [6]},
           "stopping": {"min_samples": 2, "max_samples": 4, "rel_precision": 0.5},
           "metrics": [{"kind": "forwards", "protocol": "flooding"}]}|},
        {|duplicate field "seed"|} );
      (scenario_with ~topology:{|{"n": [20], "degree": [6], "n": [30]}|} (), {|duplicate field "n"|});
      ( scenario_with
          ~stopping:{|{"min_samples": 2, "max_samples": 4, "rel_precision": 0.5, "max_samples": 9}|}
          (),
        {|duplicate field "max_samples"|} );
      ( scenario_with ~metric:{|{"kind": "forwards", "protocol": "flooding", "protocol": "dp"}|} (),
        {|duplicate field "protocol"|} );
      ( scenario_with ~metric:{|{"kind": "forwards", "kind": "delivery", "protocol": "dp"}|} (),
        {|duplicate field "kind"|} );
      ( scenario_with
          ~extra:{| "failures": {"kill": 1, "round": 1, "kill": 2},|}
          ~metric:{|{"kind": "failure-delivery", "protocol": "dp"}|}
          (),
        {|duplicate field "kill"|} );
      (scenario_with ~extra:(mobility_with {|"dt": 1|}) (), {|duplicate field "dt"|});
    ]

let test_non_finite () =
  List.iter
    (fun (text, fragment) -> rejects text fragment)
    [
      (scenario_with ~topology:{|{"n": [20], "degree": [6], "width": inf}|} (), "topology.width inf");
      (scenario_with ~topology:{|{"n": [20], "degree": [6], "height": nan}|} (), "topology.height nan");
      (scenario_with ~topology:{|{"n": [20], "degree": [inf]}|} (), "topology.degree[0] inf");
      (scenario_with ~topology:{|{"n": [20], "degree": [6, nan]}|} (), "topology.degree[1] nan");
      ( scenario_with ~stopping:{|{"min_samples": 2, "max_samples": 4, "rel_precision": inf}|} (),
        "stopping.rel_precision inf" );
      ( scenario_with
          ~extra:
            {| "mobility": {"model": "random-waypoint", "steps": 1, "dt": inf, "speed_min": 0,
                            "speed_max": 2},|}
          (),
        "mobility.dt inf" );
      ( scenario_with
          ~extra:
            {| "mobility": {"model": "random-waypoint", "steps": 1, "dt": 0.5, "speed_min": nan,
                            "speed_max": 2},|}
          (),
        "mobility.speed_min nan" );
      ( scenario_with
          ~extra:
            {| "mobility": {"model": "random-waypoint", "steps": 1, "dt": 0.5, "speed_min": 0,
                            "speed_max": inf},|}
          (),
        "mobility.speed_max inf" );
      (scenario_with ~extra:(mobility_with {|"pause_time": inf|}) (), "mobility.pause_time inf");
    ];
  (* The same checks guard a scenario built in OCaml. *)
  let s = Scenario.make ~name:"t" ~degrees:[ Float.infinity ] [ Scenario.Realized_degree ] in
  match Scenario.validate s with
  | Ok () -> Alcotest.fail "infinite degree validated"
  | Error m -> Alcotest.(check bool) ("message: " ^ m) true (contains m "topology.degree[0] inf")

(* Parity: every builtin figure, compiled from its scenario and run by
   the Runner, reproduces bit-identically the table the historical
   hand-coded sweep produced under the quick configuration.  The legacy
   metric lists are inlined here verbatim — they are the contract. *)

let same_table name (expected : Sweep.table) (actual : Sweep.table) =
  Alcotest.(check (float 0.)) (name ^ ": d") expected.d actual.d;
  Alcotest.(check (list string)) (name ^ ": metrics") expected.metrics actual.metrics;
  Alcotest.(check int) (name ^ ": points") (List.length expected.points)
    (List.length actual.points);
  List.iter2
    (fun (pe : Sweep.point) (pa : Sweep.point) ->
      Alcotest.(check int) (Printf.sprintf "%s n=%d: n" name pe.n) pe.n pa.n;
      Alcotest.(check int) (Printf.sprintf "%s n=%d: samples" name pe.n) pe.samples pa.samples;
      List.iter2
        (fun (ne, (ce : Sweep.cell)) (na, (ca : Sweep.cell)) ->
          Alcotest.(check string) (name ^ ": cell name") ne na;
          Alcotest.(check (float 0.))
            (Printf.sprintf "%s n=%d %s: mean" name pe.n ne)
            (Summary.mean ce.summary) (Summary.mean ca.summary);
          Alcotest.(check (float 0.))
            (Printf.sprintf "%s n=%d %s: variance" name pe.n ne)
            (Summary.variance ce.summary) (Summary.variance ca.summary);
          Alcotest.(check bool) (name ^ ": converged") ce.converged ca.converged)
        pe.cells pa.cells)
    expected.points actual.points

let check_parity name legacy_metrics =
  let s = Scenario.quicken (Figures.builtin_exn name) in
  let tables = Runner.run s in
  List.iter2
    (fun d actual ->
      let expected =
        Sweep.run ~rel_precision:s.Scenario.stopping.Scenario.rel_precision
          ~min_samples:s.Scenario.stopping.Scenario.min_samples
          ~max_samples:s.Scenario.stopping.Scenario.max_samples
          ~rng:(Rng.create ~seed:s.Scenario.seed) ~d ~ns:s.Scenario.topology.Scenario.ns
          legacy_metrics
      in
      same_table name expected actual)
    s.Scenario.topology.Scenario.degrees tables

let mcds_of ctx =
  float_of_int (Manet_graph.Nodeset.cardinal (Manet_mcds.Exact.build ctx.Metric.graph))

let cost name pick =
  {
    Metric.name;
    eval =
      (fun ctx ->
        let c, _ =
          Manet_backbone.Construction_cost.measure ctx.Metric.graph
            Manet_coverage.Coverage.Hop25
        in
        pick c);
  }

let at = Scenario.label_at

let legacy =
  [
    ( "fig6",
      [
        Metric.structure_size "static-2.5hop";
        Metric.structure_size "static-3hop";
        Metric.structure_size "mo_cds";
      ] );
    ( "fig7",
      [ Metric.forwards "dynamic-2.5hop"; Metric.forwards "dynamic-3hop"; Metric.forwards "mo_cds" ]
    );
    ( "fig8",
      [
        Metric.forwards "static-2.5hop";
        Metric.forwards "static-3hop";
        Metric.forwards "dynamic-2.5hop";
        Metric.forwards "dynamic-3hop";
      ] );
    ( "ext-baselines",
      [
        Metric.forwards "flooding";
        Metric.forwards "wu-li";
        Metric.forwards "dp";
        Metric.forwards "pdp";
        Metric.forwards "ahbp";
        Metric.forwards "mpr";
        Metric.forwards "fwd-tree";
        Metric.forwards "self-pruning";
        Metric.forwards "counter";
        Metric.delivery ~name:"counter-delivery" "counter";
        Metric.forwards "passive";
        Metric.delivery ~name:"passive-delivery" "passive";
        Metric.forwards "static-2.5hop";
        Metric.forwards "dynamic-2.5hop";
      ] );
    ( "ext-si-cds",
      [
        Metric.structure_size "static-2.5hop";
        Metric.structure_size "mo_cds";
        Metric.structure_size "wu-li";
        Metric.structure_size "tree-cds";
        Metric.structure_size "greedy-cds";
        Metric.cluster_count;
      ] );
    ( "ext-clustering",
      [
        Metric.structure_size "static-2.5hop";
        Metric.structure_size ~name:"static-2.5hop/deg"
          ~clustering:Manet_cluster.Highest_degree.cluster "static-2.5hop";
        Metric.cluster_count;
        Metric.cluster_count_highest_degree;
      ] );
    ( "ext-msgs",
      [
        cost "hello" (fun c -> float_of_int c.Manet_backbone.Construction_cost.hello);
        cost "clustering" (fun c -> float_of_int c.Manet_backbone.Construction_cost.clustering);
        cost "ch_hop" (fun c -> float_of_int c.Manet_backbone.Construction_cost.ch_hop);
        cost "gateway" (fun c -> float_of_int c.Manet_backbone.Construction_cost.gateway);
        cost "total" (fun c -> float_of_int c.Manet_backbone.Construction_cost.total);
        cost "total/n" (fun c ->
            float_of_int c.Manet_backbone.Construction_cost.total
            /. float_of_int c.Manet_backbone.Construction_cost.hello);
      ] );
    ( "ext-delivery",
      [
        Metric.delivery ~name:"delivery-2.5hop" "dynamic-2.5hop";
        Metric.delivery ~name:"delivery-3hop" "dynamic-3hop";
        Metric.delivery "dp";
        Metric.delivery "pdp";
        Metric.delivery "mpr";
      ] );
    ( "ext-pruning",
      [
        Metric.forwards "static-2.5hop";
        Metric.forwards "dynamic-2.5hop/sender";
        Metric.forwards "dynamic-2.5hop/coverage";
        Metric.forwards "dynamic-2.5hop";
      ] );
    ( "ext-resilience",
      (let spec = { Metric.kill = 1; round = 1; heal = None; backbone_only = true } in
       [
         Metric.failure_delivery ~spec "static-2.5hop";
         Metric.failure_delivery ~spec "kmcds-k1m2";
         Metric.failure_delivery ~spec "kmcds-k2m2";
         Metric.failure_delivery ~spec "kmcds-k2m2/stable";
         Metric.reconnection_rounds ~spec "kmcds-k2m2";
         Metric.redundancy "static-2.5hop";
         Metric.redundancy "kmcds-k2m2";
       ]) );
    ( "ext-traffic",
      (* The quickened workload (duration 25, warmup 2) spelled out by
         hand: the builtin's stream must compile to exactly these. *)
      (let w =
         Manet_experiment.Workload.make ~warmup:2. ~join_rate:0.4 ~leave_rate:0.4
           ~maintenance_every:1. ~arrival_rate:50. ~duration:25. ()
       in
       [
         Manet_experiment.Workload.throughput w;
         Manet_experiment.Workload.maintenance_per_churn w;
         Manet_experiment.Workload.staleness w;
         Manet_experiment.Workload.churn_delivery w;
       ]) );
    ( "ext-lossy",
      List.concat_map
        (fun loss ->
          List.map
            (fun p -> Metric.delivery ~name:(at p loss) ~loss p)
            [ "flooding"; "static-2.5hop"; "mo_cds"; "dynamic-2.5hop" ])
        [ 0.; 0.05; 0.1; 0.2; 0.3; 0.4 ] );
    ( "ext-border",
      [
        Metric.realized_degree;
        Metric.toroidal ~name:"toroidal-degree" Metric.Torus_degree;
        Metric.structure_size ~name:"backbone" "static-2.5hop";
        Metric.toroidal ~name:"toroidal-backbone" Metric.Torus_backbone;
      ] );
    ( "ext-reliable",
      List.concat_map
        (fun loss ->
          [
            Metric.reliable_broadcast ~name:(at "tree-data" loss) ~loss Metric.Tree_data;
            Metric.reliable_broadcast ~name:(at "tree-acks" loss) ~loss Metric.Tree_acks;
            Metric.reliable_broadcast ~name:(at "tree-complete" loss) ~loss Metric.Tree_complete;
            Metric.delivery ~name:(at "flooding" loss) ~loss "flooding";
            Metric.reliable_broadcast ~name:(at "oracle-flood" loss) ~loss Metric.Oracle_flood;
          ])
        [ 0.; 0.1; 0.2; 0.3 ] );
    ( "ext-maintenance",
      List.concat_map
        (fun speed ->
          [
            Metric.motion ~name:(at "cluster-msgs" speed) ~speed Metric.Cluster_msgs;
            Metric.motion ~name:(at "head-churn" speed) ~speed Metric.Head_churn;
            Metric.motion ~name:(at "backbone-msgs" speed) ~speed Metric.Backbone_msgs;
            Metric.motion ~name:(at "gateways" speed) ~speed Metric.Gateways;
          ])
        [ 1.; 2.; 5.; 10. ] );
    ( "ext-mobility",
      List.concat_map
        (fun speed ->
          [
            Metric.motion ~name:(at "valid-time" speed) ~speed Metric.Valid_time;
            Metric.motion ~name:(at "stale-delivery" speed) ~speed Metric.Stale_delivery;
            Metric.motion ~name:(at "dynamic-delivery" speed) ~speed Metric.Dynamic_delivery;
          ])
        [ 1.; 2.; 5.; 10. ] );
    ( "ext-approx",
      [
        { Metric.name = "mcds"; eval = mcds_of };
        (let size = Metric.structure_size "static-2.5hop" in
         { Metric.name = "static-2.5hop/mcds"; eval = (fun ctx -> size.eval ctx /. mcds_of ctx) });
        (let size = Metric.structure_size "static-3hop" in
         { Metric.name = "static-3hop/mcds"; eval = (fun ctx -> size.eval ctx /. mcds_of ctx) });
        (let size = Metric.structure_size "mo_cds" in
         { Metric.name = "mo_cds/mcds"; eval = (fun ctx -> size.eval ctx /. mcds_of ctx) });
        (let size = Metric.structure_size "greedy-cds" in
         { Metric.name = "greedy/mcds"; eval = (fun ctx -> size.eval ctx /. mcds_of ctx) });
      ] );
  ]

let test_every_builtin_has_parity_coverage () =
  Alcotest.(check (list string))
    "every builtin appears in the parity suite" (List.map fst Figures.builtins)
    (List.map fst legacy)

let parity_cases =
  List.map
    (fun (name, metrics) ->
      Alcotest.test_case name `Slow (fun () -> check_parity name metrics))
    legacy

(* Resume: the journal makes a killed sweep continue bit-identically. *)

let resume_scenario ?(domains = 1) () =
  (* rel_precision tight enough that every point runs to max_samples:
     24 samples = 3 chunks per point, two points. *)
  Scenario.make ~name:"resume-test" ~seed:13 ~domains ~ns:[ 20; 30 ] ~degrees:[ 6. ]
    ~stopping:{ Scenario.min_samples = 12; max_samples = 24; rel_precision = 0.0001 }
    [
      Scenario.Cluster_count { clustering = Scenario.Lowest_id };
      Scenario.Forwards { protocol = "flooding"; name = None; loss = None };
    ]

let with_temp f =
  let path = Filename.temp_file "manet-journal" ".jsonl" in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let journal_lines path = String.split_on_char '\n' (read_file path)

let test_journal_records_run () =
  with_temp (fun path ->
      let s = resume_scenario () in
      let tables = Runner.run ~journal:path s in
      (match Journal.load ~path with
      | Error m -> Alcotest.fail m
      | Ok (recorded, entries) ->
        Alcotest.(check bool) "scenario recorded" true (Journal.matches recorded s);
        (* 2 points x 3 chunks, all consumed (nothing converges early) *)
        Alcotest.(check int) "entries" 6 (List.length entries));
      (* A finished journal replays with zero evaluation. *)
      let replayed = Runner.run ~journal:path ~resume:true s in
      List.iter2 (same_table "replay") tables replayed)

let test_resume_after_truncation () =
  with_temp (fun path ->
      let s = resume_scenario () in
      let full = Runner.run ~journal:path s in
      let lines = journal_lines path in
      (* Keep the header and the first 3 chunk entries, then simulate a
         crash mid-append: a trailing half-written line without '\n'. *)
      let kept = List.filteri (fun i _ -> i < 4) lines in
      write_file path (String.concat "\n" kept ^ "\n" ^ {|{"degree": 0, "poi|});
      let resumed = Runner.run ~journal:path ~resume:true s in
      List.iter2 (same_table "truncated resume") full resumed;
      (* After the resume the journal is complete again. *)
      match Journal.load ~path with
      | Error m -> Alcotest.fail m
      | Ok (_, entries) -> Alcotest.(check int) "entries restored" 6 (List.length entries))

let test_resume_with_domains () =
  with_temp (fun path ->
      let serial = Runner.run (resume_scenario ()) in
      let _ = Runner.run ~journal:path (resume_scenario ()) in
      let lines = journal_lines path in
      write_file path (String.concat "\n" (List.filteri (fun i _ -> i < 3) lines) ^ "\n");
      (* Resume on 3 domains from a 1-domain journal: same tables. *)
      let resumed = Runner.run ~journal:path ~resume:true (resume_scenario ~domains:3 ()) in
      List.iter2 (same_table "parallel resume") serial resumed)

let test_resume_scenario_mismatch () =
  with_temp (fun path ->
      let s = resume_scenario () in
      let _ = Runner.run ~journal:path s in
      let other = { s with Scenario.seed = 99 } in
      match Runner.run ~journal:path ~resume:true other with
      | _ -> Alcotest.fail "mismatched journal accepted"
      | exception Failure m ->
        Alcotest.(check bool) ("message: " ^ m) true (contains m "different scenario"))

(* The same resume guarantees must hold mid-failure-sweep: victim draws
   come from the per-sample generator, so a resumed run redraws the
   identical victims and the tables stay bit-identical. *)

let resume_failure_scenario ?(domains = 1) () =
  Scenario.make ~name:"resume-failures" ~seed:13 ~domains ~ns:[ 20; 30 ] ~degrees:[ 6. ]
    ~failures:{ Metric.kill = 1; round = 1; heal = None; backbone_only = true }
    ~stopping:{ Scenario.min_samples = 12; max_samples = 24; rel_precision = 0.0001 }
    [
      Scenario.Failure_delivery { protocol = "kmcds-k2m2"; name = None; loss = None };
      Scenario.Reconnection_rounds { protocol = "kmcds-k2m2"; name = None };
      Scenario.Redundancy { protocol = "kmcds-k2m2"; name = None };
    ]

let test_resume_mid_failure_sweep () =
  with_temp (fun path ->
      let s = resume_failure_scenario () in
      let full = Runner.run ~journal:path s in
      let lines = journal_lines path in
      (* Keep the header and the first 2 chunk entries: the cut lands
         mid-sweep, between the two size points. *)
      write_file path (String.concat "\n" (List.filteri (fun i _ -> i < 3) lines) ^ "\n");
      let resumed = Runner.run ~journal:path ~resume:true s in
      List.iter2 (same_table "mid-failure-sweep resume") full resumed)

let test_failure_sweep_domain_invariant () =
  let serial = Runner.run (resume_failure_scenario ()) in
  let parallel = Runner.run (resume_failure_scenario ~domains:3 ()) in
  List.iter2 (same_table "3 domains = 1 domain") serial parallel

(* And mid-traffic-stream: the whole serving run is seeded from the
   per-sample generator, so a killed workload sweep resumes with
   bit-identical streams at any domain count. *)

let resume_traffic_scenario ?(domains = 1) () =
  Scenario.make ~name:"resume-traffic" ~seed:13 ~domains ~ns:[ 20; 30 ] ~degrees:[ 6. ]
    ~workload:
      (Manet_experiment.Workload.make ~arrival_rate:30. ~duration:8. ~warmup:1. ~join_rate:0.5
         ~leave_rate:0.5 ())
    ~stopping:{ Scenario.min_samples = 12; max_samples = 24; rel_precision = 0.0001 }
    [
      Scenario.Workload_throughput { name = None };
      Scenario.Workload_staleness { name = None };
      Scenario.Workload_delivery { name = None };
    ]

let test_resume_mid_traffic_stream () =
  with_temp (fun path ->
      let s = resume_traffic_scenario () in
      let full = Runner.run ~journal:path s in
      let lines = journal_lines path in
      (* Keep the header and the first 2 chunk entries, then simulate a
         crash mid-append: the cut lands mid-stream between points. *)
      write_file path
        (String.concat "\n" (List.filteri (fun i _ -> i < 3) lines) ^ "\n" ^ {|{"degree": 0|});
      let resumed = Runner.run ~journal:path ~resume:true s in
      List.iter2 (same_table "mid-traffic resume") full resumed;
      (* Resume the same truncated journal on 3 domains: same tables. *)
      write_file path
        (String.concat "\n" (List.filteri (fun i _ -> i < 3) lines) ^ "\n");
      let parallel = Runner.run ~journal:path ~resume:true (resume_traffic_scenario ~domains:3 ()) in
      List.iter2 (same_table "mid-traffic resume, 3 domains") full parallel)

let test_resume_missing_journal_is_fresh () =
  with_temp (fun path ->
      Sys.remove path;
      let s = resume_scenario () in
      let fresh = Runner.run ~journal:path ~resume:true s in
      let again = Runner.run s in
      List.iter2 (same_table "fresh under --resume") again fresh)

(* Journals are decoded by the same strict codec: an integer field must
   be an integer, and unknown or repeated members are rejected in the
   header and in every entry. *)

let replace_first text pattern by =
  let np = String.length pattern in
  let rec find i =
    if i + np > String.length text then Alcotest.failf "%S not found" pattern
    else if String.sub text i np = pattern then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub text 0 i ^ by ^ String.sub text (i + np) (String.length text - i - np)

let test_journal_rejections () =
  with_temp (fun path ->
      let _ = Runner.run ~journal:path (resume_scenario ()) in
      let header, entry =
        match journal_lines path with h :: e :: _ -> (h, e) | _ -> Alcotest.fail "short journal"
      in
      List.iter
        (fun (what, header, entry, fragment) ->
          write_file path (header ^ "\n" ^ entry ^ "\n");
          match Journal.load ~path with
          | Ok _ -> Alcotest.failf "%s accepted" what
          | Error m -> Alcotest.(check bool) (what ^ ": " ^ m) true (contains m fragment))
        [
          ( "fractional version",
            replace_first header {|"version": 1, "scenario"|} {|"version": 1.5, "scenario"|},
            entry,
            "version: expected an integer, found 1.5" );
          ( "unknown header field",
            replace_first header {|{"journal"|} {|{"checksum": 0, "journal"|},
            entry,
            {|unknown field "checksum"|} );
          ( "repeated header field",
            replace_first header {|"version": 1,|} {|"version": 1, "version": 1,|},
            entry,
            {|duplicate field "version"|} );
          ( "foreign journal",
            replace_first header {|"manet-sweep"|} {|"other"|},
            entry,
            {|journal "other" is not "manet-sweep"|} );
          ( "unknown entry field",
            header,
            replace_first entry {|"chunk": 0,|} {|"chunk": 0, "d": 6,|},
            {|line 2: unknown field "d"|} );
          ( "repeated entry field",
            header,
            replace_first entry {|"chunk": 0,|} {|"chunk": 0, "chunk": 1,|},
            {|line 2: duplicate field "chunk"|} );
          ( "fractional coordinate",
            header,
            replace_first entry {|"point": 0,|} {|"point": 0.5,|},
            "point: expected an integer" );
        ])

(* A journal written by an earlier build (golden/resume.jsonl: the header
   and the first four chunks of a sweep with mobility, loss, a failure
   event and series overrides) must load, resume to the tables of a fresh
   run, and hold exactly the bytes this build writes for the same run. *)
let test_committed_journal_resumes () =
  let committed =
    read_file (Filename.concat (Filename.dirname Sys.executable_name) "golden/resume.jsonl")
  in
  with_temp (fun path ->
      with_temp (fun fresh_path ->
          write_file path committed;
          let s =
            match Journal.load ~path with
            | Error m -> Alcotest.fail m
            | Ok (s, entries) ->
              Alcotest.(check int) "recorded chunks" 4 (List.length entries);
              s
          in
          let resumed = Runner.run ~journal:path ~resume:true s in
          let fresh = Runner.run ~journal:fresh_path s in
          List.iter2 (same_table "committed journal resume") fresh resumed;
          let written = read_file fresh_path in
          Alcotest.(check string) "same bytes as the earlier build" committed
            (String.sub written 0 (String.length committed));
          Alcotest.(check string) "resumed journal = fresh journal" written (read_file path)))

(* An entry's shape must fit the header's scenario: a copy of
   golden/resume.jsonl (5 series, sizes [20; 30], one degree,
   max_samples 24: three chunks of 8) whose first entry's member [key]
   is mapped through [bend] is refused by [Journal.load], naming the
   line, and a resume from it raises instead of returning tables. *)
let check_misshapen key bend fragment () =
  let committed =
    read_file (Filename.concat (Filename.dirname Sys.executable_name) "golden/resume.jsonl")
  in
  with_temp (fun path ->
      write_file path committed;
      let s = match Journal.load ~path with Ok (s, _) -> s | Error m -> Alcotest.fail m in
      let bent =
        match String.split_on_char '\n' committed with
        | header :: first :: rest -> (
          match Json.parse first with
          | Ok (Json.Obj members) ->
            let members =
              List.map (fun (k, v) -> if k = key then (k, bend v) else (k, v)) members
            in
            String.concat "\n" (header :: Json.print ~compact:true (Json.Obj members) :: rest)
          | _ -> Alcotest.fail "entry is not an object")
        | _ -> Alcotest.fail "short journal"
      in
      write_file path bent;
      (match Journal.load ~path with
      | Ok _ -> Alcotest.fail "accepted"
      | Error m -> Alcotest.(check bool) m true (contains m fragment));
      match Runner.run ~journal:path ~resume:true s with
      | _ -> Alcotest.fail "resumed"
      | exception Failure m -> Alcotest.(check bool) m true (contains m fragment))

let rows f = function Json.Arr rows -> Json.Arr (f rows) | _ -> Alcotest.fail "rows"

let misshapen_entries =
  [
    ( "3 values per row",
      "rows",
      rows
        (List.map (function
          | Json.Arr (a :: b :: c :: _) -> Json.Arr [ a; b; c ]
          | _ -> Alcotest.fail "row")),
      "journal line 2: row 0 has 3 values for 5 series" );
    ( "point outside the grid",
      "point",
      (fun _ -> Json.Num 2.),
      "journal line 2: point 2 is outside 0..1" );
    ( "degree outside the grid",
      "degree",
      (fun _ -> Json.Num 1.),
      "journal line 2: degree 1 is outside 0..0" );
    ( "chunk past max_samples",
      "chunk",
      (fun _ -> Json.Num 3.),
      "journal line 2: chunk 3 is outside 0..2" );
    ( "short chunk",
      "rows",
      rows List.tl,
      "journal line 2: chunk 0 has 7 rows, where max_samples 24 gives it 8" );
  ]

let () =
  Alcotest.run "scenario"
    [
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "numbers exact" `Quick test_json_numbers;
          Alcotest.test_case "parse errors" `Quick test_json_errors;
        ] );
      ( "codec",
        [
          Alcotest.test_case "builtins round-trip" `Quick test_builtin_roundtrip;
          Alcotest.test_case "full scenario round-trips" `Quick test_full_roundtrip;
          Alcotest.test_case "base accepted" `Quick test_base_accepted;
          Alcotest.test_case "unknown fields rejected" `Quick test_unknown_field;
          Alcotest.test_case "unknown protocol rejected" `Quick test_unknown_protocol;
          Alcotest.test_case "bad grids rejected" `Quick test_bad_grids;
          Alcotest.test_case "failure events round-trip" `Quick test_failures_roundtrip;
          Alcotest.test_case "malformed failure events rejected" `Quick
            test_failures_rejections;
          Alcotest.test_case "workloads round-trip" `Quick test_workload_roundtrip;
          Alcotest.test_case "malformed workloads rejected" `Quick test_workload_rejections;
          Alcotest.test_case "stalled workload clocks rejected" `Quick test_workload_stalled_clock;
          Alcotest.test_case "probe kinds round-trip" `Quick test_probes_roundtrip;
          Alcotest.test_case "malformed probe kinds rejected" `Quick test_probes_rejections;
          Alcotest.test_case "repeated keys rejected" `Quick test_duplicate_keys;
          Alcotest.test_case "non-finite floats rejected" `Quick test_non_finite;
        ] );
      ( "parity",
        Alcotest.test_case "coverage" `Quick test_every_builtin_has_parity_coverage
        :: parity_cases );
      ( "resume",
        [
          Alcotest.test_case "journal records a run" `Quick test_journal_records_run;
          Alcotest.test_case "resume after truncation" `Quick test_resume_after_truncation;
          Alcotest.test_case "resume on more domains" `Quick test_resume_with_domains;
          Alcotest.test_case "scenario mismatch" `Quick test_resume_scenario_mismatch;
          Alcotest.test_case "missing journal" `Quick test_resume_missing_journal_is_fresh;
          Alcotest.test_case "resume mid-failure-sweep" `Quick test_resume_mid_failure_sweep;
          Alcotest.test_case "failure sweep is domain-invariant" `Quick
            test_failure_sweep_domain_invariant;
          Alcotest.test_case "resume mid-traffic-stream" `Quick test_resume_mid_traffic_stream;
          Alcotest.test_case "malformed journals rejected" `Quick test_journal_rejections;
          Alcotest.test_case "earlier build's journal resumes" `Quick
            test_committed_journal_resumes;
        ]
        @ List.map
            (fun (what, key, bend, fragment) ->
              Alcotest.test_case ("misshapen entry: " ^ what) `Quick
                (check_misshapen key bend fragment))
            misshapen_entries );
    ]
