(* The invariant-oracle harness checking itself: clean runs stay clean,
   a deliberately broken gateway selection is caught and shrunk to a
   small reproducer, and the oracles agree with the repo's hand-written
   expectations on the paper graph. *)

module Graph = Manet_graph.Graph
module Nodeset = Manet_graph.Nodeset
module Connectivity = Manet_graph.Connectivity
module Dominating = Manet_graph.Dominating
module Protocol = Manet_broadcast.Protocol
module Registry = Manet_protocols.Registry
module Coverage = Manet_coverage.Coverage
module Backbone_maintenance = Manet_backbone.Backbone_maintenance
module Case = Manet_check.Case
module Oracle = Manet_check.Oracle
module Shrink = Manet_check.Shrink
module Mutate = Manet_check.Mutate
module Runner = Manet_check.Runner
open Test_helpers

let is_pass = function Oracle.Pass -> true | _ -> false

let verdict_label = function
  | Oracle.Pass -> "pass"
  | Oracle.Fail m -> "FAIL: " ^ m
  | Oracle.Skip m -> "skip: " ^ m

(* Cases *)

let test_case_determinism () =
  for index = 0 to 24 do
    let a = Case.generate ~seed:11 ~index and b = Case.generate ~seed:11 ~index in
    Alcotest.(check (list (pair int int)))
      (Printf.sprintf "case %d regenerates bit-for-bit" index)
      (Graph.edges a.Case.graph) (Graph.edges b.Case.graph);
    Alcotest.(check int) "same source" a.Case.source b.Case.source;
    Alcotest.(check string) "same kind" a.Case.kind b.Case.kind
  done

let test_cases_are_valid () =
  (* Every generated case honours the contract the oracles assume. *)
  for index = 0 to 49 do
    let c = Case.generate ~seed:3 ~index in
    Alcotest.(check bool)
      (Printf.sprintf "case %d (%s) connected" index c.Case.kind)
      true
      (Connectivity.is_connected c.Case.graph);
    Alcotest.(check bool) "n >= 2" true (Graph.n c.Case.graph >= 2);
    Alcotest.(check bool) "source in range" true
      (c.Case.source >= 0 && c.Case.source < Graph.n c.Case.graph)
  done

let test_case_families_all_appear () =
  let kinds = List.init 30 (fun index -> (Case.generate ~seed:5 ~index).Case.kind) in
  List.iter
    (fun k -> Alcotest.(check bool) (k ^ " family generated") true (List.mem k kinds))
    [ "udg"; "mobility"; "shape" ]

(* Oracles on the paper graph *)

let test_oracles_pass_on_paper_graph () =
  let ctx = Oracle.context (Case.of_graph (paper_graph ()) ~source:0) in
  List.iter
    (fun o ->
      match o.Oracle.check with
      | Oracle.Structural _ ->
        let v = Oracle.eval o ctx ~proto:None in
        Alcotest.(check bool) (o.Oracle.name ^ ": " ^ verdict_label v) true (is_pass v)
      | Oracle.Per_protocol _ ->
        List.iter
          (fun p ->
            let v = Oracle.eval o ctx ~proto:(Some p) in
            Alcotest.(check bool)
              (o.Oracle.name ^ "/" ^ p.Protocol.name ^ ": " ^ verdict_label v)
              true
              (match v with Oracle.Fail _ -> false | _ -> true))
          Registry.all)
    Oracle.all

let test_domination_oracle_catches_bad_backbone () =
  (* An ad-hoc protocol materializing a non-dominating structure. *)
  let bad =
    Protocol.si ~name:"bad-structure" ~description:"harness self-test"
      ~build:(fun _ -> Nodeset.singleton 9)
  in
  let ctx = Oracle.context (Case.of_graph (paper_graph ()) ~source:0) in
  let v = Oracle.eval (Oracle.find_exn "domination") ctx ~proto:(Some bad) in
  Alcotest.(check bool) "non-dominating structure rejected" true
    (match v with Oracle.Fail _ -> true | _ -> false)

(* Shrinking *)

let test_shrink_synthetic_predicate () =
  (* "Fails whenever the graph still has >= 4 nodes": the minimum is any
     connected 4-node graph, and connectivity must survive shrinking. *)
  let still_fails g ~source:_ = Graph.n g >= 4 in
  let out = Shrink.run ~still_fails (Graph.path 12) ~source:0 in
  Alcotest.(check int) "shrunk to the 4-node threshold" 4 (Graph.n out.Shrink.graph);
  Alcotest.(check bool) "stays connected" true (Connectivity.is_connected out.Shrink.graph);
  Alcotest.(check bool) "source survives" true
    (out.Shrink.source >= 0 && out.Shrink.source < 4)

let test_shrink_respects_budget () =
  let calls = ref 0 in
  let still_fails g ~source:_ =
    incr calls;
    Graph.n g >= 4
  in
  let out = Shrink.run ~budget:5 ~still_fails (Graph.path 12) ~source:0 in
  Alcotest.(check bool) "stops at the budget" true (out.Shrink.checks <= 5 && !calls <= 5)

(* Clean runs *)

let test_clean_run_all_protocols () =
  let outcome = Runner.run (Runner.config ~seed:7 ~cases:40 ()) in
  (match outcome.Runner.failure with
  | None -> ()
  | Some f -> Alcotest.failf "unexpected failure: %s" f.Runner.message);
  Alcotest.(check int) "all cases run" 40 outcome.Runner.cases_run;
  Alcotest.(check bool) "checks performed" true (outcome.Runner.checks > 0);
  Alcotest.(check bool) "skips recorded (source-dependent members, heuristics)" true
    (outcome.Runner.skips > 0)

(* Mutation smoke test: the acceptance criterion from the issue — a
   deliberately broken gateway selection must be caught within 300
   cases and shrink to a reproducer of at most 12 nodes. *)

let test_mutant_caught_and_shrunk () =
  let outcome =
    Runner.run (Runner.config ~seed:42 ~cases:300 ~protos:[ Mutate.drop_coverage_entry ] ())
  in
  match outcome.Runner.failure with
  | None -> Alcotest.fail "dropped coverage entry not caught within 300 cases"
  | Some f ->
    Alcotest.(check bool) "caught by a backbone/delivery oracle" true
      (List.mem f.Runner.oracle.Oracle.name
         [ "backbone-connectivity"; "delivery"; "si-sd-sanity" ]);
    Alcotest.(check bool)
      (Printf.sprintf "reproducer has %d <= 12 nodes" (Graph.n f.Runner.shrunk.Shrink.graph))
      true
      (Graph.n f.Runner.shrunk.Shrink.graph <= 12);
    Alcotest.(check bool) "shrunk reproducer still connected" true
      (Connectivity.is_connected f.Runner.shrunk.Shrink.graph);
    (* The emitted reproducer's exact call re-fails. *)
    let v =
      Runner.reproduce ~oracle:f.Runner.oracle.Oracle.name
        ?proto:f.Runner.proto f.Runner.shrunk.Shrink.graph
        ~source:f.Runner.shrunk.Shrink.source
    in
    Alcotest.(check bool) "reproduce re-fails" true
      (match v with Oracle.Fail _ -> true | _ -> false);
    Alcotest.(check bool) "reproducer mentions the replay seed" true
      (contains f.Runner.reproducer "--seed 42")

(* Each fault-tolerance oracle catches the kmcds mutant seeded with
   exactly its fault class, and the witness shrinks to <= 5 nodes (the
   issue's acceptance bound). *)

let check_kmcds_mutant ~mutant ~oracle () =
  let outcome =
    Runner.run
      (Runner.config ~seed:42 ~cases:300 ~protos:[ mutant ]
         ~oracles:[ Oracle.find_exn oracle ] ())
  in
  match outcome.Runner.failure with
  | None ->
    Alcotest.failf "%s not caught by %s within 300 cases" mutant.Protocol.name oracle
  | Some f ->
    Alcotest.(check string) "caught by the targeted oracle" oracle f.Runner.oracle.Oracle.name;
    Alcotest.(check bool)
      (Printf.sprintf "reproducer has %d <= 5 nodes" (Graph.n f.Runner.shrunk.Shrink.graph))
      true
      (Graph.n f.Runner.shrunk.Shrink.graph <= 5);
    let v =
      Runner.reproduce ~oracle ?proto:f.Runner.proto f.Runner.shrunk.Shrink.graph
        ~source:f.Runner.shrunk.Shrink.source
    in
    Alcotest.(check bool) "reproduce re-fails" true
      (match v with Oracle.Fail _ -> true | _ -> false)

(* The stale-window mutant (the previous broadcast's forward-set length
   leaking into the next broadcast of the same prepared instance) is
   invisible to every single-broadcast oracle — the first broadcast of
   each prepared instance is clean — and must be caught by exactly the
   instance-reuse oracle, which reuses one instance across sources. *)
let test_stale_window_caught () =
  let outcome =
    Runner.run
      (Runner.config ~seed:42 ~cases:300 ~protos:[ Mutate.stale_window ]
         ~oracles:[ Oracle.find_exn "instance-reuse" ] ())
  in
  match outcome.Runner.failure with
  | None -> Alcotest.fail "stale-window mutant not caught by instance-reuse within 300 cases"
  | Some f ->
    Alcotest.(check string) "caught by the targeted oracle" "instance-reuse"
      f.Runner.oracle.Oracle.name;
    let v =
      Runner.reproduce ~oracle:"instance-reuse" ?proto:f.Runner.proto
        f.Runner.shrunk.Shrink.graph ~source:f.Runner.shrunk.Shrink.source
    in
    Alcotest.(check bool) "reproduce re-fails" true
      (match v with Oracle.Fail _ -> true | _ -> false)

(* The genuine kmcds schemes pass the fault-tolerance oracles the
   mutants fail — the oracles discriminate, not just reject. *)
let test_fault_oracles_pass_genuine () =
  let outcome =
    Runner.run
      (Runner.config ~seed:42 ~cases:120
         ~protos:
           (List.filter_map Registry.find
              [ "kmcds-k1m1"; "kmcds-k1m2"; "kmcds-k2m1"; "kmcds-k2m2"; "kmcds-k2m2/stable" ])
         ~oracles:
           (List.map Oracle.find_exn [ "k-connectivity"; "m-domination"; "failure-delivery" ])
         ())
  in
  (match outcome.Runner.failure with
  | None -> ()
  | Some f -> Alcotest.failf "genuine scheme failed: %s" f.Runner.message);
  Alcotest.(check bool) "checks performed" true (outcome.Runner.checks > 0)

(* Mobility + maintenance: after each step of a walk, the incrementally
   repaired backbone must still satisfy the domination and connectivity
   oracles on the new snapshot (evaluated through the same oracle code
   paths as the randomized harness). *)

let test_maintenance_satisfies_oracles_under_motion () =
  let s = udg ~seed:31 ~n:40 ~d:8. in
  let bm = Backbone_maintenance.create s.graph Coverage.Hop25 in
  let mob = mobility_walk ~seed:32 ~speed:4. ~d:8. s in
  let domination = Oracle.find_exn "domination" in
  let connectivity = Oracle.find_exn "backbone-connectivity" in
  let checked = ref 0 in
  for step = 1 to 8 do
    let g = walk_step s mob in
    let _report = Backbone_maintenance.update bm g in
    if Connectivity.is_connected g then begin
      incr checked;
      let members = (Backbone_maintenance.backbone bm).Manet_backbone.Static_backbone.members in
      let maintained =
        Protocol.si ~name:"maintained-backbone" ~description:"harness self-test"
          ~build:(fun _ -> members)
      in
      let ctx = Oracle.context (Case.of_graph g ~source:0) in
      List.iter
        (fun o ->
          let v = Oracle.eval o ctx ~proto:(Some maintained) in
          Alcotest.(check bool)
            (Printf.sprintf "step %d: %s (%s)" step o.Oracle.name (verdict_label v))
            true (is_pass v))
        [ domination; connectivity ]
    end
  done;
  Alcotest.(check bool) "some connected snapshots were checked" true (!checked > 0)

(* The issue's acceptance bar for the serving core: the
   timeline-vs-rebuild oracle over 1000 seeded cases with zero
   counterexamples. *)
let test_timeline_oracle_1000_cases () =
  let oracle = Oracle.find_exn "timeline-vs-rebuild" in
  for index = 0 to 999 do
    let ctx = Oracle.context (Case.generate ~seed:42 ~index) in
    let v = Oracle.eval oracle ctx ~proto:None in
    Alcotest.(check bool)
      (Printf.sprintf "case %d (%s)" index (verdict_label v))
      true (is_pass v)
  done

(* The seeded mutant: the same stream with the first maintenance update
   dropped must be caught — by exactly this oracle (the fault lives in
   the serving loop, which no other oracle observes). *)
let test_timeline_mutant_caught () =
  let ctx = Oracle.context (Case.generate ~seed:42 ~index:1) in
  Alcotest.(check bool)
    "clean stream passes" true
    (is_pass (Oracle.timeline_vs_rebuild ctx));
  (match Oracle.timeline_vs_rebuild ~skip_maintenance:1 ctx with
  | Oracle.Fail m ->
    Alcotest.(check bool)
      ("failure names the divergence: " ^ m)
      true
      (String.length m > 0)
  | v -> Alcotest.failf "faulted stream not caught (%s)" (verdict_label v));
  (* The rest of the catalog is blind to the fault: the case's own graph
     and protocols are untouched by the workload's internal stream. *)
  List.iter
    (fun o ->
      if o.Oracle.name <> "timeline-vs-rebuild" then
        match o.Oracle.check with
        | Oracle.Structural _ ->
          let v = Oracle.eval o ctx ~proto:None in
          Alcotest.(check bool)
            (Printf.sprintf "%s unaffected (%s)" o.Oracle.name (verdict_label v))
            true (is_pass v)
        | Oracle.Per_protocol _ -> ())
    Oracle.all

let () =
  Alcotest.run "check"
    [
      ( "cases",
        [
          Alcotest.test_case "deterministic in (seed, index)" `Quick test_case_determinism;
          Alcotest.test_case "always valid" `Quick test_cases_are_valid;
          Alcotest.test_case "all families appear" `Quick test_case_families_all_appear;
        ] );
      ( "oracles",
        [
          Alcotest.test_case "catalog passes on the paper graph" `Quick
            test_oracles_pass_on_paper_graph;
          Alcotest.test_case "domination rejects a bad structure" `Quick
            test_domination_oracle_catches_bad_backbone;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "greedy minimum under a synthetic predicate" `Quick
            test_shrink_synthetic_predicate;
          Alcotest.test_case "budget bounds evaluations" `Quick test_shrink_respects_budget;
        ] );
      ( "runner",
        [
          Alcotest.test_case "clean run over the registry" `Quick test_clean_run_all_protocols;
          Alcotest.test_case "mutant caught and shrunk (issue acceptance)" `Quick
            test_mutant_caught_and_shrunk;
          Alcotest.test_case "stale-window caught by instance-reuse" `Quick
            test_stale_window_caught;
        ] );
      ( "fault-tolerance",
        [
          Alcotest.test_case "drop-connector caught by k-connectivity" `Quick
            (check_kmcds_mutant ~mutant:Mutate.drop_connector ~oracle:"k-connectivity");
          Alcotest.test_case "drop-connector caught by failure-delivery" `Quick
            (check_kmcds_mutant ~mutant:Mutate.drop_connector ~oracle:"failure-delivery");
          Alcotest.test_case "under-dominate caught by m-domination" `Quick
            (check_kmcds_mutant ~mutant:Mutate.under_dominate ~oracle:"m-domination");
          Alcotest.test_case "genuine schemes pass the fault oracles" `Quick
            test_fault_oracles_pass_genuine;
        ] );
      ( "maintenance",
        [
          Alcotest.test_case "repaired backbone passes the oracles under motion" `Quick
            test_maintenance_satisfies_oracles_under_motion;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "1000 seeded cases, zero counterexamples" `Slow
            test_timeline_oracle_1000_cases;
          Alcotest.test_case "skipped maintenance caught by timeline-vs-rebuild" `Quick
            test_timeline_mutant_caught;
        ] );
    ]
