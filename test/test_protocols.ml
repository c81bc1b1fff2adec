(* The protocol registry: name uniqueness and total lookup, the golden
   outputs each protocol is held to, and the properties every registered
   protocol must share —
   consistent timelines, loss 0 = perfect, bounded delivery under loss,
   and results independent of the engine arena. *)

module Rng = Manet_rng.Rng
module Graph = Manet_graph.Graph
module Nodeset = Manet_graph.Nodeset
module Result = Manet_broadcast.Result
module Protocol = Manet_broadcast.Protocol
module Registry = Manet_protocols.Registry
open Test_helpers

let result = Alcotest.testable Result.pp (fun (a : Result.t) (b : Result.t) ->
    a.source = b.source
    && Nodeset.equal a.forwarders b.forwarders
    && a.delivered = b.delivered
    && a.completion_time = b.completion_time)

(* Registry shape *)

let documented_names =
  [
    "static-2.5hop"; "static-3hop";
    "dynamic-2.5hop"; "dynamic-3hop"; "dynamic-2.5hop/sender"; "dynamic-2.5hop/coverage";
    "mo_cds"; "wu-li"; "tree-cds"; "greedy-cds";
    "kmcds-k1m1"; "kmcds-k1m2"; "kmcds-k2m1"; "kmcds-k2m2"; "kmcds-k2m2/stable";
    "dp"; "pdp"; "ahbp"; "mpr"; "fwd-tree";
    "flooding"; "self-pruning"; "counter"; "passive";
  ]

let test_names_unique () =
  let sorted = List.sort_uniq compare Registry.names in
  Alcotest.(check int) "no duplicate names" (List.length Registry.names) (List.length sorted)

(* The registry is exactly the documented catalog: 24 schemes, same
   order the CLI prints them in (test/cram/cli.t pins the rendering). *)
let test_exactly_documented () =
  Alcotest.(check int) "exactly 24 registered schemes" 24 (List.length Registry.names);
  Alcotest.(check (list string)) "registry = documented catalog, in order" documented_names
    Registry.names

let test_lookup_total () =
  List.iter
    (fun name ->
      match Registry.find name with
      | Some p -> Alcotest.(check string) "found under its own name" name p.Protocol.name
      | None -> Alcotest.failf "documented protocol %s not registered" name)
    documented_names;
  Alcotest.(check int) "documented list is exhaustive" (List.length documented_names)
    (List.length Registry.names);
  Alcotest.(check bool) "unknown name is None" true (Registry.find "no-such-proto" = None);
  Alcotest.check_raises "find_exn raises on unknown name"
    (Invalid_argument
       (Printf.sprintf "Registry.find_exn: unknown protocol \"no-such-proto\" (known: %s)"
          (String.concat ", " Registry.names)))
    (fun () -> ignore (Registry.find_exn "no-such-proto"))

let test_backbones_materialize () =
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (p.Protocol.name ^ " is SI with a build phase")
        true
        (p.Protocol.family = Protocol.Source_independent && p.Protocol.has_build))
    Registry.backbones

(* Every backbone protocol's materialized structure is a verified CDS. *)
let test_backbones_are_cds () =
  List.iter
    (fun (sample : Manet_topology.Generator.sample) ->
      List.iter
        (fun p ->
          let built = p.Protocol.prepare (Protocol.make_env sample.graph) in
          match built.Protocol.members with
          | None -> Alcotest.failf "%s: backbone without members" p.Protocol.name
          | Some members ->
            Alcotest.(check bool)
              (p.Protocol.name ^ " members form a CDS")
              true
              (Manet_graph.Dominating.is_cds sample.graph members))
        Registry.backbones)
    (udg_cases ~seed:11 ~count:5 ~n:40 ~d:8.)

let registry_run name g ~cl ~rng ~source ~mode =
  let env = Protocol.make_env ~clustering:(lazy cl) ~rng g in
  ((Registry.find_exn name).Protocol.prepare env).Protocol.run ~source ~mode

(* Golden outputs.  test/golden/protocols.expected holds, for every
   registered protocol, one line per broadcast over 30 fixed cases under
   a perfect MAC and under 20% loss; a dune diff rule checks it against
   the fresh golden/protocols.out, and [dune promote] regenerates it.
   The file was frozen while the per-module broadcast entry points still
   existed, and their outputs on the same cases (same clustering, same
   generator seed) were exactly its Perfect lines; those entry points
   are gone, so these lines are what each registry protocol is held
   to. *)

let golden file =
  let path = Filename.concat (Filename.dirname Sys.executable_name) ("golden/" ^ file) in
  In_channel.with_open_text path In_channel.input_lines

let golden_name line = List.hd (String.split_on_char ' ' line)

let perfect_lines name lines =
  List.filter (fun l -> golden_name l = name && contains l " Perfect ") lines

(* The frozen table covers the whole registry: a protocol cannot join
   unpinned. *)
let test_golden_covers_registry () =
  let pinned = List.sort_uniq compare (List.map golden_name (golden "protocols.expected")) in
  List.iter
    (fun name -> Alcotest.(check bool) (name ^ " has golden lines") true (List.mem name pinned))
    Registry.names

(* Per protocol: the registry's broadcasts reproduce the frozen outputs
   of the legacy entry point. *)
let equivalence_tests =
  List.map
    (fun name ->
      Alcotest.test_case (Printf.sprintf "registry %s = legacy entry point" name) `Quick (fun () ->
          Alcotest.(check (list string))
            name
            (perfect_lines name (golden "protocols.expected"))
            (perfect_lines name (golden "protocols.out"))))
    Registry.names

(* Every protocol produces a timeline: one entry per forwarder, and the
   timeline's node set is exactly the forward set (satellite of the
   always-available --timeline CLI flag). *)
let timeline_tests =
  List.map
    (fun p ->
      let name = p.Protocol.name in
      qtest
        (Printf.sprintf "timeline of %s matches its forward set" name)
        ~count:15 (arb_udg ~n_max:40 ())
        (fun ((seed, n, _) as case) ->
          let sample = sample_of case in
          let g = sample.graph in
          let cl = Manet_cluster.Lowest_id.cluster g in
          let source = seed mod n in
          let r, timeline =
            registry_run name g ~cl ~rng:(Rng.create ~seed:(seed + 5)) ~source
              ~mode:Protocol.Perfect
          in
          let nodes = List.fold_left (fun s (_, v) -> Nodeset.add v s) Nodeset.empty timeline in
          List.length timeline = Result.forward_count r && Nodeset.equal nodes r.forwarders))
    Registry.all

(* Loss 0 is bit-identical to the perfect engine for every protocol. *)
let lossless_tests =
  List.map
    (fun p ->
      let name = p.Protocol.name in
      qtest
        (Printf.sprintf "%s under loss 0 = perfect" name)
        ~count:15 (arb_udg ~n_max:40 ())
        (fun ((seed, n, _) as case) ->
          let sample = sample_of case in
          let g = sample.graph in
          let cl = Manet_cluster.Lowest_id.cluster g in
          let source = seed mod n in
          let perfect, _ =
            registry_run name g ~cl ~rng:(Rng.create ~seed:(seed + 9)) ~source
              ~mode:Protocol.Perfect
          in
          let lossless, _ =
            registry_run name g ~cl ~rng:(Rng.create ~seed:(seed + 9)) ~source
              ~mode:(Protocol.Lossy 0.)
          in
          Alcotest.check result name perfect lossless;
          true))
    Registry.all

(* Delivery under loss stays a valid ratio for every protocol. *)
let test_delivery_ratio_bounds () =
  let sample = udg ~seed:5 ~n:30 ~d:8. in
  List.iter
    (fun p ->
      let env = Protocol.make_env ~rng:(Rng.create ~seed:13) sample.graph in
      let r, _ = (p.Protocol.prepare env).Protocol.run ~source:0 ~mode:(Protocol.Lossy 0.3) in
      let ratio = Result.delivery_ratio r in
      Alcotest.(check bool)
        (p.Protocol.name ^ " delivery in [0,1]")
        true
        (ratio >= 0. && ratio <= 1.))
    Registry.all

(* Arena determinism: for every registered protocol, broadcasts are
   bit-identical whether the engine scratch is a fresh arena, the
   domain's shared arena, or an arena deliberately dirtied by unrelated
   runs — under the perfect and the lossy engine.  This is the
   acceptance property of the arena layer: reuse must be unobservable. *)

module Engine = Manet_broadcast.Engine

let run_with_arena p (sample : Manet_topology.Generator.sample) ~arena ~mode =
  let env =
    Protocol.make_env ~rng:(Rng.create ~seed:77) ?arena sample.Manet_topology.Generator.graph
  in
  let built = p.Protocol.prepare env in
  built.Protocol.run ~source:0 ~mode

let dirty_arena (sample : Manet_topology.Generator.sample) =
  let a = Engine.Arena.create () in
  (* Pollute with broadcasts of a different payload type and a different
     graph size, so stale tags, heap slots and trace lengths are all
     exercised. *)
  ignore
    (Engine.run_core ~arena:a (Graph.path 3) ~source:2 ~initial:[ 1; 2; 3 ]
       ~decide:(fun ~node:_ ~from:_ ~payload -> Some payload));
  ignore
    (Engine.run_core ~arena:a sample.Manet_topology.Generator.graph ~source:1 ~initial:()
       ~decide:(fun ~node:_ ~from:_ ~payload:() -> Some ()));
  a

let arena_tests =
  let samples = udg_cases ~seed:31 ~count:2 ~n:45 ~d:8. in
  List.map
    (fun p ->
      Alcotest.test_case (p.Protocol.name ^ " arena-independent") `Quick (fun () ->
          List.iter
            (fun sample ->
              List.iter
                (fun mode ->
                  let r_fresh, t_fresh =
                    run_with_arena p sample ~arena:(Some (Engine.Arena.create ())) ~mode
                  in
                  let r_domain, t_domain = run_with_arena p sample ~arena:None ~mode in
                  let r_dirty, t_dirty =
                    run_with_arena p sample ~arena:(Some (dirty_arena sample)) ~mode
                  in
                  (* And once more on the now-dirty domain arena: steady-state reuse. *)
                  let r_again, t_again = run_with_arena p sample ~arena:None ~mode in
                  Alcotest.check result "fresh = domain arena" r_fresh r_domain;
                  Alcotest.check result "fresh = dirty arena" r_fresh r_dirty;
                  Alcotest.check result "fresh = reused domain arena" r_fresh r_again;
                  Alcotest.(check (list (pair int int))) "timeline: fresh = domain" t_fresh t_domain;
                  Alcotest.(check (list (pair int int))) "timeline: fresh = dirty" t_fresh t_dirty;
                  Alcotest.(check (list (pair int int))) "timeline: fresh = reused" t_fresh t_again)
                [ Protocol.Perfect; Protocol.Lossy 0.3 ])
            samples))
    Registry.all

let () =
  Alcotest.run "protocols"
    [
      ( "registry",
        [
          Alcotest.test_case "names unique" `Quick test_names_unique;
          Alcotest.test_case "exactly the 24 documented schemes" `Quick test_exactly_documented;
          Alcotest.test_case "lookup total over documented names" `Quick test_lookup_total;
          Alcotest.test_case "backbones are SI with build" `Quick test_backbones_materialize;
          Alcotest.test_case "backbones build CDSes" `Quick test_backbones_are_cds;
          Alcotest.test_case "equivalence table covers registry" `Quick test_golden_covers_registry;
        ] );
      ("equivalence", equivalence_tests);
      ("arena", arena_tests);
      ("timelines", timeline_tests);
      ( "loss",
        lossless_tests
        @ [ Alcotest.test_case "delivery ratio bounded" `Quick test_delivery_ratio_bounds ] );
    ]
