module Graph = Manet_graph.Graph
module Nodeset = Manet_graph.Nodeset
module Engine = Manet_broadcast.Engine
module Protocol = Manet_broadcast.Protocol
module Reliable = Manet_broadcast.Reliable
module Result = Manet_broadcast.Result
open Test_helpers

(* One engine run, result only. *)
let run g ~source ~initial ~decide = fst (Engine.run_core g ~source ~initial ~decide)

(* A decide-style broadcast under per-reception loss, through the
   uniform pipeline with the loss draws taken from [rng]. *)
let lossy_run g ~rng ~loss ~source ~decide =
  fst
    (Protocol.run_decide (Protocol.make_env ~rng g) ~source ~mode:(Protocol.Lossy loss)
       ~initial:() ~decide)

let flood ~node:_ ~from:_ ~payload:() = Some ()

(* Delivery ratio of one blind flood under loss. *)
let flooding_delivery g ~rng ~loss ~source =
  Result.delivery_ratio (lossy_run g ~rng ~loss ~source ~decide:flood)

(* Result accessors *)

let test_result_accessors () =
  let r =
    {
      Result.source = 0;
      forwarders = set_of_list [ 0; 2 ];
      delivered = [| true; true; false; true |];
      completion_time = 3;
    }
  in
  Alcotest.(check int) "forward count" 2 (Result.forward_count r);
  Alcotest.(check int) "delivered count" 3 (Result.delivered_count r);
  Alcotest.(check (float 1e-9)) "ratio" 0.75 (Result.delivery_ratio r);
  Alcotest.(check bool) "not all" false (Result.all_delivered r)

(* Engine semantics *)

let test_source_always_transmits () =
  let g = Graph.path 3 in
  let r = run g ~source:0 ~initial:() ~decide:(fun ~node:_ ~from:_ ~payload:() -> None) in
  Alcotest.check nodeset "only source" (set_of_list [ 0 ]) r.forwarders;
  Alcotest.(check bool) "neighbor delivered" true r.delivered.(1);
  Alcotest.(check bool) "two hops not delivered" false r.delivered.(2)

let test_payload_propagation () =
  (* Payload counts hops from the source. *)
  let g = Graph.path 4 in
  let seen = Array.make 4 (-1) in
  let r =
    run g ~source:0 ~initial:1 ~decide:(fun ~node ~from:_ ~payload ->
        seen.(node) <- payload;
        Some (payload + 1))
  in
  Alcotest.(check bool) "all delivered" true (Result.all_delivered r);
  Alcotest.(check (array int)) "hop counters" [| -1; 1; 2; 3 |] seen;
  Alcotest.(check int) "completion time" 3 r.completion_time

let test_transmit_at_most_once () =
  let g = Graph.complete 5 in
  let decisions = ref 0 in
  let r =
    run g ~source:0 ~initial:() ~decide:(fun ~node:_ ~from:_ ~payload:() ->
        incr decisions;
        Some ())
  in
  Alcotest.(check int) "everyone forwards once" 5 (Result.forward_count r);
  (* each node decides once (then it transmits and is never asked again) *)
  Alcotest.(check int) "one decision per node" 4 !decisions

let test_late_designation () =
  (* A node declines its first copies but accepts a later one: the engine
     must keep offering copies until the node transmits.  Node 2 only
     forwards when it hears from node 3.  Graph: 0-1, 0-2, 1-3, 3-2: node
     2 hears 0 first (t1), 3 later (t3). *)
  let g = Graph.of_edges ~n:4 [ (0, 1); (0, 2); (1, 3); (3, 2) ] in
  let r =
    run g ~source:0 ~initial:() ~decide:(fun ~node ~from ~payload:() ->
        if node = 2 then if from = 3 then Some () else None else Some ())
  in
  Alcotest.(check bool) "2 eventually forwards" true (Nodeset.mem 2 r.forwarders)

let test_first_copy_smallest_sender () =
  (* Nodes 1 and 2 both deliver to 3 at t=2; the engine must hand node 3
     the copy from sender 1 (smallest id). *)
  let g = Graph.of_edges ~n:4 [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  let first_from = ref (-1) in
  let _ =
    run g ~source:0 ~initial:() ~decide:(fun ~node ~from ~payload:() ->
        if node = 3 && !first_from < 0 then first_from := from;
        Some ())
  in
  Alcotest.(check int) "deterministic tie-break" 1 !first_from

let test_source_out_of_range () =
  let g = Graph.path 2 in
  Alcotest.check_raises "range" (Invalid_argument "Engine.run_core: source out of range") (fun () ->
      ignore (run g ~source:5 ~initial:() ~decide:(fun ~node:_ ~from:_ ~payload:() -> None)))

let test_single_node_graph () =
  let g = Graph.empty 1 in
  let r = run g ~source:0 ~initial:() ~decide:(fun ~node:_ ~from:_ ~payload:() -> Some ()) in
  Alcotest.(check bool) "delivered" true (Result.all_delivered r);
  Alcotest.(check int) "one forward" 1 (Result.forward_count r)

let prop_flooding_latency_is_eccentricity =
  Test_helpers.qtest "flooding completion time = eccentricity" ~count:40
    (Test_helpers.arb_udg ()) (fun case ->
      let seed, n, _ = case in
      let g = (Test_helpers.sample_of case).graph in
      let source = seed mod n in
      let r =
        run g ~source ~initial:() ~decide:(fun ~node:_ ~from:_ ~payload:() -> Some ())
      in
      r.completion_time = Manet_graph.Bfs.eccentricity g source)

(* SI broadcast *)

let test_si_full_cds () =
  let g = paper_graph () in
  let cds = set_of_list [ 0; 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let r = si_broadcast g ~in_cds:(fun v -> Nodeset.mem v cds) ~source:0 in
  Alcotest.(check bool) "delivers" true (Result.all_delivered r);
  Alcotest.check nodeset "every member forwards" cds r.forwarders

let test_si_partial_set_partial_delivery () =
  let g = Graph.path 5 in
  (* Only node 1 forwards: nodes 3,4 unreachable. *)
  let r = si_broadcast g ~in_cds:(fun v -> v = 1) ~source:0 in
  Alcotest.(check bool) "3 not delivered" false r.delivered.(3);
  Alcotest.check nodeset "forwarders" (set_of_list [ 0; 1 ]) r.forwarders

let prop_si_delivery_iff_cds =
  qtest "SI broadcast over a CDS delivers" ~count:60 (arb_udg ()) (fun case ->
      let seed, n, _ = case in
      let g = (sample_of case).graph in
      let cds = Manet_mcds.Greedy_cds.build g in
      let r = si_broadcast g ~in_cds:(fun v -> Nodeset.mem v cds) ~source:(seed mod n) in
      Result.all_delivered r)

let prop_forwarders_subset_cds_plus_source =
  qtest "forwarders = reached CDS members plus source" ~count:60 (arb_udg ()) (fun case ->
      let seed, n, _ = case in
      let g = (sample_of case).graph in
      let cds = Manet_mcds.Greedy_cds.build g in
      let source = seed mod n in
      let r = si_broadcast g ~in_cds:(fun v -> Nodeset.mem v cds) ~source in
      Nodeset.subset r.forwarders (Nodeset.add source cds))

(* Lossy engine *)

let test_lossy_zero_loss_equals_engine () =
  let g = paper_graph () in
  let rng = Manet_rng.Rng.create ~seed:1 in
  let a = lossy_run g ~rng ~loss:0. ~source:0 ~decide:flood in
  let b = run g ~source:0 ~initial:() ~decide:flood in
  Alcotest.check nodeset "identical at zero loss" a.forwarders b.forwarders;
  Alcotest.(check (array bool)) "same deliveries" a.delivered b.delivered

let test_lossy_total_loss () =
  let g = paper_graph () in
  let rng = Manet_rng.Rng.create ~seed:1 in
  let r = lossy_run g ~rng ~loss:1. ~source:0 ~decide:flood in
  Alcotest.(check int) "only the source" 1 (Result.delivered_count r);
  Alcotest.check nodeset "source transmits anyway" (set_of_list [ 0 ]) r.forwarders

(* Out-of-range losses are rejected, NaN included: with a NaN loss the
   drop threshold would silently never fire. *)
let test_lossy_validation () =
  let g = paper_graph () in
  let rng = Manet_rng.Rng.create ~seed:1 in
  List.iter
    (fun loss ->
      Alcotest.check_raises
        (Printf.sprintf "loss %g" loss)
        (Invalid_argument "Protocol.run: loss must be within [0, 1]")
        (fun () -> ignore (lossy_run g ~rng ~loss ~source:0 ~decide:flood)))
    [ 1.5; -0.2; Float.nan; Float.infinity ]

let test_lossy_monotone_in_loss () =
  (* Averaged over repetitions, higher loss cannot improve delivery. *)
  let g = (Test_helpers.udg ~seed:21 ~n:60 ~d:8.).graph in
  let mean_delivery loss =
    let rng = Manet_rng.Rng.create ~seed:5 in
    let sum = ref 0. in
    for _ = 1 to 40 do
      sum := !sum +. flooding_delivery g ~rng ~loss ~source:0
    done;
    !sum /. 40.
  in
  let d0 = mean_delivery 0. and d2 = mean_delivery 0.2 and d6 = mean_delivery 0.6 in
  Alcotest.(check (float 1e-9)) "perfect at zero" 1. d0;
  Alcotest.(check bool) (Printf.sprintf "monotone: %f >= %f >= %f" d0 d2 d6) true
    (d0 >= d2 && d2 >= d6)

let test_lossy_flooding_redundancy () =
  (* Flooding shrugs off 10%% loss on a dense graph. *)
  let g = (Test_helpers.udg ~seed:22 ~n:80 ~d:12.).graph in
  let rng = Manet_rng.Rng.create ~seed:6 in
  let sum = ref 0. in
  for _ = 1 to 30 do
    sum := !sum +. flooding_delivery g ~rng ~loss:0.1 ~source:0
  done;
  Alcotest.(check bool) "delivery above 0.99" true (!sum /. 30. > 0.99)

let test_lossy_deterministic () =
  let g = (Test_helpers.udg ~seed:23 ~n:50 ~d:8.).graph in
  let run () = lossy_run g ~rng:(Manet_rng.Rng.create ~seed:9) ~loss:0.3 ~source:0 ~decide:flood in
  Alcotest.check nodeset "same forwarders" (run ()).forwarders (run ()).forwarders;
  Alcotest.(check (array bool)) "same deliveries" (run ()).delivered (run ()).delivered

let test_timeline_chain () =
  let g = Graph.path 4 in
  let r, timeline = Engine.run_core g ~source:0 ~initial:() ~decide:flood in
  Alcotest.(check bool) "all delivered" true (Result.all_delivered r);
  Alcotest.(check (list (pair int int))) "chain timeline" [ (0, 0); (1, 1); (2, 2); (3, 3) ]
    timeline

(* The uniform pipeline's perfect mode is the bare engine, timeline
   included. *)
let test_timeline_matches_pipeline () =
  let g = (Test_helpers.udg ~seed:71 ~n:40 ~d:8.).graph in
  let decide ~node ~from:_ ~payload:() = if node mod 2 = 0 then Some () else None in
  let r1, t1 =
    Protocol.run_decide (Protocol.make_env g) ~source:0 ~mode:Protocol.Perfect ~initial:() ~decide
  in
  let r2, timeline = Engine.run_core g ~source:0 ~initial:() ~decide in
  Alcotest.(check (list (pair int int))) "same timeline" t1 timeline;
  Alcotest.check nodeset "same forwarders" r1.forwarders r2.forwarders;
  Alcotest.(check int) "one timeline entry per forwarder" (Result.forward_count r1)
    (List.length timeline);
  (* timeline times are non-decreasing *)
  let rec sorted = function
    | (t1, _) :: ((t2, _) :: _ as rest) -> t1 <= t2 && sorted rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "sorted" true (sorted timeline)

(* Reliable (ack/retransmit) broadcast *)

let chain_parent n = Array.init n (fun v -> v - 1)

let test_reliable_zero_loss_chain () =
  let n = 5 in
  let g = Graph.path n in
  let rng = Manet_rng.Rng.create ~seed:1 in
  let o = Reliable.run g ~rng ~loss:0. ~root:0 ~parent:(chain_parent n) in
  Alcotest.(check bool) "complete" true o.complete;
  Alcotest.(check (float 1e-9)) "full delivery" 1. (Reliable.delivery_ratio o);
  (* Each of the 4 internal parents transmits exactly once; each of the 4
     children acks exactly once; the chain needs 4 rounds. *)
  Alcotest.(check int) "data" 4 o.data_transmissions;
  Alcotest.(check int) "acks" 4 o.ack_transmissions;
  Alcotest.(check int) "rounds" 4 o.rounds

let test_reliable_star_zero_loss () =
  let g = Graph.star 6 in
  let rng = Manet_rng.Rng.create ~seed:1 in
  let parent = Array.init 6 (fun v -> if v = 0 then -1 else 0) in
  let o = Reliable.run g ~rng ~loss:0. ~root:0 ~parent in
  Alcotest.(check int) "one data transmission" 1 o.data_transmissions;
  Alcotest.(check int) "five acks" 5 o.ack_transmissions;
  Alcotest.(check bool) "complete" true o.complete

let test_reliable_under_loss_completes () =
  let s = Test_helpers.udg ~seed:61 ~n:50 ~d:8. in
  let g = s.graph in
  let cl = Manet_cluster.Lowest_id.cluster g in
  let tree = Manet_baselines.Forwarding_tree.build g cl Manet_coverage.Coverage.Hop25 ~source:0 in
  let parent =
    Array.init (Graph.n g) (fun v ->
        if v = tree.root then -1
        else if Nodeset.mem v tree.members then tree.parent.(v)
        else Manet_cluster.Clustering.head_of cl v)
  in
  let rng = Manet_rng.Rng.create ~seed:62 in
  let o = Reliable.run g ~rng ~loss:0.3 ~root:tree.root ~parent in
  Alcotest.(check bool) "complete despite 30% loss" true o.complete;
  Alcotest.(check bool) "retransmissions happened" true
    (o.data_transmissions > Nodeset.cardinal tree.members - 1)

let test_reliable_more_loss_more_cost () =
  let s = Test_helpers.udg ~seed:63 ~n:50 ~d:8. in
  let g = s.graph in
  let n = Graph.n g in
  let parent =
    (* BFS tree rooted at 0: parent = smallest-id neighbor one level up *)
    let dist = Manet_graph.Bfs.distances g ~source:0 in
    Array.init n (fun v ->
        if v = 0 then -1
        else
          Graph.fold_neighbors g v
            (fun acc u -> if dist.(u) = dist.(v) - 1 && (acc < 0 || u < acc) then u else acc)
            (-1))
  in
  let cost loss =
    let sum = ref 0 in
    for seed = 1 to 30 do
      let rng = Manet_rng.Rng.create ~seed in
      let o = Reliable.run g ~rng ~loss ~root:0 ~parent in
      sum := !sum + Reliable.total_transmissions o
    done;
    !sum
  in
  let c0 = cost 0. and c3 = cost 0.3 in
  Alcotest.(check bool) (Printf.sprintf "cost grows with loss (%d < %d)" c0 c3) true (c0 < c3)

let prop_reliable_zero_loss_exact =
  Test_helpers.qtest "reliable tree at zero loss: one tx per internal node" ~count:30
    (Test_helpers.arb_udg ~n_max:40 ()) (fun case ->
      let g = (Test_helpers.sample_of case).graph in
      let n = Graph.n g in
      let dist = Manet_graph.Bfs.distances g ~source:0 in
      let parent =
        Array.init n (fun v ->
            if v = 0 then -1
            else
              Graph.fold_neighbors g v
                (fun acc u -> if dist.(u) = dist.(v) - 1 && (acc < 0 || u < acc) then u else acc)
                (-1))
      in
      let internal = Array.make n false in
      Array.iteri (fun v p -> if v <> 0 then internal.(p) <- true) parent;
      let internal_count = Array.fold_left (fun a b -> if b then a + 1 else a) 0 internal in
      let rng = Manet_rng.Rng.create ~seed:1 in
      let o = Reliable.run g ~rng ~loss:0. ~root:0 ~parent in
      o.complete && o.data_transmissions = internal_count && o.ack_transmissions = n - 1)

let test_reliable_validation () =
  let g = Graph.path 3 in
  let rng = Manet_rng.Rng.create ~seed:1 in
  Alcotest.check_raises "root parent" (Invalid_argument "Reliable.run: root's parent must be -1")
    (fun () -> ignore (Reliable.run g ~rng ~loss:0. ~root:0 ~parent:[| 1; 0; 1 |]));
  Alcotest.check_raises "non-neighbor parent"
    (Invalid_argument "Reliable.run: parent must be a graph neighbor") (fun () ->
      ignore (Reliable.run g ~rng ~loss:0. ~root:0 ~parent:[| -1; 0; 0 |]));
  Alcotest.check_raises "loss range" (Invalid_argument "Reliable.run: loss must be within [0, 1]")
    (fun () -> ignore (Reliable.run g ~rng ~loss:2. ~root:0 ~parent:(chain_parent 3)))

let test_reliable_timeout_reported () =
  (* Total loss: nothing beyond the root can ever be delivered. *)
  let g = Graph.path 3 in
  let rng = Manet_rng.Rng.create ~seed:1 in
  let o = Reliable.run ~max_rounds:10 g ~rng ~loss:1. ~root:0 ~parent:(chain_parent 3) in
  Alcotest.(check bool) "incomplete" false o.complete;
  Alcotest.(check int) "hit the cap" 10 o.rounds

(* Arena mechanics at the engine level: one arena serving graphs of
   different sizes back and forth, and re-entrant runs from inside a
   decide callback falling back safely. *)

let result_t = Alcotest.testable Result.pp (fun (a : Result.t) b ->
    a.source = b.source
    && Nodeset.equal a.forwarders b.forwarders
    && a.delivered = b.delivered
    && a.completion_time = b.completion_time)

let test_arena_across_sizes () =
  let arena = Engine.Arena.create () in
  let graphs = [ udg ~seed:7 ~n:60 ~d:6.; udg ~seed:8 ~n:9 ~d:4.; udg ~seed:9 ~n:120 ~d:10. ] in
  (* Interleave sizes twice so the second pass hits a shrunken-then-grown
     arena with stale generations everywhere. *)
  List.iter
    (fun _ ->
      List.iter
        (fun (s : Manet_topology.Generator.sample) ->
          let fresh = Engine.run_core s.graph ~source:0 ~initial:() ~decide:flood in
          let reused = Engine.run_core ~arena s.graph ~source:0 ~initial:() ~decide:flood in
          Alcotest.check result_t "result matches fresh run" (fst fresh) (fst reused);
          Alcotest.(check (list (pair int int))) "timeline matches" (snd fresh) (snd reused))
        graphs)
    [ (); () ]

let test_arena_reentrant () =
  let arena = Engine.Arena.create () in
  let outer = udg ~seed:12 ~n:30 ~d:6. in
  let inner = Graph.star 5 in
  (* Every outer decide runs a nested broadcast on the same arena: the
     nested run must fall back to private scratch and leave the outer
     run's state untouched. *)
  let nested_results = ref [] in
  let decide ~node:_ ~from:_ ~payload:() =
    let r, _ = Engine.run_core ~arena inner ~source:0 ~initial:() ~decide:flood in
    nested_results := r :: !nested_results;
    Some ()
  in
  let with_nesting = Engine.run_core ~arena outer.graph ~source:0 ~initial:() ~decide in
  let plain = Engine.run_core outer.graph ~source:0 ~initial:() ~decide:flood in
  Alcotest.check result_t "outer run unaffected by nesting" (fst plain) (fst with_nesting);
  let reference = run inner ~source:0 ~initial:() ~decide:flood in
  List.iter (Alcotest.check result_t "nested run correct" reference) !nested_results;
  Alcotest.(check bool) "nesting actually happened" true (!nested_results <> [])

let () =
  Alcotest.run "broadcast"
    [
      ("result", [ Alcotest.test_case "accessors" `Quick test_result_accessors ]);
      ( "engine",
        [
          Alcotest.test_case "silent network" `Quick test_source_always_transmits;
          Alcotest.test_case "payload propagation" `Quick test_payload_propagation;
          Alcotest.test_case "transmit at most once" `Quick test_transmit_at_most_once;
          Alcotest.test_case "late designation" `Quick test_late_designation;
          Alcotest.test_case "deterministic tie-break" `Quick test_first_copy_smallest_sender;
          Alcotest.test_case "source out of range" `Quick test_source_out_of_range;
          Alcotest.test_case "single node" `Quick test_single_node_graph;
          Alcotest.test_case "arena reuse across sizes" `Quick test_arena_across_sizes;
          Alcotest.test_case "arena reentrancy" `Quick test_arena_reentrant;
        ] );
      ( "lossy",
        [
          Alcotest.test_case "zero loss = reliable engine" `Quick test_lossy_zero_loss_equals_engine;
          Alcotest.test_case "total loss" `Quick test_lossy_total_loss;
          Alcotest.test_case "validation" `Quick test_lossy_validation;
          Alcotest.test_case "monotone in loss" `Quick test_lossy_monotone_in_loss;
          Alcotest.test_case "flooding redundancy" `Quick test_lossy_flooding_redundancy;
          Alcotest.test_case "deterministic" `Quick test_lossy_deterministic;
        ] );
      ( "traced",
        [
          Alcotest.test_case "chain timeline" `Quick test_timeline_chain;
          Alcotest.test_case "consistent with run" `Quick test_timeline_matches_pipeline;
        ] );
      ( "reliable",
        [
          Alcotest.test_case "chain, zero loss" `Quick test_reliable_zero_loss_chain;
          Alcotest.test_case "star, zero loss" `Quick test_reliable_star_zero_loss;
          Alcotest.test_case "completes under loss" `Quick test_reliable_under_loss_completes;
          Alcotest.test_case "cost grows with loss" `Quick test_reliable_more_loss_more_cost;
          Alcotest.test_case "validation" `Quick test_reliable_validation;
          prop_reliable_zero_loss_exact;
          Alcotest.test_case "timeout reported" `Quick test_reliable_timeout_reported;
        ] );
      ( "si",
        [
          Alcotest.test_case "full backbone" `Quick test_si_full_cds;
          Alcotest.test_case "partial set" `Quick test_si_partial_set_partial_delivery;
          prop_flooding_latency_is_eccentricity;
          prop_si_delivery_iff_cds;
          prop_forwarders_subset_cds_plus_source;
        ] );
    ]
