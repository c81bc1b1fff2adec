module Graph = Manet_graph.Graph
module Nodeset = Manet_graph.Nodeset
module Clustering = Manet_cluster.Clustering
module Lowest_id = Manet_cluster.Lowest_id
module Coverage = Manet_coverage.Coverage
module Static = Manet_backbone.Static_backbone
module Dynamic = Manet_backbone.Dynamic_backbone
module Result = Manet_broadcast.Result
module Protocol = Manet_broadcast.Protocol
open Test_helpers

let paper () =
  let g = paper_graph () in
  (g, Lowest_id.cluster g)

(* The dynamic backbone as a protocol, prepared over clustering [cl]. *)
let prepare ?pruning g cl mode =
  (Dynamic.protocol ?pruning mode).Protocol.prepare (Protocol.make_env ~clustering:(lazy cl) g)

let traced ?pruning g cl mode ~source =
  (prepare ?pruning g cl mode).Protocol.run ~source ~mode:Protocol.Perfect

let broadcast ?pruning g cl mode ~source = fst (traced ?pruning g cl mode ~source)

(* The paper's Section 3 illustration: broadcasting from node 0 in the
   Figure 3 network uses exactly 7 forward nodes {0,1,2,3,5,6,8}
   (paper numbering: 1,2,3,4,6,7,9). *)
let test_paper_illustration () =
  let g, cl = paper () in
  let r = broadcast g cl Coverage.Hop25 ~source:0 in
  Alcotest.check nodeset "forward set" (set_of_list [ 0; 1; 2; 3; 5; 6; 8 ]) r.forwarders;
  Alcotest.(check int) "7 forwards" 7 (Result.forward_count r);
  Alcotest.(check bool) "full delivery" true (Result.all_delivered r)

(* Head 1 and head 3 receive the packet with their whole coverage already
   covered upstream, so they transmit without selecting any gateway:
   nodes 4, 7, 9 never forward. *)
let test_paper_pruning_effect () =
  let g, cl = paper () in
  let r = broadcast g cl Coverage.Hop25 ~source:0 in
  List.iter
    (fun v ->
      Alcotest.(check bool) (Printf.sprintf "%d silent" v) false (Nodeset.mem v r.forwarders))
    [ 4; 7; 9 ]

let test_paper_from_non_head_source () =
  let g, cl = paper () in
  (* Source 9 is a member of cluster 2. *)
  let r = broadcast g cl Coverage.Hop25 ~source:9 in
  Alcotest.(check bool) "full delivery" true (Result.all_delivered r);
  Alcotest.(check bool) "source forwards" true (Nodeset.mem 9 r.forwarders)

let test_paper_dynamic_not_larger_than_static () =
  let g, cl = paper () in
  let static = Static.build ~clustering:cl g Coverage.Hop25 in
  List.iter
    (fun source ->
      let s = Result.forward_count (si_broadcast g ~in_cds:(Static.in_backbone static) ~source) in
      let d = Result.forward_count (broadcast g cl Coverage.Hop25 ~source) in
      Alcotest.(check bool) (Printf.sprintf "source %d: dynamic <= static" source) true (d <= s))
    [ 0; 3; 5; 9 ]

(* Every head that receives the packet transmits exactly once; dynamic
   forwarders always include all clusterheads (they form a DS, so all are
   reached on a connected graph). *)
let prop_heads_all_forward =
  qtest "every clusterhead forwards" ~count:60 (arb_udg ()) (fun case ->
      let seed, n, _ = case in
      let g = (sample_of case).graph in
      let cl = Lowest_id.cluster g in
      let r = broadcast g cl Coverage.Hop25 ~source:(seed mod n) in
      Nodeset.subset (Clustering.head_set cl) r.forwarders)

(* Theorem 2 (delivery form): the dynamic broadcast reaches every node on
   every connected topology, at every pruning level and in both modes. *)
let prop_theorem2_delivery =
  qtest "Theorem 2: dynamic broadcast delivers" ~count:120 (arb_udg ()) (fun case ->
      let seed, n, _ = case in
      let g = (sample_of case).graph in
      let cl = Lowest_id.cluster g in
      let source = seed mod n in
      List.for_all
        (fun mode ->
          List.for_all
            (fun pruning ->
              Result.all_delivered (broadcast ~pruning g cl mode ~source))
            [ Dynamic.Sender_only; Dynamic.Coverage_piggyback; Dynamic.Coverage_and_relay ])
        [ Coverage.Hop25; Coverage.Hop3 ])

(* The forward node set is a source-dependent CDS: together with the
   source it dominates the graph and induces a connected subgraph. *)
let prop_forward_set_is_sd_cds =
  qtest "forward set is a CDS" ~count:80 (arb_udg ()) (fun case ->
      let seed, n, _ = case in
      let g = (sample_of case).graph in
      let cl = Lowest_id.cluster g in
      let fwd = (broadcast g cl Coverage.Hop25 ~source:(seed mod n)).forwarders in
      Manet_graph.Dominating.is_cds g fwd)

(* Pruning monotonicity on average: more history can only help.  Checked
   per-sample as a weak inequality with a small slack because the greedy
   selection is not strictly monotone in its target set. *)
let prop_pruning_helps_on_average =
  qtest "stronger pruning does not inflate forwards (on average)" ~count:40
    (arb_udg ~n_min:20 ()) (fun case ->
      let seed, n, _ = case in
      let g = (sample_of case).graph in
      let cl = Lowest_id.cluster g in
      let source = seed mod n in
      let count p =
        Result.forward_count (broadcast ~pruning:p g cl Coverage.Hop25 ~source)
      in
      (* Weak per-sample sanity: full pruning within +3 of sender-only. *)
      count Dynamic.Coverage_and_relay <= count Dynamic.Sender_only + 3)

(* Source-dependence: different sources may yield different forward sets
   (that is the point of an SD-CDS).  We check at least one pair differs
   on a reasonably sized network. *)
let test_source_dependence () =
  let sample = udg ~seed:123 ~n:60 ~d:6. in
  let g = sample.graph in
  let cl = Lowest_id.cluster g in
  let sets =
    List.map (fun s -> (broadcast g cl Coverage.Hop25 ~source:s).forwarders) [ 0; 20; 40 ]
  in
  let all_equal =
    match sets with a :: rest -> List.for_all (Nodeset.equal a) rest | [] -> true
  in
  Alcotest.(check bool) "forward sets differ by source" false all_equal

let test_traced_consistent () =
  let g, cl = paper () in
  let r, timeline = traced g cl Coverage.Hop25 ~source:0 in
  Alcotest.check nodeset "timeline nodes = forwarders" r.forwarders
    (set_of_list (List.map snd timeline));
  Alcotest.(check int) "entries = forwards" (Result.forward_count r) (List.length timeline);
  (match timeline with
  | (0, 0) :: _ -> ()
  | _ -> Alcotest.fail "source transmits first at t=0")

(* Determinism *)
let test_deterministic () =
  let g, cl = paper () in
  let a = broadcast g cl Coverage.Hop25 ~source:0 in
  let b = broadcast g cl Coverage.Hop25 ~source:0 in
  Alcotest.check nodeset "same forward set" a.forwarders b.forwarders

(* One prepared instance shares its CH_HOP cache across broadcasts;
   every broadcast equals a fresh preparation's. *)
let test_shared_coverages () =
  let g, cl = paper () in
  let shared = prepare g cl Coverage.Hop25 in
  List.iter
    (fun source ->
      let a, _ = shared.Protocol.run ~source ~mode:Protocol.Perfect in
      let b = broadcast g cl Coverage.Hop25 ~source in
      Alcotest.check nodeset "same" a.forwarders b.forwarders)
    [ 0; 9; 0; 5 ]

let test_source_out_of_range () =
  let g, cl = paper () in
  Alcotest.check_raises "range check"
    (Invalid_argument "Dynamic_backbone: source out of range") (fun () ->
      ignore (broadcast g cl Coverage.Hop25 ~source:10))

(* Degenerate networks *)

let test_complete_graph () =
  let g = Graph.complete 6 in
  let cl = Lowest_id.cluster g in
  let r = broadcast g cl Coverage.Hop25 ~source:3 in
  Alcotest.(check bool) "delivers" true (Result.all_delivered r);
  (* Source sends to its head; the head's coverage is empty: 2 forwards. *)
  Alcotest.(check int) "two forwards" 2 (Result.forward_count r)

let test_complete_graph_head_source () =
  let g = Graph.complete 6 in
  let cl = Lowest_id.cluster g in
  let r = broadcast g cl Coverage.Hop25 ~source:0 in
  Alcotest.(check int) "single forward" 1 (Result.forward_count r)

let test_two_nodes () =
  let g = Graph.path 2 in
  let cl = Lowest_id.cluster g in
  let r = broadcast g cl Coverage.Hop25 ~source:1 in
  Alcotest.(check bool) "delivers" true (Result.all_delivered r)

let test_chain () =
  let g = Graph.path 9 in
  let cl = Lowest_id.cluster g in
  List.iter
    (fun source ->
      let r = broadcast g cl Coverage.Hop25 ~source in
      Alcotest.(check bool) (Printf.sprintf "chain from %d" source) true (Result.all_delivered r))
    [ 0; 4; 8 ]

(* Completion time is bounded by a small multiple of the BFS eccentricity
   (each cluster-graph hop costs at most 3 network hops). *)
let prop_latency_bounded =
  qtest "completion time bounded" ~count:40 (arb_udg ()) (fun case ->
      let seed, n, _ = case in
      let g = (sample_of case).graph in
      let cl = Lowest_id.cluster g in
      let source = seed mod n in
      let r = broadcast g cl Coverage.Hop25 ~source in
      let ecc = Manet_graph.Bfs.eccentricity g source in
      r.completion_time <= (3 * ecc) + 4)

let () =
  Alcotest.run "dynamic"
    [
      ( "paper",
        [
          Alcotest.test_case "illustration: 7 forwards" `Quick test_paper_illustration;
          Alcotest.test_case "pruned nodes silent" `Quick test_paper_pruning_effect;
          Alcotest.test_case "non-head source" `Quick test_paper_from_non_head_source;
          Alcotest.test_case "dynamic <= static" `Quick test_paper_dynamic_not_larger_than_static;
        ] );
      ( "theorem2",
        [
          prop_theorem2_delivery;
          prop_forward_set_is_sd_cds;
          prop_heads_all_forward;
          prop_pruning_helps_on_average;
        ] );
      ( "behavior",
        [
          Alcotest.test_case "source dependence" `Quick test_source_dependence;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "traced consistent" `Quick test_traced_consistent;
          Alcotest.test_case "shared coverages" `Quick test_shared_coverages;
          Alcotest.test_case "source out of range" `Quick test_source_out_of_range;
        ] );
      ( "degenerate",
        [
          Alcotest.test_case "complete graph" `Quick test_complete_graph;
          Alcotest.test_case "complete graph, head source" `Quick test_complete_graph_head_source;
          Alcotest.test_case "two nodes" `Quick test_two_nodes;
          Alcotest.test_case "chain" `Quick test_chain;
          prop_latency_bounded;
        ] );
    ]
