module Graph = Manet_graph.Graph
module Nodeset = Manet_graph.Nodeset
module Dominating = Manet_graph.Dominating
module Clustering = Manet_cluster.Clustering
module Lowest_id = Manet_cluster.Lowest_id
module Coverage = Manet_coverage.Coverage
module Static = Manet_backbone.Static_backbone
module Cluster_graph = Manet_backbone.Cluster_graph
module Cost = Manet_backbone.Construction_cost
module Result = Manet_broadcast.Result
open Test_helpers

(* Paper example *)

let test_paper_backbone () =
  let g = paper_graph () in
  let bb = Static.build g Coverage.Hop25 in
  Alcotest.check nodeset "members = paper figure 3c" (set_of_list [ 0; 1; 2; 3; 4; 5; 6; 7; 8 ])
    bb.members;
  Alcotest.check nodeset "gateways" (set_of_list [ 4; 5; 6; 7; 8 ]) bb.gateways;
  Alcotest.(check int) "size 9" 9 (Static.size bb);
  Alcotest.(check bool) "Theorem 1: CDS" true (Static.is_cds bb);
  Alcotest.(check bool) "node 9 excluded" false (Static.in_backbone bb 9)

let test_paper_broadcast () =
  let g = paper_graph () in
  let r = broadcast "static-2.5hop" g ~source:0 in
  (* All 9 backbone nodes forward (paper Section 3 illustration). *)
  Alcotest.(check int) "9 forwards" 9 (Result.forward_count r);
  Alcotest.(check bool) "full delivery" true (Result.all_delivered r)

let test_paper_broadcast_from_non_member () =
  let g = paper_graph () in
  let r = broadcast "static-2.5hop" g ~source:9 in
  Alcotest.(check bool) "full delivery from outsider" true (Result.all_delivered r);
  (* The outsider transmits once, plus every reached backbone node. *)
  Alcotest.(check int) "10 forwards" 10 (Result.forward_count r)

(* Degenerate topologies *)

let test_complete_graph_backbone () =
  let g = Graph.complete 8 in
  let bb = Static.build g Coverage.Hop25 in
  (* Single cluster, no other clusterheads to reach: backbone = {0}. *)
  Alcotest.check nodeset "just the head" (set_of_list [ 0 ]) bb.members;
  Alcotest.(check bool) "still a CDS" true (Static.is_cds bb)

let test_chain_backbone () =
  let g = Graph.path 7 in
  let bb = Static.build g Coverage.Hop25 in
  Alcotest.(check bool) "chain CDS" true (Static.is_cds bb);
  (* heads 0,2,4,6 plus connecting odd nodes - everything but endpoints'
     redundancy; at minimum 5 nodes (0..6 minus endpoints is 5). *)
  Alcotest.(check bool) "reasonable size" true (Static.size bb <= 7 && Static.size bb >= 5)

let test_two_nodes () =
  let g = Graph.path 2 in
  let bb = Static.build g Coverage.Hop25 in
  Alcotest.check nodeset "single head suffices" (set_of_list [ 0 ]) bb.members;
  Alcotest.(check bool) "cds" true (Static.is_cds bb)

let test_explicit_clustering_shared () =
  let g = paper_graph () in
  let cl = Lowest_id.cluster g in
  let a = Static.build ~clustering:cl g Coverage.Hop25 in
  let b = Static.build g Coverage.Hop25 in
  Alcotest.check nodeset "same result" a.members b.members

(* Theorem 1 at scale: the backbone is a CDS on every random connected
   topology, in both coverage modes. *)
let prop_theorem1 =
  qtest "Theorem 1: static backbone is a CDS" ~count:120 (arb_udg ()) (fun case ->
      let g = (sample_of case).graph in
      List.for_all
        (fun mode ->
          let bb = Static.build g mode in
          Static.is_cds bb)
        [ Coverage.Hop25; Coverage.Hop3 ])

(* Gateways are non-heads; members = heads + gateways, in both modes and
   for the distributed construction, whose result is assembled by the
   same constructor; [head_set] is exactly the head list. *)
let prop_composition =
  qtest "members = heads U gateways, disjointly" ~count:60 (arb_udg ()) (fun case ->
      let g = (sample_of case).graph in
      let composed (bb : Static.t) =
        let heads = Clustering.head_set bb.clustering in
        Nodeset.elements heads = Clustering.heads bb.clustering
        && Nodeset.equal bb.members (Nodeset.union heads bb.gateways)
        && Nodeset.is_empty (Nodeset.inter heads bb.gateways)
      in
      List.for_all (fun mode -> composed (Static.build g mode)) [ Coverage.Hop25; Coverage.Hop3 ]
      && composed (snd (Cost.measure g Coverage.Hop25)))

(* SI broadcast over the backbone delivers to everyone from any source. *)
let prop_broadcast_delivers =
  qtest "static broadcast always delivers" ~count:60 (arb_udg ()) (fun case ->
      let seed, n, _ = case in
      let g = (sample_of case).graph in
      Result.all_delivered (broadcast "static-2.5hop" g ~source:(seed mod n)))

(* Theorem 1 is clustering-agnostic: any valid cluster structure yields
   a CDS, so highest-connectivity clustering works too. *)
let prop_theorem1_highest_degree =
  qtest "static backbone CDS under highest-degree clustering" ~count:60 (arb_udg ())
    (fun case ->
      let g = (sample_of case).graph in
      let cl = Manet_cluster.Highest_degree.cluster g in
      let bb = Static.build ~clustering:cl g Coverage.Hop25 in
      Static.is_cds bb)

(* Cluster graph *)

let test_paper_cluster_graph_25 () =
  let g = paper_graph () in
  let cl = Lowest_id.cluster g in
  let cg = Cluster_graph.build g cl Coverage.Hop25 in
  Alcotest.(check int) "4 vertices" 4 (Cluster_graph.num_vertices cg);
  Alcotest.(check bool) "strongly connected" true (Cluster_graph.is_strongly_connected cg);
  (* Paper Figure 4a: links 0<->1, 0<->2, 1<->2, 2<->3 plus 3->0 (one way:
     0 is in C(3) via the 2.5-hop rule but 3 is NOT in C(0)). *)
  Alcotest.(check bool) "asymmetric in 2.5-hop mode" false (Cluster_graph.is_symmetric cg);
  let v h = Hashtbl.find cg.vertex_of_head h in
  Alcotest.(check bool) "3 -> 0 present" true
    (Manet_graph.Digraph.mem_arc cg.digraph (v 3) (v 0));
  Alcotest.(check bool) "0 -> 3 absent" false
    (Manet_graph.Digraph.mem_arc cg.digraph (v 0) (v 3))

let test_paper_cluster_graph_3 () =
  let g = paper_graph () in
  let cl = Lowest_id.cluster g in
  let cg = Cluster_graph.build g cl Coverage.Hop3 in
  Alcotest.(check bool) "strongly connected" true (Cluster_graph.is_strongly_connected cg);
  (* Figure 4b: with the 3-hop coverage set the relation is symmetric. *)
  Alcotest.(check bool) "symmetric in 3-hop mode" true (Cluster_graph.is_symmetric cg);
  (* 0 <-> 3 now both ways. *)
  let v h = Hashtbl.find cg.vertex_of_head h in
  Alcotest.(check bool) "0 -> 3 present" true
    (Manet_graph.Digraph.mem_arc cg.digraph (v 0) (v 3))

(* Lou and Wu's strong-connectivity theorem, exercised at scale: the
   cluster graph of every connected network is strongly connected under
   both coverage sets. *)
let prop_cluster_graph_strongly_connected =
  qtest "cluster graph strongly connected" ~count:150 (arb_udg ()) (fun case ->
      let g = (sample_of case).graph in
      let cl = Lowest_id.cluster g in
      List.for_all
        (fun mode -> Cluster_graph.is_strongly_connected (Cluster_graph.build g cl mode))
        [ Coverage.Hop25; Coverage.Hop3 ])

let prop_hop3_symmetric =
  qtest "3-hop cluster graph symmetric" ~count:60 (arb_udg ()) (fun case ->
      let g = (sample_of case).graph in
      let cl = Lowest_id.cluster g in
      Cluster_graph.is_symmetric (Cluster_graph.build g cl Coverage.Hop3))

(* Construction cost / distributed pipeline *)

let test_cost_paper () =
  let g = paper_graph () in
  let cost, bb = Cost.measure g Coverage.Hop25 in
  Alcotest.(check int) "hello" 10 cost.hello;
  Alcotest.(check int) "clustering = n" 10 cost.clustering;
  Alcotest.(check int) "ch_hop = 2 x non-heads" 12 cost.ch_hop;
  (* gateway: each head sends 1; 1-hop selected gateways forward.
     h0: sel {5,6} both 1-hop -> 3; h1: {5,7} -> 3; h2: {6,7,8} -> 4;
     h3: {8,4}: 8 is 1-hop of 3, 4 is 2-hop -> 2.  Total 12. *)
  Alcotest.(check int) "gateway" 12 cost.gateway;
  Alcotest.(check int) "total" 44 cost.total;
  (* The distributed pipeline builds the same backbone as the centralized
     constructor. *)
  let central = Static.build g Coverage.Hop25 in
  Alcotest.check nodeset "same backbone" central.members bb.members

let prop_cost_linear =
  qtest "construction messages linear in n" ~count:30 (arb_udg ~n_min:20 ()) (fun case ->
      let g = (sample_of case).graph in
      let cost, bb = Cost.measure g Coverage.Hop25 in
      (* Loose linearity bound: every stage sends at most a small constant
         per node. *)
      cost.total <= 6 * Graph.n g && Static.is_cds bb)

let prop_distributed_equals_centralized =
  qtest "distributed construction = centralized backbone" ~count:40 (arb_udg ~n_max:40 ())
    (fun case ->
      let g = (sample_of case).graph in
      let _, bb = Cost.measure g Coverage.Hop25 in
      let central = Static.build g Coverage.Hop25 in
      Nodeset.equal central.members bb.members)

(* GATEWAY notification protocol *)

module Gateway_proto = Manet_backbone.Gateway_proto

let gateway_proto g cl =
  Gateway_proto.run g cl (Manet_coverage.Ch_hop_proto.run g cl Coverage.Hop25).coverages

let test_gateway_proto_paper () =
  let g = paper_graph () in
  let r = gateway_proto g (Lowest_id.cluster g) in
  Alcotest.check nodeset "informed = paper gateways" (set_of_list [ 4; 5; 6; 7; 8 ]) r.informed;
  (* 4 head broadcasts + forwards by selected 1-hop gateways (see the
     construction-cost walkthrough: total 12). *)
  Alcotest.(check int) "transmissions" 12 r.transmissions

let prop_gateway_proto_matches_centralized =
  qtest "GATEWAY protocol informs exactly the backbone gateways" ~count:50 (arb_udg ())
    (fun case ->
      let g = (sample_of case).graph in
      let cl = Lowest_id.cluster g in
      let bb = Static.build ~clustering:cl g Coverage.Hop25 in
      Nodeset.equal (gateway_proto g cl).informed bb.gateways)

(* Incremental backbone maintenance *)

module Backbone_maintenance = Manet_backbone.Backbone_maintenance

let test_bm_no_change () =
  let g = paper_graph () in
  let bm = Backbone_maintenance.create g Coverage.Hop25 in
  let ev = Backbone_maintenance.update bm g in
  Alcotest.(check int) "no messages" 0 ev.total_messages;
  Alcotest.(check int) "no refresh" 0 ev.refreshed_heads;
  let bb = Backbone_maintenance.backbone bm in
  let fresh = Static.build g Coverage.Hop25 in
  Alcotest.check nodeset "same backbone" fresh.members bb.members

let test_bm_initial_equals_build () =
  let s = udg ~seed:50 ~n:60 ~d:8. in
  let bm = Backbone_maintenance.create s.graph Coverage.Hop25 in
  let bb = Backbone_maintenance.backbone bm in
  let fresh = Static.build s.graph Coverage.Hop25 in
  Alcotest.check nodeset "members" fresh.members bb.members;
  Alcotest.check nodeset "gateways" fresh.gateways bb.gateways

let test_bm_node_count_guard () =
  let bm = Backbone_maintenance.create (Graph.path 4) Coverage.Hop25 in
  Alcotest.check_raises "node count"
    (Invalid_argument "Backbone_maintenance.update: node count changed") (fun () ->
      ignore (Backbone_maintenance.update bm (Graph.path 5)))

(* The central property: along an arbitrary trajectory, the incremental
   backbone equals a from-scratch rebuild over the maintained
   clustering — members, gateways and every head's coverage set, in both
   coverage modes. *)
let coverage_slots_equal (a : Coverage.t option array) (b : Coverage.t option array) =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y ->
         match (x, y) with
         | None, None -> true
         | Some (x : Coverage.t), Some y -> x = y
         | Some _, None | None, Some _ -> false)
       a b

let bm_equals_rebuild case =
  let seed, _, d = case in
  let s = sample_of case in
  List.for_all
    (fun mode ->
      let bm = Backbone_maintenance.create s.graph mode in
      let mob = mobility_walk ~seed:(seed + 17) ~speed:3. ~d s in
      let ok = ref true in
      for _ = 1 to 6 do
        let g = walk_step s mob in
        let _ev = Backbone_maintenance.update bm g in
        let bb = Backbone_maintenance.backbone bm in
        let fresh = Static.build ~clustering:bb.Static.clustering g mode in
        if not (Nodeset.equal fresh.members bb.members) then ok := false;
        if not (Nodeset.equal fresh.gateways bb.gateways) then ok := false;
        if not (coverage_slots_equal fresh.coverages bb.coverages) then ok := false;
        (* and it must be a CDS whenever the topology stays connected *)
        if Manet_graph.Connectivity.is_connected g && not (Static.is_cds bb) then ok := false
      done;
      !ok)
    [ Coverage.Hop25; Coverage.Hop3 ]

(* Small sparse graphs (the default degrees, d = 4 included) disconnect,
   depose and re-elect heads most often; the larger class reaches n = 200
   at degrees that still yield connected samples there. *)
let prop_bm_equals_rebuild =
  qtest "incremental backbone = rebuild over maintained clustering" ~count:20
    (arb_udg ~n_min:20 ~n_max:50 ())
    bm_equals_rebuild

let prop_bm_equals_rebuild_large =
  qtest "incremental backbone = rebuild, n up to 200" ~count:20
    (arb_udg ~n_min:20 ~n_max:200 ~ds:[ 6.; 10.; 18. ] ())
    bm_equals_rebuild

(* Join and leave churn, as the serving loop applies it: each step
   parks one to three nodes on a rail outside the field (isolated) or
   brings parked ones back, and every fourth step hands [update] the
   snapshot it already holds.  Only a few small 3-hop balls change per
   step, so this reaches the head-local refresh that whole-graph motion
   never does. *)
let bm_join_leave_equals_rebuild case =
  let seed, _, _ = case in
  let s = sample_of case in
  let n = Graph.n s.graph and radius = s.radius in
  let park v =
    Manet_geom.Point.make ~x:(float_of_int v *. ((2. *. radius) +. 1.))
      ~y:(100. +. (2. *. radius) +. 1.)
  in
  List.for_all
    (fun mode ->
      let rng = Manet_rng.Rng.create ~seed:(seed + 23) in
      let pts = Array.copy s.points in
      let parked = Array.make n false in
      let bm = Backbone_maintenance.create s.graph mode in
      let ok = ref true in
      for step = 1 to 12 do
        if step mod 4 = 0 then begin
          let ev = Backbone_maintenance.update bm (Backbone_maintenance.graph bm) in
          if ev.total_messages <> 0 || ev.refreshed_heads <> 0 then ok := false
        end
        else begin
          for _ = 1 to 1 + Manet_rng.Rng.int rng 3 do
            let v = Manet_rng.Rng.int rng n in
            parked.(v) <- not parked.(v);
            pts.(v) <- (if parked.(v) then park v else s.points.(v))
          done;
          ignore (Backbone_maintenance.update bm (Manet_graph.Unit_disk.build ~radius pts))
        end;
        let g = Backbone_maintenance.graph bm in
        let bb = Backbone_maintenance.backbone bm in
        let fresh = Static.build ~clustering:bb.Static.clustering g mode in
        if not (Nodeset.equal fresh.members bb.members) then ok := false;
        if not (Nodeset.equal fresh.gateways bb.gateways) then ok := false;
        if not (coverage_slots_equal fresh.coverages bb.coverages) then ok := false
      done;
      !ok)
    [ Coverage.Hop25; Coverage.Hop3 ]

let prop_bm_join_leave_equals_rebuild =
  qtest "incremental backbone = rebuild under join/leave" ~count:30
    (arb_udg ~n_min:20 ~n_max:200 ~ds:[ 6.; 10.; 18. ] ())
    bm_join_leave_equals_rebuild

(* The report stream along one seeded n = 1000 random-waypoint
   trajectory, summed field by field.  The expected sums were recorded
   before the maintenance state moved to flat arrays and a shared
   CH_HOP cache; any change to which heads refresh or how messages are
   counted shows here. *)
let test_bm_report_stream_pinned () =
  let s = udg ~seed:1016 ~n:1000 ~d:12. in
  let bm = Backbone_maintenance.create s.graph Coverage.Hop25 in
  let mob = mobility_walk ~seed:1017 ~speed:2. ~d:12. s in
  let refreshed = ref 0 and ch_hop = ref 0 and gateway = ref 0 and total = ref 0 in
  for _ = 1 to 20 do
    let ev = Backbone_maintenance.update bm (walk_step s mob) in
    refreshed := !refreshed + ev.refreshed_heads;
    ch_hop := !ch_hop + ev.ch_hop_messages;
    gateway := !gateway + ev.gateway_messages;
    total := !total + ev.total_messages
  done;
  Alcotest.(check (list int))
    "refreshed, ch_hop, gateway, total" [ 2444; 35000; 10311; 51785 ]
    [ !refreshed; !ch_hop; !gateway; !total ]

let test_bm_message_accounting () =
  (* A single changed region refreshes few heads; accounting fields are
     consistent. *)
  let g = paper_graph () in
  let bm = Backbone_maintenance.create g Coverage.Hop25 in
  let g2 = Graph.of_edges ~n:10 ((0, 1) :: Test_helpers.paper_edges) in
  let ev = Backbone_maintenance.update bm g2 in
  Alcotest.(check bool) "some refresh" true (ev.refreshed_heads > 0);
  Alcotest.(check int) "total = parts"
    (ev.cluster_events.messages + ev.ch_hop_messages + ev.gateway_messages)
    ev.total_messages

let () =
  Alcotest.run "static"
    [
      ( "paper",
        [
          Alcotest.test_case "figure 3 backbone" `Quick test_paper_backbone;
          Alcotest.test_case "SI broadcast (9 forwards)" `Quick test_paper_broadcast;
          Alcotest.test_case "broadcast from non-member" `Quick test_paper_broadcast_from_non_member;
        ] );
      ( "shapes",
        [
          Alcotest.test_case "complete graph" `Quick test_complete_graph_backbone;
          Alcotest.test_case "chain" `Quick test_chain_backbone;
          Alcotest.test_case "two nodes" `Quick test_two_nodes;
          Alcotest.test_case "explicit clustering" `Quick test_explicit_clustering_shared;
        ] );
      ( "theorem1",
        [
          prop_theorem1;
          prop_theorem1_highest_degree;
          prop_composition;
          prop_broadcast_delivers;
        ] );
      ( "cluster_graph",
        [
          Alcotest.test_case "paper figure 4a (2.5-hop)" `Quick test_paper_cluster_graph_25;
          Alcotest.test_case "paper figure 4b (3-hop)" `Quick test_paper_cluster_graph_3;
          prop_cluster_graph_strongly_connected;
          prop_hop3_symmetric;
        ] );
      ( "gateway_proto",
        [
          Alcotest.test_case "paper example" `Quick test_gateway_proto_paper;
          prop_gateway_proto_matches_centralized;
        ] );
      ( "backbone_maintenance",
        [
          Alcotest.test_case "no change" `Quick test_bm_no_change;
          Alcotest.test_case "initial equals build" `Quick test_bm_initial_equals_build;
          Alcotest.test_case "node count guard" `Quick test_bm_node_count_guard;
          prop_bm_equals_rebuild;
          prop_bm_equals_rebuild_large;
          prop_bm_join_leave_equals_rebuild;
          Alcotest.test_case "message accounting" `Quick test_bm_message_accounting;
          Alcotest.test_case "pinned report stream (n=1000)" `Quick test_bm_report_stream_pinned;
        ] );
      ( "construction_cost",
        [
          Alcotest.test_case "paper example accounting" `Quick test_cost_paper;
          prop_cost_linear;
          prop_distributed_equals_centralized;
        ] );
    ]
