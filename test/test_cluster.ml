module Graph = Manet_graph.Graph
module Nodeset = Manet_graph.Nodeset
module Dominating = Manet_graph.Dominating
module Clustering = Manet_cluster.Clustering
module Lowest_id = Manet_cluster.Lowest_id
module Lowest_id_proto = Manet_cluster.Lowest_id_proto
module Highest_degree = Manet_cluster.Highest_degree
module Maintenance = Manet_cluster.Maintenance
open Test_helpers

(* Clustering structure *)

let test_of_head_array_valid () =
  let g = paper_graph () in
  let cl = Clustering.of_head_array g paper_head_of in
  Alcotest.(check (list int)) "heads" paper_heads (Clustering.heads cl);
  Alcotest.(check int) "clusters" 4 (Clustering.num_clusters cl);
  Alcotest.(check bool) "head predicate" true (Clustering.is_head cl 0);
  Alcotest.(check bool) "member predicate" false (Clustering.is_head cl 4);
  Alcotest.(check int) "member's head" 2 (Clustering.head_of cl 9);
  Alcotest.(check (list int)) "cluster of 0" [ 0; 4; 5; 6 ] (Clustering.members cl 0);
  Alcotest.(check (list int)) "singleton cluster" [ 3 ] (Clustering.members cl 3)

let test_of_head_array_rejects_non_adjacent () =
  let g = Graph.path 4 in
  (* node 3 claims head 0 but is not adjacent to it *)
  Alcotest.check_raises "non-adjacent member"
    (Invalid_argument "Clustering.of_head_array: member not adjacent to its head") (fun () ->
      ignore (Clustering.of_head_array g [| 0; 0; 2; 0 |]))

let test_of_head_array_rejects_adjacent_heads () =
  let g = Graph.path 3 in
  Alcotest.check_raises "adjacent heads"
    (Invalid_argument "Clustering.of_head_array: clusterheads are not an independent set")
    (fun () -> ignore (Clustering.of_head_array g [| 0; 1; 1 |]))

let test_of_head_array_rejects_dangling_head () =
  let g = Graph.path 3 in
  Alcotest.check_raises "head of head"
    (Invalid_argument "Clustering.of_head_array: head of a head must be itself") (fun () ->
      ignore (Clustering.of_head_array g [| 1; 2; 2 |]))

let test_members_of_non_head () =
  let g = paper_graph () in
  let cl = Lowest_id.cluster g in
  Alcotest.check_raises "not a head" (Invalid_argument "Clustering.members: not a head")
    (fun () -> ignore (Clustering.members cl 5))

let test_classic_gateways () =
  let g = paper_graph () in
  let cl = Lowest_id.cluster g in
  (* Non-heads with a neighbor in a different cluster: 4 (8), 5 (1), 6 (2),
     7 (2), 8 (3,4), 9 (3).  All six non-heads qualify here. *)
  Alcotest.check nodeset "classic gateways" (set_of_list [ 4; 5; 6; 7; 8; 9 ])
    (Clustering.classic_gateways cl g)

(* Lowest-ID centralized *)

let test_paper_clustering () =
  let g = paper_graph () in
  let cl = Lowest_id.cluster g in
  Alcotest.(check (list int)) "heads" paper_heads (Clustering.heads cl);
  Array.iteri
    (fun v h -> Alcotest.(check int) (Printf.sprintf "head of %d" v) h (Clustering.head_of cl v))
    paper_head_of

let test_chain_clustering () =
  (* Ascending chain: heads at even positions. *)
  let g = Graph.path 7 in
  let cl = Lowest_id.cluster g in
  Alcotest.(check (list int)) "chain heads" [ 0; 2; 4; 6 ] (Clustering.heads cl)

let test_complete_graph_clustering () =
  let g = Graph.complete 6 in
  let cl = Lowest_id.cluster g in
  Alcotest.(check (list int)) "single head" [ 0 ] (Clustering.heads cl)

let test_star_clustering () =
  (* Center has the highest id: all leaves are lower.  Leaf 1 wins. *)
  let g = Graph.of_edges ~n:4 [ (3, 0); (3, 1); (3, 2) ] in
  let cl = Lowest_id.cluster g in
  Alcotest.(check bool) "0 is head" true (Clustering.is_head cl 0);
  Alcotest.(check int) "center joins 0" 0 (Clustering.head_of cl 3);
  (* Leaves 1 and 2 see only the center, which is not a head... they have
     no candidate neighbors smaller than themselves once 3 joined 0, so
     they become heads of singleton clusters. *)
  Alcotest.(check (list int)) "heads" [ 0; 1; 2 ] (Clustering.heads cl)

let test_isolated_nodes () =
  let g = Graph.empty 3 in
  let cl = Lowest_id.cluster g in
  Alcotest.(check (list int)) "all heads" [ 0; 1; 2 ] (Clustering.heads cl)

(* The timing subtlety documented in Lowest_id: a member joins the head
   that declares first, not necessarily its smallest adjacent head.  Node
   9 is adjacent to heads 3 and 5; 5 declares immediately (its only
   neighbor is 9), while 3 must wait for 1 to decide.  So 9 joins 5. *)
let test_membership_follows_declaration_order () =
  let g = Graph.of_edges ~n:10 [ (0, 1); (1, 3); (3, 9); (5, 9) ] in
  let cl = Lowest_id.cluster g in
  Alcotest.(check bool) "3 is a head" true (Clustering.is_head cl 3);
  Alcotest.(check bool) "5 is a head" true (Clustering.is_head cl 5);
  Alcotest.(check int) "9 joined the early declarer" 5 (Clustering.head_of cl 9)

let invariants g cl =
  let heads = Clustering.head_set cl in
  Dominating.is_independent g heads
  && Dominating.is_dominating g heads
  && List.for_all
       (fun h ->
         List.for_all (fun v -> v = h || Graph.mem_edge g v h) (Clustering.members cl h))
       (Clustering.heads cl)

let prop_invariants =
  qtest "IS + DS + member adjacency on random graphs" ~count:80 (arb_udg ()) (fun case ->
      let g = (sample_of case).graph in
      invariants g (Lowest_id.cluster g))

let prop_greedy_mis =
  qtest "head set = greedy-by-id maximal independent set" ~count:60 (arb_udg ()) (fun case ->
      let g = (sample_of case).graph in
      let cl = Lowest_id.cluster g in
      (* greedy MIS by id *)
      let n = Graph.n g in
      let in_mis = Array.make n false in
      for v = 0 to n - 1 do
        if not (Graph.fold_neighbors g v (fun acc u -> acc || in_mis.(u)) false) then
          in_mis.(v) <- true
      done;
      let expected = Nodeset.of_indicator in_mis in
      Nodeset.equal expected (Clustering.head_set cl))

(* Distributed protocol *)

let test_proto_matches_centralized_paper () =
  let g = paper_graph () in
  let r = Lowest_id_proto.run g in
  let cl = Lowest_id.cluster g in
  for v = 0 to Graph.n g - 1 do
    Alcotest.(check int)
      (Printf.sprintf "head of %d" v)
      (Clustering.head_of cl v)
      (Clustering.head_of r.clustering v)
  done;
  Alcotest.(check int) "one declaration per node" 10 r.transmissions

let prop_proto_matches_centralized =
  qtest "distributed = centralized clustering" ~count:60 (arb_udg ()) (fun case ->
      let g = (sample_of case).graph in
      let r = Lowest_id_proto.run g in
      let cl = Lowest_id.cluster g in
      let ok = ref (r.transmissions = Graph.n g) in
      for v = 0 to Graph.n g - 1 do
        if Clustering.head_of cl v <> Clustering.head_of r.clustering v then ok := false
      done;
      !ok)

let test_proto_chain_rounds_linear () =
  (* The worst case of the paper's time-complexity analysis: a chain with
     monotone ids needs O(n) rounds. *)
  let n = 40 in
  let g = Graph.path n in
  let r = Lowest_id_proto.run g in
  Alcotest.(check bool)
    (Printf.sprintf "rounds %d linear-ish" r.rounds)
    true
    (r.rounds >= n / 2 && r.rounds <= (2 * n) + 4)

(* The election kernel on a partial assignment *)

let test_elect_orphan_joins_head () =
  (* 0 - 1 - 2 with 0 a surviving head and 1, 2 orphans.  Orphans join
     the heads they already see before any of them declares: 1 joins 0
     although no orphan neighbour (2) beats it, and only 2 declares. *)
  let head = [| 0; -1; -1 |] in
  Clustering.elect ~beats:( < ) (Graph.path 3) head;
  Alcotest.(check (array int)) "1 joins 0, 2 declares" [| 0; 0; 2 |] head

(* Highest-degree clustering *)

let test_highest_degree_star () =
  (* High-degree center wins even with the largest id. *)
  let g = Graph.of_edges ~n:4 [ (3, 0); (3, 1); (3, 2) ] in
  let cl = Highest_degree.cluster g in
  Alcotest.(check (list int)) "center is the only head" [ 3 ] (Clustering.heads cl);
  Alcotest.(check int) "leaves join center" 3 (Clustering.head_of cl 0)

let test_highest_degree_tie_by_id () =
  let g = Graph.path 2 in
  let cl = Highest_degree.cluster g in
  Alcotest.(check (list int)) "equal degree: lowest id" [ 0 ] (Clustering.heads cl)

let prop_highest_degree_invariants =
  qtest "highest-degree clustering: IS + DS + adjacency" ~count:60 (arb_udg ()) (fun case ->
      let g = (sample_of case).graph in
      invariants g (Highest_degree.cluster g))

let prop_highest_degree_fewer_clusters_on_average =
  (* Not a theorem per-instance, so aggregate: degree-based election
     tends to produce no more clusters than id-based. *)
  qtest "cluster count comparable to lowest-ID" ~count:30 (arb_udg ~n_min:30 ()) (fun case ->
      let g = (sample_of case).graph in
      let by_deg = Clustering.num_clusters (Highest_degree.cluster g) in
      let by_id = Clustering.num_clusters (Lowest_id.cluster g) in
      (* loose sanity: within a factor of two either way *)
      by_deg <= 2 * by_id && by_id <= 2 * by_deg)

(* Maintenance *)

let test_maintenance_no_change () =
  let g = paper_graph () in
  let m = Maintenance.create g in
  let ev = Maintenance.update m g in
  Alcotest.(check int) "no messages on identical topology" 0 ev.messages;
  Alcotest.(check (list int)) "clustering unchanged" paper_heads
    (Clustering.heads (Maintenance.clustering m))

let test_maintenance_member_moves () =
  (* Node 4 (member of head 0 via edge (0,4)) loses that link but stays
     adjacent to 8 (member of 2): it must re-affiliate or elect. *)
  let g = paper_graph () in
  let m = Maintenance.create g in
  let g2 =
    Graph.of_edges ~n:10
      [ (0, 5); (0, 6); (1, 5); (1, 7); (2, 6); (2, 7); (2, 8); (2, 9); (3, 8); (3, 9); (4, 8) ]
  in
  let ev = Maintenance.update m g2 in
  Alcotest.(check bool) "something changed" true (ev.messages > 0);
  let cl = Maintenance.clustering m in
  (* Node 4's only neighbor is 8 (member of 2, not a head): 4 becomes a
     head of its own singleton cluster. *)
  Alcotest.(check bool) "4 re-settled" true (Clustering.head_of cl 4 = 4 || Clustering.head_of cl 4 = 8)

let test_maintenance_heads_collide () =
  (* Bring heads 0 and 1 into contact: the higher id (1) must be deposed. *)
  let g = paper_graph () in
  let m = Maintenance.create g in
  let g2 = Graph.of_edges ~n:10 ((0, 1) :: Test_helpers.paper_edges) in
  let ev = Maintenance.update m g2 in
  Alcotest.(check int) "one deposition" 1 ev.deposed_heads;
  let cl = Maintenance.clustering m in
  Alcotest.(check bool) "1 no longer a head" false (Clustering.is_head cl 1);
  Alcotest.(check int) "1 joined 0" 0 (Clustering.head_of cl 1)

let test_maintenance_node_count_guard () =
  let m = Maintenance.create (Graph.path 4) in
  Alcotest.check_raises "node count" (Invalid_argument "Maintenance.update: node count changed")
    (fun () -> ignore (Maintenance.update m (Graph.path 5)))

let prop_maintenance_invariants_under_motion =
  qtest "maintained clustering stays valid under motion" ~count:25 (arb_udg ~n_min:20 ())
    (fun case ->
      let seed, _, _ = case in
      let s = sample_of case in
      let m = Maintenance.create s.graph in
      let mob = mobility_walk ~seed:(seed + 5) ~speed:5. ~d:6. s in
      let ok = ref true in
      for _ = 1 to 8 do
        let g = walk_step s mob in
        let _ev = Maintenance.update m g in
        (* clustering both validates (of_head_array checks the cluster
           invariants) and must dominate the new graph *)
        let cl = Maintenance.clustering m in
        if not (Manet_graph.Dominating.is_dominating g (Clustering.head_set cl)) then ok := false
      done;
      !ok)

let test_maintenance_cheaper_than_rebuild () =
  (* Small motion: incremental messages well below n. *)
  let s = udg ~seed:9 ~n:80 ~d:8. in
  let m = Maintenance.create s.graph in
  let mob = mobility_walk ~seed:10 ~speed:1. ~d:8. s in
  let total = ref 0 in
  for _ = 1 to 10 do
    let ev = Maintenance.update m (walk_step s mob) in
    total := !total + ev.messages
  done;
  Alcotest.(check bool)
    (Printf.sprintf "10 steps cost %d msgs < 10 rebuilds (800)" !total)
    true (!total < 800)

let () =
  Alcotest.run "cluster"
    [
      ( "structure",
        [
          Alcotest.test_case "valid construction" `Quick test_of_head_array_valid;
          Alcotest.test_case "rejects non-adjacent member" `Quick
            test_of_head_array_rejects_non_adjacent;
          Alcotest.test_case "rejects adjacent heads" `Quick
            test_of_head_array_rejects_adjacent_heads;
          Alcotest.test_case "rejects dangling head" `Quick test_of_head_array_rejects_dangling_head;
          Alcotest.test_case "members of non-head" `Quick test_members_of_non_head;
          Alcotest.test_case "classic gateways" `Quick test_classic_gateways;
        ] );
      ( "lowest_id",
        [
          Alcotest.test_case "paper example" `Quick test_paper_clustering;
          Alcotest.test_case "chain" `Quick test_chain_clustering;
          Alcotest.test_case "complete graph" `Quick test_complete_graph_clustering;
          Alcotest.test_case "star with high-id center" `Quick test_star_clustering;
          Alcotest.test_case "isolated nodes" `Quick test_isolated_nodes;
          Alcotest.test_case "declaration-order membership" `Quick
            test_membership_follows_declaration_order;
          prop_invariants;
          prop_greedy_mis;
        ] );
      ( "elect",
        [ Alcotest.test_case "orphan joins its visible head" `Quick test_elect_orphan_joins_head ]
      );
      ( "highest_degree",
        [
          Alcotest.test_case "star center wins" `Quick test_highest_degree_star;
          Alcotest.test_case "tie by id" `Quick test_highest_degree_tie_by_id;
          prop_highest_degree_invariants;
          prop_highest_degree_fewer_clusters_on_average;
        ] );
      ( "maintenance",
        [
          Alcotest.test_case "no change, no messages" `Quick test_maintenance_no_change;
          Alcotest.test_case "member re-affiliation" `Quick test_maintenance_member_moves;
          Alcotest.test_case "head collision deposes" `Quick test_maintenance_heads_collide;
          Alcotest.test_case "node count guard" `Quick test_maintenance_node_count_guard;
          prop_maintenance_invariants_under_motion;
          Alcotest.test_case "cheaper than rebuild" `Quick test_maintenance_cheaper_than_rebuild;
        ] );
      ( "distributed",
        [
          Alcotest.test_case "paper example" `Quick test_proto_matches_centralized_paper;
          prop_proto_matches_centralized;
          Alcotest.test_case "chain rounds linear" `Quick test_proto_chain_rounds_linear;
        ] );
    ]
