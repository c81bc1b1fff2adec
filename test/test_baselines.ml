module Graph = Manet_graph.Graph
module Nodeset = Manet_graph.Nodeset
module Dominating = Manet_graph.Dominating
module Lowest_id = Manet_cluster.Lowest_id
module Mo_cds = Manet_baselines.Mo_cds
module Wu_li = Manet_baselines.Wu_li
module Mpr = Manet_baselines.Mpr
module Passive = Manet_baselines.Passive_clustering
module Tree_cds = Manet_baselines.Tree_cds
module Forwarding_tree = Manet_baselines.Forwarding_tree
module Set_cover = Manet_baselines.Set_cover
module Static = Manet_backbone.Static_backbone
open Test_helpers

(* Set cover *)

let test_set_cover_basic () =
  let u = set_of_list [ 1; 2; 3; 4; 5 ] in
  let candidates =
    [ (10, set_of_list [ 1; 2; 3 ]); (11, set_of_list [ 3; 4 ]); (12, set_of_list [ 4; 5 ]) ]
  in
  Alcotest.(check (list int)) "greedy picks bulk first" [ 10; 12 ]
    (Set_cover.greedy ~universe:u ~candidates)

let test_set_cover_tie_break () =
  let u = set_of_list [ 1; 2 ] in
  let candidates = [ (5, set_of_list [ 1; 2 ]); (3, set_of_list [ 1; 2 ]) ] in
  (* ties break toward the earliest candidate in the list *)
  Alcotest.(check (list int)) "first listed wins tie" [ 5 ]
    (Set_cover.greedy ~universe:u ~candidates)

let test_set_cover_uncoverable () =
  let u = set_of_list [ 1; 9 ] in
  let candidates = [ (0, set_of_list [ 1 ]) ] in
  Alcotest.(check (list int)) "covers what it can" [ 0 ]
    (Set_cover.greedy ~universe:u ~candidates)

let test_set_cover_empty_universe () =
  Alcotest.(check (list int)) "nothing to do" []
    (Set_cover.greedy ~universe:Nodeset.empty ~candidates:[ (0, set_of_list [ 1 ]) ])

(* MO_CDS *)

let test_mo_cds_paper () =
  let g = paper_graph () in
  let m = Mo_cds.build g in
  Alcotest.(check bool) "is a CDS" true (Mo_cds.is_cds m);
  Alcotest.(check bool) "heads inside" true
    (Nodeset.subset (set_of_list [ 0; 1; 2; 3 ]) m.members);
  let r = broadcast "mo_cds" g ~source:0 in
  Alcotest.(check bool) "broadcast delivers" true (Result.all_delivered r)

let prop_mo_cds_is_cds =
  qtest "MO_CDS is a CDS" ~count:100 (arb_udg ()) (fun case ->
      let g = (sample_of case).graph in
      Mo_cds.is_cds (Mo_cds.build g))

let prop_mo_cds_not_smaller_than_static =
  (* Figure 6's ordering: the greedy static backbone is never (well,
     rarely and never by much) larger; we assert the weak per-sample bound
     static <= mo + 2 that held across the calibration runs, and the
     strict inequality on average is left to the benchmark. *)
  qtest "static within MO_CDS + 2" ~count:60 (arb_udg ()) (fun case ->
      let g = (sample_of case).graph in
      let cl = Lowest_id.cluster g in
      let s = Static.size (Static.build ~clustering:cl g Manet_coverage.Coverage.Hop3) in
      let m = Mo_cds.size (Mo_cds.build ~clustering:cl g) in
      s <= m + 2)

(* Flooding *)

let test_flooding_everyone_forwards () =
  let g = paper_graph () in
  let r = broadcast "flooding" g ~source:0 in
  Alcotest.(check int) "all nodes forward" 10 (Result.forward_count r);
  Alcotest.(check bool) "delivers" true (Result.all_delivered r)

let prop_flooding_counts_n =
  qtest "flooding forward count = n" ~count:40 (arb_udg ()) (fun case ->
      let seed, n, _ = case in
      let g = (sample_of case).graph in
      Result.forward_count (broadcast "flooding" g ~source:(seed mod n)) = Graph.n g)

(* Wu-Li *)

let test_wu_li_marking_path () =
  let g = Graph.path 5 in
  let w = Wu_li.build g in
  (* Interior nodes have two non-adjacent neighbors; endpoints do not. *)
  Alcotest.check nodeset "marked = interior" (set_of_list [ 1; 2; 3 ]) w.marked;
  Alcotest.(check bool) "is cds" true (Wu_li.is_cds w)

let test_wu_li_complete_graph () =
  let g = Graph.complete 5 in
  let w = Wu_li.build g in
  Alcotest.(check int) "nothing marked in a clique" 0 (Wu_li.size w);
  (* Broadcast still delivers: the source covers everyone directly. *)
  Alcotest.(check bool) "broadcast covers clique" true
    (Result.all_delivered (broadcast "wu-li" g ~source:2))

let test_wu_li_rule1 () =
  (* Two adjacent centers with nested neighborhoods: the lower-id center
     is pruned by Rule 1.  Node 3 is marked (neighbors 0 and 1 are not
     adjacent) and N[3] subset N[4]. *)
  let g = Graph.of_edges ~n:5 [ (3, 0); (3, 1); (3, 4); (4, 0); (4, 1); (4, 2) ] in
  let w = Wu_li.build g in
  Alcotest.(check bool) "3 marked initially" true (Nodeset.mem 3 w.marked);
  Alcotest.(check bool) "3 pruned by rule 1" false (Nodeset.mem 3 w.members);
  Alcotest.(check bool) "4 stays" true (Nodeset.mem 4 w.members);
  Alcotest.(check bool) "still a CDS" true (Wu_li.is_cds w)

let test_wu_li_rule2 () =
  (* Node 0 is marked (neighbors 1 and 2 are not adjacent); its open
     neighborhood {1,2,3,4} is covered by N(3) U N(4) where 3 and 4 are
     adjacent, marked, higher-id neighbors — but neither N[3] nor N[4]
     alone covers N[0], so only Rule 2 applies. *)
  let g =
    Graph.of_edges ~n:5 [ (0, 1); (0, 2); (0, 3); (0, 4); (1, 3); (2, 4); (3, 4) ]
  in
  let w = Wu_li.build g in
  Alcotest.(check bool) "0 marked" true (Nodeset.mem 0 w.marked);
  Alcotest.(check bool) "0 pruned by rule 2" false (Nodeset.mem 0 w.members);
  Alcotest.(check bool) "3 kept" true (Nodeset.mem 3 w.members);
  Alcotest.(check bool) "4 kept" true (Nodeset.mem 4 w.members);
  Alcotest.(check bool) "still a CDS" true (Wu_li.is_cds w)

let prop_wu_li_is_cds =
  qtest "Wu-Li survivors form a CDS (or graph is a clique)" ~count:100 (arb_udg ())
    (fun case ->
      let g = (sample_of case).graph in
      let w = Wu_li.build g in
      if Nodeset.is_empty w.members then
        (* Only complete graphs mark nothing. *)
        Graph.m g = Graph.n g * (Graph.n g - 1) / 2
      else Wu_li.is_cds w)

let prop_wu_li_broadcast_delivers =
  qtest "Wu-Li broadcast delivers" ~count:60 (arb_udg ()) (fun case ->
      let seed, n, _ = case in
      let g = (sample_of case).graph in
      Result.all_delivered (broadcast "wu-li" g ~source:(seed mod n)))

(* DP / PDP *)

let test_dp_paper () =
  let g = paper_graph () in
  let r = broadcast "dp" g ~source:0 in
  Alcotest.(check bool) "delivers" true (Result.all_delivered r);
  Alcotest.(check bool) "fewer than flooding" true (Result.forward_count r < 10)

let prop_dp_delivers =
  qtest "dominant pruning delivers" ~count:80 (arb_udg ()) (fun case ->
      let seed, n, _ = case in
      let g = (sample_of case).graph in
      Result.all_delivered (broadcast "dp" g ~source:(seed mod n)))

let prop_pdp_delivers =
  qtest "partial dominant pruning delivers" ~count:80 (arb_udg ()) (fun case ->
      let seed, n, _ = case in
      let g = (sample_of case).graph in
      Result.all_delivered (broadcast "pdp" g ~source:(seed mod n)))

let test_pdp_not_worse_than_dp_on_average () =
  (* PDP prunes a superset of DP's universe.  Per-sample the cascade can
     occasionally favour DP (greedy artifacts), so the claim is aggregate:
     over many topologies PDP forwards no more than DP on average. *)
  let dp_sum = forward_sum ~seed:17 ~count:60 ~n:50 ~d:10. "dp" in
  let pdp_sum = forward_sum ~seed:17 ~count:60 ~n:50 ~d:10. "pdp" in
  Alcotest.(check bool)
    (Printf.sprintf "pdp mean (%d) <= dp mean (%d)" pdp_sum dp_sum)
    true (pdp_sum <= dp_sum)

(* MPR *)

let test_mpr_sets_cover_two_hop () =
  let g = paper_graph () in
  for v = 0 to Graph.n g - 1 do
    let mprs = Mpr.mpr_set g v in
    let two_hop =
      Nodeset.diff (Manet_graph.Bfs.ring g ~source:v ~k:2) Nodeset.empty
    in
    let covered =
      Nodeset.fold (fun m acc -> Nodeset.union acc (Graph.open_neighborhood g m)) mprs
        Nodeset.empty
    in
    if not (Nodeset.subset two_hop covered) then
      Alcotest.failf "MPR(%d) does not cover its 2-hop neighborhood" v
  done

let prop_mpr_sets_cover =
  qtest "MPR sets cover strict 2-hop neighborhoods" ~count:60 (arb_udg ()) (fun case ->
      let g = (sample_of case).graph in
      let ok = ref true in
      for v = 0 to Graph.n g - 1 do
        let covered =
          Nodeset.fold
            (fun m acc -> Nodeset.union acc (Graph.open_neighborhood g m))
            (Mpr.mpr_set g v) Nodeset.empty
        in
        if not (Nodeset.subset (Manet_graph.Bfs.ring g ~source:v ~k:2) covered) then ok := false
      done;
      !ok)

let prop_mpr_delivers =
  qtest "MPR broadcast delivers" ~count:80 (arb_udg ()) (fun case ->
      let seed, n, _ = case in
      let g = (sample_of case).graph in
      Result.all_delivered (broadcast "mpr" g ~source:(seed mod n)))

(* One prepared instance computes the MPR sets once and shares them
   across its broadcasts: every broadcast equals a fresh preparation's,
   and every relay is an MPR of a forwarding neighbor. *)
let test_mpr_shared_sets () =
  let g = paper_graph () in
  let built = (Manet_protocols.Registry.find_exn "mpr").prepare (Protocol.make_env g) in
  let sets = Mpr.mpr_sets g in
  List.iter
    (fun source ->
      let fresh = broadcast "mpr" g ~source in
      let shared, _ = built.run ~source ~mode:Protocol.Perfect in
      Alcotest.check nodeset "same forwarders" fresh.forwarders shared.forwarders;
      Nodeset.iter
        (fun v ->
          if v <> source && not (Graph.fold_neighbors g v (fun acc u ->
              acc || (Nodeset.mem u shared.forwarders && Nodeset.mem v sets.(u))) false)
          then Alcotest.failf "forwarder %d is no MPR of a forwarding neighbor" v)
        shared.forwarders)
    [ 0; 4; 9 ]

(* Spanning-tree CDS *)

let test_tree_cds_families () =
  let star = Tree_cds.build (Graph.star 8) in
  Alcotest.(check bool) "star cds" true (Tree_cds.is_cds star);
  Alcotest.(check bool) "root in mis" true (Nodeset.mem 0 star.mis);
  let path = Tree_cds.build (Graph.path 7) in
  Alcotest.(check bool) "path cds" true (Tree_cds.is_cds path);
  let k = Tree_cds.build (Graph.complete 5) in
  Alcotest.(check int) "clique: just the root" 1 (Tree_cds.size k)

let test_tree_cds_validation () =
  Alcotest.check_raises "empty" (Invalid_argument "Tree_cds.build: empty graph") (fun () ->
      ignore (Tree_cds.build (Graph.empty 0)));
  Alcotest.check_raises "disconnected" (Invalid_argument "Tree_cds.build: disconnected graph")
    (fun () -> ignore (Tree_cds.build (Graph.empty 3)))

let prop_tree_cds_is_cds =
  qtest "spanning-tree CDS is a CDS" ~count:80 (arb_udg ()) (fun case ->
      let g = (sample_of case).graph in
      let t = Tree_cds.build g in
      Tree_cds.is_cds t
      && Manet_graph.Dominating.is_independent g t.mis
      && Manet_graph.Dominating.is_dominating g t.mis)

let prop_tree_cds_broadcast_delivers =
  qtest "tree CDS broadcast delivers" ~count:40 (arb_udg ()) (fun case ->
      let seed, n, _ = case in
      let g = (sample_of case).graph in
      Result.all_delivered (broadcast "tree-cds" g ~source:(seed mod n)))

(* Pagani-Rossi forwarding tree *)

let ftree g source =
  let cl = Lowest_id.cluster g in
  Forwarding_tree.build g cl Manet_coverage.Coverage.Hop25 ~source

let test_forwarding_tree_paper () =
  let g = paper_graph () in
  let t = ftree g 9 in
  Alcotest.(check int) "rooted at source's head" 2 t.root;
  Alcotest.(check bool) "is a CDS" true (Forwarding_tree.is_cds t);
  Alcotest.(check bool) "acks = members - 1" true
    (Forwarding_tree.ack_messages t = Forwarding_tree.size t - 1);
  let r = broadcast "fwd-tree" g ~source:9 in
  Alcotest.(check bool) "delivers" true (Result.all_delivered r)

let test_forwarding_tree_parents () =
  let g = paper_graph () in
  let t = ftree g 0 in
  (* Every member other than the root has a parent inside the tree, and
     parents are graph neighbors. *)
  Nodeset.iter
    (fun v ->
      if v <> t.root then begin
        let p = t.parent.(v) in
        if p < 0 then Alcotest.failf "member %d has no parent" v;
        if not (Nodeset.mem p t.members) then Alcotest.failf "parent %d outside tree" p;
        if not (Graph.mem_edge g v p) then Alcotest.failf "tree edge %d-%d not a link" v p
      end)
    t.members;
  Alcotest.(check bool) "depth positive" true (Forwarding_tree.depth t >= 2)

let prop_forwarding_tree_cds =
  qtest "forwarding tree spans a CDS" ~count:60 (arb_udg ()) (fun case ->
      let seed, n, _ = case in
      let g = (sample_of case).graph in
      let t = ftree g (seed mod n) in
      Forwarding_tree.is_cds t
      && Result.all_delivered (broadcast "fwd-tree" g ~source:(seed mod n)))

let prop_forwarding_tree_parents_valid =
  qtest "forwarding tree parents are tree links" ~count:40 (arb_udg ()) (fun case ->
      let seed, n, _ = case in
      let g = (sample_of case).graph in
      let t = ftree g (seed mod n) in
      Nodeset.for_all
        (fun v ->
          v = t.root
          || (t.parent.(v) >= 0
             && Nodeset.mem t.parent.(v) t.members
             && Graph.mem_edge g v t.parent.(v)))
        t.members)

(* AHBP *)

let test_ahbp_paper () =
  let g = paper_graph () in
  let r = broadcast "ahbp" g ~source:0 in
  Alcotest.(check bool) "delivers" true (Result.all_delivered r);
  Alcotest.(check bool) "fewer than flooding" true (Result.forward_count r < 10)

let prop_ahbp_delivers =
  qtest "AHBP delivers" ~count:80 (arb_udg ()) (fun case ->
      let seed, n, _ = case in
      let g = (sample_of case).graph in
      Result.all_delivered (broadcast "ahbp" g ~source:(seed mod n)))

let test_ahbp_not_worse_than_dp_on_average () =
  (* AHBP's universe is a subset of DP's, so on average it selects no
     more forwards. *)
  let dp_sum = forward_sum ~seed:23 ~count:60 ~n:50 ~d:10. "dp" in
  let ahbp_sum = forward_sum ~seed:23 ~count:60 ~n:50 ~d:10. "ahbp" in
  Alcotest.(check bool)
    (Printf.sprintf "ahbp mean (%d) <= dp mean (%d)" ahbp_sum dp_sum)
    true (ahbp_sum <= dp_sum)

(* Backoff self-pruning *)

let prop_self_pruning_delivers =
  qtest "self-pruning always delivers" ~count:80 (arb_udg ()) (fun case ->
      let seed, n, _ = case in
      let g = (sample_of case).graph in
      let rng = Manet_rng.Rng.create ~seed:(seed + 1) in
      Result.all_delivered (broadcast ~rng "self-pruning" g ~source:(seed mod n)))

let prop_self_pruning_saves =
  qtest "self-pruning forwards at most n" ~count:40 (arb_udg ~n_min:20 ()) (fun case ->
      let seed, n, _ = case in
      let g = (sample_of case).graph in
      let rng = Manet_rng.Rng.create ~seed:(seed + 1) in
      Result.forward_count (broadcast ~rng "self-pruning" g ~source:(seed mod n)) <= Graph.n g)

let test_self_pruning_dense_savings () =
  (* On a dense network the backoff scheme must prune a lot. *)
  let s = udg ~seed:41 ~n:80 ~d:18. in
  let rng = Manet_rng.Rng.create ~seed:42 in
  let r = broadcast ~rng "self-pruning" s.graph ~source:0 in
  Alcotest.(check bool)
    (Printf.sprintf "%d forwards < 80%% of nodes" (Result.forward_count r))
    true
    (Result.forward_count r * 5 < Graph.n s.graph * 4);
  Alcotest.(check bool) "still delivers" true (Result.all_delivered r)

let test_self_pruning_complete_graph () =
  let g = Graph.complete 10 in
  let rng = Manet_rng.Rng.create ~seed:1 in
  let r = broadcast ~rng "self-pruning" g ~source:3 in
  (* Source covers everyone; every other node hears a transmission whose
     closed neighborhood covers its own -> all resign. *)
  Alcotest.(check int) "only the source transmits" 1 (Result.forward_count r);
  Alcotest.(check bool) "delivers" true (Result.all_delivered r)

let test_self_pruning_deterministic () =
  let g = (udg ~seed:5 ~n:40 ~d:8.).graph in
  let run () =
    broadcast ~rng:(Manet_rng.Rng.create ~seed:77) "self-pruning" g ~source:0
  in
  Alcotest.check nodeset "same forwarders" (run ()).forwarders (run ()).forwarders

(* Counter-based scheme *)

let test_counter_complete_graph () =
  (* Dense clique: everyone hears >= threshold copies during backoff;
     only early deciders transmit. *)
  let g = Graph.complete 20 in
  let rng = Manet_rng.Rng.create ~seed:2 in
  let r = broadcast ~rng "counter" g ~source:0 in
  Alcotest.(check bool) "few forwards" true (Result.forward_count r < 10);
  Alcotest.(check bool) "delivers" true (Result.all_delivered r)

let test_counter_path_floods () =
  (* On a path nobody ever hears 3 copies: counter-based = flooding. *)
  let g = Graph.path 10 in
  let rng = Manet_rng.Rng.create ~seed:3 in
  let r = broadcast ~rng "counter" g ~source:0 in
  Alcotest.(check int) "all forward" 10 (Result.forward_count r);
  Alcotest.(check bool) "delivers" true (Result.all_delivered r)

let test_counter_validation () =
  let g = Graph.path 3 in
  List.iter
    (fun source ->
      Alcotest.check_raises "source out of range"
        (Invalid_argument "Counter_based: source out of range") (fun () ->
          ignore (broadcast "counter" g ~source)))
    [ -1; 3 ]

(* Ni et al. report the counter scheme's reachability is good in dense
   networks and degrades in sparse ones; assert both sides. *)
let prop_counter_high_delivery_dense =
  qtest "counter-based delivery high on dense graphs" ~count:40
    (arb_udg ~n_min:30 ~ds:[ 18. ] ()) (fun case ->
      let seed, n, _ = case in
      let g = (sample_of case).graph in
      let rng = Manet_rng.Rng.create ~seed:(seed + 3) in
      let r = broadcast ~rng "counter" g ~source:(seed mod n) in
      Result.delivery_ratio r >= 0.9)

let test_counter_sparse_delivery_degrades () =
  (* Mean delivery at d = 6 sits well below the dense regime but above
     collapse; per-run it can drop sharply (min observed ~0.07). *)
  let sum = ref 0. in
  let runs = 120 in
  for seed = 1 to runs do
    let s = udg ~seed ~n:60 ~d:6. in
    let rng = Manet_rng.Rng.create ~seed:(seed + 3) in
    let r = broadcast ~rng "counter" s.graph ~source:(seed mod 60) in
    sum := !sum +. Result.delivery_ratio r
  done;
  let mean = !sum /. float_of_int runs in
  Alcotest.(check bool)
    (Printf.sprintf "sparse mean delivery %.3f within (0.7, 0.99)" mean)
    true
    (mean > 0.7 && mean < 0.99)

(* Passive clustering *)

let test_passive_paper_graph () =
  let g = paper_graph () in
  let rng = Manet_rng.Rng.create ~seed:3 in
  let p, _ = Passive.run ~rng g ~source:0 in
  Alcotest.(check bool) "source is clusterhead" true (Nodeset.mem 0 (Passive.heads p));
  (* Roles partition the nodes. *)
  Alcotest.(check int) "role partition" 10
    (Nodeset.cardinal (Passive.heads p)
    + Nodeset.cardinal (Passive.gateways p)
    + Array.fold_left
        (fun acc r -> if r = Passive.Ordinary then acc + 1 else acc)
        0 p.roles)

let prop_passive_cheaper_than_flooding =
  qtest "passive clustering forwards less than flooding" ~count:40 (arb_udg ~n_min:30 ())
    (fun case ->
      let seed, n, _ = case in
      let g = (sample_of case).graph in
      let rng = Manet_rng.Rng.create ~seed:(seed + 9) in
      let p, _ = Passive.run ~rng g ~source:(seed mod n) in
      Result.forward_count p.result < Graph.n g)

let prop_passive_forwarders_are_heads_or_gateways =
  qtest "passive forwarders declared head or gateway-candidate" ~count:40 (arb_udg ())
    (fun case ->
      let seed, n, _ = case in
      let g = (sample_of case).graph in
      let rng = Manet_rng.Rng.create ~seed:(seed + 9) in
      let p, _ = Passive.run ~rng g ~source:(seed mod n) in
      (* Heads always forwarded; ordinary nodes that forwarded were
         gateway candidates with a single clusterhead - allowed.  The
         real invariant: nobody marked Gateway stayed silent, and heads
         all transmitted. *)
      Nodeset.subset (Passive.heads p) p.result.forwarders
      && Nodeset.subset (Passive.gateways p) p.result.forwarders)

(* Cross-algorithm sanity on one mid-size network: flooding is the upper
   bound; every smart protocol beats it. *)
let test_everybody_beats_flooding () =
  let s = udg ~seed:31 ~n:80 ~d:10. in
  let g = s.graph in
  let cl = Lowest_id.cluster g in
  let count name = Result.forward_count (broadcast ~clustering:(lazy cl) name g ~source:0) in
  let flood = count "flooding" in
  List.iter
    (fun name ->
      let c = count name in
      Alcotest.(check bool) (Printf.sprintf "%s (%d) < flooding (%d)" name c flood) true (c < flood))
    [ "dp"; "pdp"; "mpr"; "dynamic-2.5hop"; "mo_cds" ]

let () =
  Alcotest.run "baselines"
    [
      ( "set_cover",
        [
          Alcotest.test_case "greedy order" `Quick test_set_cover_basic;
          Alcotest.test_case "tie break" `Quick test_set_cover_tie_break;
          Alcotest.test_case "uncoverable elements" `Quick test_set_cover_uncoverable;
          Alcotest.test_case "empty universe" `Quick test_set_cover_empty_universe;
        ] );
      ( "mo_cds",
        [
          Alcotest.test_case "paper graph" `Quick test_mo_cds_paper;
          prop_mo_cds_is_cds;
          prop_mo_cds_not_smaller_than_static;
        ] );
      ( "flooding",
        [
          Alcotest.test_case "everyone forwards" `Quick test_flooding_everyone_forwards;
          prop_flooding_counts_n;
        ] );
      ( "wu_li",
        [
          Alcotest.test_case "path marking" `Quick test_wu_li_marking_path;
          Alcotest.test_case "complete graph" `Quick test_wu_li_complete_graph;
          Alcotest.test_case "rule 1" `Quick test_wu_li_rule1;
          Alcotest.test_case "rule 2" `Quick test_wu_li_rule2;
          prop_wu_li_is_cds;
          prop_wu_li_broadcast_delivers;
        ] );
      ( "dp_pdp",
        [
          Alcotest.test_case "dp paper graph" `Quick test_dp_paper;
          prop_dp_delivers;
          prop_pdp_delivers;
          Alcotest.test_case "PDP <= DP on average" `Quick test_pdp_not_worse_than_dp_on_average;
        ] );
      ( "tree_cds",
        [
          Alcotest.test_case "families" `Quick test_tree_cds_families;
          Alcotest.test_case "validation" `Quick test_tree_cds_validation;
          prop_tree_cds_is_cds;
          prop_tree_cds_broadcast_delivers;
        ] );
      ( "forwarding_tree",
        [
          Alcotest.test_case "paper graph" `Quick test_forwarding_tree_paper;
          Alcotest.test_case "parent structure" `Quick test_forwarding_tree_parents;
          prop_forwarding_tree_cds;
          prop_forwarding_tree_parents_valid;
        ] );
      ( "ahbp",
        [
          Alcotest.test_case "paper graph" `Quick test_ahbp_paper;
          prop_ahbp_delivers;
          Alcotest.test_case "AHBP <= DP on average" `Quick test_ahbp_not_worse_than_dp_on_average;
        ] );
      ( "self_pruning",
        [
          prop_self_pruning_delivers;
          prop_self_pruning_saves;
          Alcotest.test_case "dense savings" `Quick test_self_pruning_dense_savings;
          Alcotest.test_case "complete graph" `Quick test_self_pruning_complete_graph;
          Alcotest.test_case "deterministic" `Quick test_self_pruning_deterministic;
        ] );
      ( "counter",
        [
          Alcotest.test_case "complete graph quenches" `Quick test_counter_complete_graph;
          Alcotest.test_case "path floods" `Quick test_counter_path_floods;
          Alcotest.test_case "validation" `Quick test_counter_validation;
          prop_counter_high_delivery_dense;
          Alcotest.test_case "sparse delivery degrades" `Quick test_counter_sparse_delivery_degrades;
        ] );
      ( "passive",
        [
          Alcotest.test_case "paper graph roles" `Quick test_passive_paper_graph;
          prop_passive_cheaper_than_flooding;
          prop_passive_forwarders_are_heads_or_gateways;
        ] );
      ( "mpr",
        [
          Alcotest.test_case "covers 2-hop (paper graph)" `Quick test_mpr_sets_cover_two_hop;
          prop_mpr_sets_cover;
          prop_mpr_delivers;
          Alcotest.test_case "shared sets" `Quick test_mpr_shared_sets;
        ] );
      ("cross", [ Alcotest.test_case "everybody beats flooding" `Quick test_everybody_beats_flooding ]);
    ]
