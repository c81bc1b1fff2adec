module Graph = Manet_graph.Graph
module Nodeset = Manet_graph.Nodeset
module Lowest_id = Manet_cluster.Lowest_id
module Coverage = Manet_coverage.Coverage
module Gateway_selection = Manet_backbone.Gateway_selection
open Test_helpers

let paper () =
  let g = paper_graph () in
  (g, Lowest_id.cluster g)

(* A stand-in for an upstream clusterhead's coverage set whose key set is
   the strictly increasing row [keys], split between C2 and C3
   alternately so that pruning reads both key arrays. *)
let upstream_of keys =
  let c2, c3 = List.partition (fun (i, _) -> i mod 2 = 0) (List.mapi (fun i c -> (i, c)) keys) in
  Coverage.of_sorted ~owner:(-1) Coverage.Hop3
    ~c2:(List.map (fun (_, c) -> (c, [ 0 ])) c2)
    ~c3:(List.map (fun (_, c) -> (c, [ (0, 0) ])) c3)

let select g cl mode h targets =
  Gateway_selection.select (Coverage.of_head g cl mode h) ~targets:(set_of_list targets)

(* The paper's Figure 3 gateway selections (0-indexed). *)
let test_paper_selections () =
  let g, cl = paper () in
  Alcotest.check nodeset "GATEWAY(0)" (set_of_list [ 5; 6 ])
    (select g cl Coverage.Hop25 0 [ 1; 2 ]);
  Alcotest.check nodeset "GATEWAY(1)" (set_of_list [ 5; 7 ])
    (select g cl Coverage.Hop25 1 [ 0; 2 ]);
  Alcotest.check nodeset "GATEWAY(2)" (set_of_list [ 6; 7; 8 ])
    (select g cl Coverage.Hop25 2 [ 0; 1; 3 ]);
  (* Head 3 picks 8 (not 9) because 8 also indirectly covers head 0, and
     pulls in the pair's second hop 4 — the paper highlights exactly this
     choice ("node 4 selects node 9, not node 10"). *)
  Alcotest.check nodeset "GATEWAY(3)" (set_of_list [ 4; 8 ])
    (select g cl Coverage.Hop25 3 [ 0; 2 ])

let test_empty_targets () =
  let g, cl = paper () in
  Alcotest.check nodeset "no targets, no gateways" Nodeset.empty (select g cl Coverage.Hop25 0 [])

let test_partial_targets () =
  let g, cl = paper () in
  (* Covering only head 2 from head 0 needs just node 6. *)
  Alcotest.check nodeset "single target" (set_of_list [ 6 ]) (select g cl Coverage.Hop25 0 [ 2 ])

let test_targets_outside_coverage_ignored () =
  let g, cl = paper () in
  (* Head 1's coverage is {0, 2}; target 3 is silently ignored. *)
  Alcotest.check nodeset "foreign target ignored" (set_of_list [ 5; 7 ])
    (select g cl Coverage.Hop25 1 [ 0; 2; 3 ])

(* A custom scenario where greedy direct-coverage matters: one neighbor
   covers two 2-hop clusterheads at once and must be preferred over two
   single-coverage neighbors. *)
let test_greedy_prefers_bulk_coverage () =
  (* head 0; neighbors 4,5,6; clusterheads 1,2 both adjacent to 6, and
     singly adjacent to 4 and 5 respectively. *)
  let g =
    Graph.of_edges ~n:7 [ (0, 4); (0, 5); (0, 6); (4, 1); (5, 2); (6, 1); (6, 2); (1, 3); (2, 3) ]
  in
  (* ids: ensure 0,1,2 are heads: 0 < 4,5,6; 1's neighbors 4,6,3: 1 is
     lowest; 2's neighbors 5,6,3. *)
  let cl = Lowest_id.cluster g in
  Alcotest.(check bool) "0 head" true (Manet_cluster.Clustering.is_head cl 0);
  Alcotest.(check bool) "1 head" true (Manet_cluster.Clustering.is_head cl 1);
  Alcotest.(check bool) "2 head" true (Manet_cluster.Clustering.is_head cl 2);
  Alcotest.check nodeset "picks the double connector" (set_of_list [ 6 ])
    (select g cl Coverage.Hop25 0 [ 1; 2 ])

(* Tie on direct coverage broken by indirect coverage: the paper's head-3
   case isolated into a miniature. *)
let test_tie_break_indirect () =
  let g, cl = paper () in
  let cov = Coverage.of_head g cl Coverage.Hop25 3 in
  (* Both 8 and 9 directly cover head 2; only 8 indirectly covers 0. *)
  let sel = Gateway_selection.select cov ~targets:(set_of_list [ 2; 0 ]) in
  Alcotest.(check bool) "8 selected" true (Nodeset.mem 8 sel);
  Alcotest.(check bool) "9 not selected" false (Nodeset.mem 9 sel)

(* Tie on both direct and indirect coverage: lowest id wins. *)
let test_tie_break_id () =
  let g, cl = paper () in
  (* From head 2, targets {3}: connectors 8 and 9 both cover it, neither
     covers anything indirectly -> 8 (lowest id). *)
  Alcotest.check nodeset "lowest id" (set_of_list [ 8 ]) (select g cl Coverage.Hop25 2 [ 3 ])

(* Leftover 3-hop targets connected by pairs. *)
let test_pair_fallback () =
  let g, cl = paper () in
  (* Head 3, target only the 3-hop head 0: phase 1 has no 2-hop targets,
     phase 2 must pick the (8, 4) pair. *)
  Alcotest.check nodeset "pair" (set_of_list [ 8; 4 ]) (select g cl Coverage.Hop25 3 [ 0 ])

(* Selected gateways are never clusterheads, and every target ends up
   connected to the owner within the backbone. *)
let prop_selection_covers_targets =
  qtest "selection connects owner to every target" ~count:60 (arb_udg ()) (fun case ->
      let g = (sample_of case).graph in
      let cl = Lowest_id.cluster g in
      List.for_all
        (fun mode ->
          List.for_all
            (fun h ->
              let cov = Coverage.of_head g cl mode h in
              let targets = Coverage.covered cov in
              let sel = Gateway_selection.select cov ~targets in
              (* no clusterheads among gateways *)
              Nodeset.for_all (fun v -> not (Manet_cluster.Clustering.is_head cl v)) sel
              &&
              (* every target reachable from h through selected nodes *)
              let island = Nodeset.add h (Nodeset.union sel targets) in
              let reach = Manet_graph.Connectivity.reachable_within g ~from:h island in
              Nodeset.subset targets reach)
            (Manet_cluster.Clustering.heads cl))
        [ Coverage.Hop25; Coverage.Hop3 ])

(* Size bound: every selection step removes at least one target and adds
   at most a pair of gateways, so |selection| <= 2 |targets|.  The
   pruned entry selects exactly what [select] selects for the targets
   left after pruning: here the upstream is the highest covered head,
   the upstream's coverage set every third covered head and the heard
   row the odd ones. *)
let prop_selection_size_bound =
  qtest "selection size at most twice the targets" ~count:40 (arb_udg ~n_max:40 ()) (fun case ->
      let g = (sample_of case).graph in
      let cl = Lowest_id.cluster g in
      List.for_all
        (fun h ->
          let cov = Coverage.of_head g cl Coverage.Hop25 h in
          let all = Coverage.covered cov in
          let row p = List.filter p (Nodeset.elements all) in
          let upstream = Option.value ~default:(-1) (Nodeset.max_elt_opt all) in
          let upstream_cov = Some (upstream_of (row (fun c -> c mod 3 = 0))) in
          let heard = Array.of_list (row (fun c -> c mod 2 = 1)) in
          let targets =
            Nodeset.filter
              (fun c -> c <> upstream && c mod 3 <> 0 && c mod 2 = 0)
              all
          in
          let pruned = Gateway_selection.select_pruned cov ~upstream ~upstream_cov ~heard in
          let pruned = Array.to_list (Array.sub (Gateway_selection.selection ()) 0 pruned) in
          let whole =
            Gateway_selection.select_pruned cov ~upstream:(-1) ~upstream_cov:None ~heard:[||]
          in
          let whole = Array.to_list (Array.sub (Gateway_selection.selection ()) 0 whole) in
          List.for_all
            (fun targets ->
              Nodeset.cardinal (Gateway_selection.select cov ~targets) <= 2 * Nodeset.cardinal targets)
            [ all; targets ]
          && pruned = Nodeset.elements (Gateway_selection.select cov ~targets)
          && whole = Nodeset.elements (Gateway_selection.select cov))
        (Manet_cluster.Clustering.heads cl))

(* An independent reference for the kernel, written from the
   interface's spec with plain lists over the targets left after pruning
   ([live]).  Phase 1: while 2-hop targets remain, select the neighbor
   covering the most of them directly, then the most 3-hop targets
   indirectly, then the lowest id; it covers those targets and pulls in
   the second hop of each pair through which it reaches a 3-hop one.
   Phase 2: each 3-hop target left, in ascending order, is connected by
   the pair reusing the most selected gateways, then the smallest first
   hop.
   Returns the selection ascending. *)
let reference_select (cov : Coverage.t) ~live =
  let ranges keys off entry =
    List.filter
      (fun (c, _) -> live c)
      (List.init (Array.length keys) (fun i ->
           (keys.(i), List.init (off.(i + 1) - off.(i)) (fun j -> entry (off.(i) + j)))))
  in
  let c2 = ranges cov.c2_keys cov.c2_off (fun j -> cov.c2_via.(j)) in
  let c3 = ranges cov.c3_keys cov.c3_off (fun j -> (cov.c3_v.(j), cov.c3_w.(j))) in
  let rec phase1 t2 t3 sel =
    match List.sort_uniq Int.compare (List.concat_map snd t2) with
    | [] -> (t3, sel)
    | first :: rest ->
      let direct v = List.length (List.filter (fun (_, via) -> List.mem v via) t2) in
      let indirect v = List.length (List.filter (fun (_, pairs) -> List.mem_assoc v pairs) t3) in
      let better v b =
        direct v > direct b
        || (direct v = direct b && (indirect v > indirect b || (indirect v = indirect b && v < b)))
      in
      let best = List.fold_left (fun b v -> if better v b then v else b) first rest in
      let pulled = List.filter_map (fun (_, pairs) -> List.assoc_opt best pairs) t3 in
      phase1
        (List.filter (fun (_, via) -> not (List.mem best via)) t2)
        (List.filter (fun (_, pairs) -> not (List.mem_assoc best pairs)) t3)
        ((best :: pulled) @ sel)
  in
  let t3, sel = phase1 c2 c3 [] in
  let connect sel (_, pairs) =
    let reuse (v, w) = Bool.to_int (List.mem v sel) + Bool.to_int (List.mem w sel) in
    let better (v, w) (bv, bw) =
      reuse (v, w) > reuse (bv, bw) || (reuse (v, w) = reuse (bv, bw) && v < bv)
    in
    let v, w = List.fold_left (fun b p -> if better p b then p else b) (List.hd pairs) pairs in
    v :: w :: sel
  in
  List.sort_uniq Int.compare (List.fold_left connect sel t3)

(* The kernel selects exactly what the reference does, on every head of
   random networks of up to 120 nodes (large enough for phase 2 to meet
   pairs whose second hop is already selected) in both modes: without
   pruning, with a relay's pruning (the upstream is the head's lowest
   covered head, pruning by that head's coverage set, the heard row the
   CH_HOP1 of the head's lowest neighbor), and with a synthetic upstream
   set and row that drop about two targets in three.  Every selected
   node's [hops] is its distance from the head. *)
let prop_kernel_matches_reference =
  qtest "select_pruned = list-based reference greedy" ~count:100
    (arb_udg ~n_max:120 ~ds:[ 6.; 10.; 18. ] ()) (fun case ->
      let g = (sample_of case).graph in
      let cl = Lowest_id.cluster g in
      List.for_all
        (fun mode ->
          let cache = Coverage.Cache.create g cl mode in
          List.for_all
            (fun h ->
              let cov = Coverage.Cache.coverage cache h in
              let all = Nodeset.elements (Coverage.covered cov) in
              let keys = function
                | None -> Nodeset.empty
                | Some up -> Coverage.covered up
              in
              let relay =
                let u = match all with [] -> -1 | u :: _ -> u in
                let up = if u < 0 then None else Some (Coverage.Cache.coverage cache u) in
                let heard =
                  if Graph.degree g h = 0 then [||]
                  else Coverage.Cache.ch_hop1 cache (Graph.fold_neighbors g h min max_int)
                in
                (u, up, heard)
              in
              let row p = List.filter p all in
              let synthetic =
                (-1, Some (upstream_of (row (fun c -> c mod 3 = 0))),
                 Array.of_list (row (fun c -> c mod 3 = 1)))
              in
              List.for_all
                (fun (upstream, upstream_cov, heard) ->
                  let k = Gateway_selection.select_pruned cov ~upstream ~upstream_cov ~heard in
                  let live c =
                    c <> upstream
                    && (not (Nodeset.mem c (keys upstream_cov)))
                    && not (Array.mem c heard)
                  in
                  let sel = Array.to_list (Array.sub (Gateway_selection.selection ()) 0 k) in
                  sel = reference_select cov ~live
                  && List.for_all
                       (fun x ->
                         Gateway_selection.hops x = if Graph.mem_edge g h x then 1 else 2)
                       sel)
                [ (-1, None, [||]); relay; synthetic ])
            (Manet_cluster.Clustering.heads cl))
        [ Coverage.Hop25; Coverage.Hop3 ])

(* The same check on synthetic coverage sets over a dozen heads and
   twenty connectors, where ties, phase 2 and second hops shared between
   3-hop targets are far more common than in a unit-disk network: each
   first hop and second hop is drawn from overlapping ranges, and a
   random third of the keys is pruned. *)
let prop_kernel_matches_reference_synthetic =
  qtest "select_pruned = reference, synthetic sets" ~count:500 QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let subset lo hi p =
        List.filter (fun _ -> Random.State.float st 1. < p) (List.init (hi - lo + 1) (( + ) lo))
      in
      let nonempty lo hi p =
        match subset lo hi p with [] -> [ lo + Random.State.int st (hi - lo + 1) ] | l -> l
      in
      let c2, c3 = List.partition (fun _ -> Random.State.bool st) (subset 1 12 0.7) in
      let pairs c = (c, List.map (fun v -> (v, 18 + Random.State.int st 12)) (nonempty 13 24 0.3)) in
      let cov =
        Coverage.of_sorted ~owner:0 Coverage.Hop3
          ~c2:(List.map (fun c -> (c, nonempty 13 24 0.3)) c2)
          ~c3:(List.map pairs c3)
      in
      let covered = subset 1 12 0.2 and heard = Array.of_list (subset 1 12 0.2) in
      let upstream = 1 + Random.State.int st 12 in
      let upstream_cov = Some (upstream_of covered) in
      let k = Gateway_selection.select_pruned cov ~upstream ~upstream_cov ~heard in
      let live c = c <> upstream && (not (List.mem c covered)) && not (Array.mem c heard) in
      Array.to_list (Array.sub (Gateway_selection.selection ()) 0 k) = reference_select cov ~live)

(* The batched selection used by the static backbone is exactly the
   per-head selection, head by head. *)
let prop_select_all_matches_per_head =
  qtest "select_all = union of per-head selections" ~count:60 (arb_udg ()) (fun case ->
      let g = (sample_of case).graph in
      let cl = Lowest_id.cluster g in
      List.for_all
        (fun mode ->
          let coverages = Coverage.all g cl mode in
          let batched = Gateway_selection.select_all coverages ~n:(Manet_graph.Graph.n g) in
          let one_by_one =
            Array.fold_left
              (fun acc cov ->
                match cov with
                | None -> acc
                | Some cov -> Nodeset.union acc (Gateway_selection.select cov))
              Nodeset.empty coverages
          in
          Nodeset.equal batched one_by_one)
        [ Coverage.Hop25; Coverage.Hop3 ])

(* The kernel allocates nothing once its scratch has grown: on the
   2.5-hop and 3-hop coverage sets of a fixed n = 200 network, after a
   warm-up pass, selecting for every head — with and without pruning
   rows — allocates no minor word, and [select_array] allocates exactly
   its result (a header and one word per gateway, nothing for an empty
   selection). *)
let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let test_selection_allocates_nothing () =
  let spec = Manet_topology.Spec.make ~n:200 ~avg_degree:12. () in
  let g =
    (Manet_topology.Generator.sample_connected (Manet_rng.Rng.create ~seed:2024) spec).graph
  in
  let cl = Lowest_id.cluster g in
  List.iter
    (fun mode ->
      let cache = Coverage.Cache.create g cl mode in
      let coverages = Coverage.Cache.coverages cache in
      let sink = ref 0 in
      let select ~pruning =
        for h = 0 to Array.length coverages - 1 do
          match coverages.(h) with
          | None -> ()
          | Some cov ->
            let k =
              if pruning then
                (* prune as a relay would: by an upstream head's
                   coverage set (the head's lowest 2-hop head) and the
                   previous node's CH_HOP1 row *)
                let u = if Array.length cov.c2_keys = 0 then -1 else cov.c2_keys.(0) in
                Gateway_selection.select_pruned cov ~upstream:u
                  ~upstream_cov:(if u < 0 then None else coverages.(u))
                  ~heard:(Coverage.Cache.ch_hop1 cache ((h + Graph.n g - 1) mod Graph.n g))
              else Gateway_selection.select_pruned cov ~upstream:(-1) ~upstream_cov:None ~heard:[||]
            in
            let out = Gateway_selection.selection () in
            for i = 0 to k - 1 do
              sink := !sink + out.(i)
            done
        done
      in
      let every () = select ~pruning:false and some () = select ~pruning:true in
      let result_words = ref 0 in
      let arrays () =
        for h = 0 to Array.length coverages - 1 do
          match coverages.(h) with
          | None -> ()
          | Some cov ->
            let k = Array.length (Gateway_selection.select_array cov) in
            if k > 0 then result_words := !result_words + k + 1
        done
      in
      every ();
      some ();
      arrays ();
      let label = Format.asprintf "%a" Coverage.pp_mode mode in
      Alcotest.(check (float 0.)) (label ^ ": select_pruned") 0. (minor_words every);
      Alcotest.(check (float 0.)) (label ^ ": select_pruned, pruning rows") 0. (minor_words some);
      result_words := 0;
      let w = minor_words arrays in
      Alcotest.(check (float 0.)) (label ^ ": select_array") (float_of_int !result_words) w)
    [ Coverage.Hop25; Coverage.Hop3 ]

let () =
  Alcotest.run "gateway"
    [
      ( "selection",
        [
          Alcotest.test_case "paper selections" `Quick test_paper_selections;
          Alcotest.test_case "empty targets" `Quick test_empty_targets;
          Alcotest.test_case "partial targets" `Quick test_partial_targets;
          Alcotest.test_case "foreign targets ignored" `Quick test_targets_outside_coverage_ignored;
          Alcotest.test_case "greedy bulk coverage" `Quick test_greedy_prefers_bulk_coverage;
          Alcotest.test_case "tie-break by indirect coverage" `Quick test_tie_break_indirect;
          Alcotest.test_case "tie-break by id" `Quick test_tie_break_id;
          Alcotest.test_case "pair fallback" `Quick test_pair_fallback;
          prop_selection_covers_targets;
          prop_selection_size_bound;
          prop_select_all_matches_per_head;
          prop_kernel_matches_reference;
          prop_kernel_matches_reference_synthetic;
          Alcotest.test_case "selection allocates nothing" `Quick
            test_selection_allocates_nothing;
        ] );
    ]
