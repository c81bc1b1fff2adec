module Graph = Manet_graph.Graph
module Nodeset = Manet_graph.Nodeset
module Bfs = Manet_graph.Bfs
module Clustering = Manet_cluster.Clustering
module Lowest_id = Manet_cluster.Lowest_id
module Coverage = Manet_coverage.Coverage
module Ch_hop_proto = Manet_coverage.Ch_hop_proto
open Test_helpers

let paper () =
  let g = paper_graph () in
  (g, Lowest_id.cluster g)

(* CH_HOP1: paper Figure 3 walk-through (0-indexed). *)
let test_ch_hop1_paper () =
  let g, cl = paper () in
  let check v expected =
    Alcotest.check nodeset (Printf.sprintf "CH_HOP1(%d)" v) (set_of_list expected)
      (Coverage.ch_hop1 g cl v)
  in
  check 8 [ 2; 3 ];
  (* paper: CH_HOP1(9) = {3*, 4} *)
  check 4 [ 0 ];
  (* paper: CH_HOP1(5) = {1*} *)
  check 5 [ 0; 1 ];
  check 6 [ 0; 2 ];
  check 7 [ 1; 2 ];
  check 9 [ 2; 3 ]

let test_ch_hop1_rejects_heads () =
  let g, cl = paper () in
  Alcotest.check_raises "heads do not send CH_HOP1"
    (Invalid_argument "Coverage.ch_hop1: clusterheads do not send CH_HOP1") (fun () ->
      ignore (Coverage.ch_hop1 g cl 0))

(* CH_HOP2, 2.5-hop mode: only the sender's own clusterhead counts.  The
   paper stresses that node 5 (paper: node 6... here 0-indexed node 4)
   does not record clusterhead 3 (paper 4) from CH_HOP1(8) because 3 is
   not node 8's own head. *)
let test_ch_hop2_paper_25 () =
  let g, cl = paper () in
  Alcotest.(check (list (pair int int)))
    "CH_HOP2(8) = {1 via 4... no: head of 4 is 0, 0 not adjacent to 8}"
    [ (0, 4) ]
    (Coverage.ch_hop2 g cl Coverage.Hop25 8);
  (* paper: CH_HOP2(9) = {1[5]} -> 0-indexed: node 8 reports (0 via 4) *)
  Alcotest.(check (list (pair int int)))
    "CH_HOP2(4) = {(2,8)}"
    [ (2, 8) ]
    (Coverage.ch_hop2 g cl Coverage.Hop25 4);
  (* paper: CH_HOP2(5) = {3[9]} *)
  Alcotest.(check (list (pair int int))) "CH_HOP2(5) empty" [] (Coverage.ch_hop2 g cl Coverage.Hop25 5)

(* CH_HOP2, 3-hop mode: every clusterhead adjacent to the via node counts.
   Node 8's CH_HOP1 lists {2,3}; node 4 is adjacent to neither, so in
   3-hop mode CH_HOP2(4) gains (3,8) in addition to (2,8). *)
let test_ch_hop2_hop3_widens () =
  let g, cl = paper () in
  Alcotest.(check (list (pair int int)))
    "CH_HOP2(4) hop3"
    [ (2, 8); (3, 8) ]
    (Coverage.ch_hop2 g cl Coverage.Hop3 4)

(* Coverage sets of the paper's clusterheads, 2.5-hop mode. *)
let test_coverage_paper_25 () =
  let g, cl = paper () in
  let cov v = Coverage.of_head g cl Coverage.Hop25 v in
  Alcotest.check nodeset "C(0)" (set_of_list [ 1; 2 ]) (Coverage.covered (cov 0));
  Alcotest.check nodeset "C(1)" (set_of_list [ 0; 2 ]) (Coverage.covered (cov 1));
  Alcotest.check nodeset "C(2)" (set_of_list [ 0; 1; 3 ]) (Coverage.covered (cov 2));
  (* paper: C(4) = C2 {3} union C3 {1} -> 0-indexed C(3) = {2} U {0} *)
  Alcotest.check nodeset "C2(3)" (set_of_list [ 2 ]) (Coverage.c2_set (cov 3));
  Alcotest.check nodeset "C3(3)" (set_of_list [ 0 ]) (Coverage.c3_set (cov 3));
  Alcotest.(check int) "size C(3)" 2 (Coverage.size (cov 3))

let test_coverage_connectors_paper () =
  let g, cl = paper () in
  let cov = Coverage.of_head g cl Coverage.Hop25 2 in
  (* C2(2): 0 via 6; 1 via 7; 3 via 8 and 9. *)
  Alcotest.(check (list (pair int (array int))))
    "connector table"
    [ (0, [| 6 |]); (1, [| 7 |]); (3, [| 8; 9 |]) ]
    cov.c2;
  let cov3 = Coverage.of_head g cl Coverage.Hop25 3 in
  Alcotest.(check (list (pair int (array (pair int int)))))
    "pair table"
    [ (0, [| (8, 4) |]) ]
    cov3.c3

let test_coverage_rejects_non_head () =
  let g, cl = paper () in
  Alcotest.check_raises "non-head" (Invalid_argument "Coverage.of_head: not a clusterhead")
    (fun () -> ignore (Coverage.of_head g cl Coverage.Hop25 5))

let test_all_indexed_by_head () =
  let g, cl = paper () in
  let a = Coverage.all g cl Coverage.Hop25 in
  Array.iteri
    (fun v c ->
      Alcotest.(check bool)
        (Printf.sprintf "slot %d" v)
        (Clustering.is_head cl v)
        (Option.is_some c))
    a

(* Semantic characterization: in 3-hop mode, C2 = clusterheads at hop
   distance exactly 2 and C3 = clusterheads at exactly 3 hops. *)
let prop_hop3_is_bfs_rings =
  qtest "3-hop coverage = BFS rings 2 and 3" ~count:60 (arb_udg ()) (fun case ->
      let g = (sample_of case).graph in
      let cl = Lowest_id.cluster g in
      let heads = Clustering.head_set cl in
      List.for_all
        (fun h ->
          let cov = Coverage.of_head g cl Coverage.Hop3 h in
          let ring k = Nodeset.inter heads (Bfs.ring g ~source:h ~k) in
          Nodeset.equal (Coverage.c2_set cov) (ring 2)
          && Nodeset.equal (Coverage.c3_set cov) (ring 3))
        (Clustering.heads cl))

(* 2.5-hop coverage is a subset of 3-hop coverage, and they share C2. *)
let prop_25_subset_of_3 =
  qtest "2.5-hop coverage within 3-hop coverage" ~count:60 (arb_udg ()) (fun case ->
      let g = (sample_of case).graph in
      let cl = Lowest_id.cluster g in
      List.for_all
        (fun h ->
          let c25 = Coverage.of_head g cl Coverage.Hop25 h in
          let c3 = Coverage.of_head g cl Coverage.Hop3 h in
          Nodeset.subset (Coverage.covered c25) (Coverage.covered c3)
          && Nodeset.equal (Coverage.c2_set c25) (Coverage.c2_set c3))
        (Clustering.heads cl))

(* 2.5-hop semantic characterization: C3 entries are clusterheads with a
   cluster member at hop distance exactly 2 from the owner. *)
let prop_25_semantics =
  qtest "2.5-hop C3 = heads with members at 2 hops" ~count:60 (arb_udg ()) (fun case ->
      let g = (sample_of case).graph in
      let cl = Lowest_id.cluster g in
      List.for_all
        (fun h ->
          let cov = Coverage.of_head g cl Coverage.Hop25 h in
          let dist = Bfs.distances_upto g ~source:h ~limit:3 in
          let expected = ref Nodeset.empty in
          for v = 0 to Graph.n g - 1 do
            if dist.(v) = 2 && not (Clustering.is_head cl v) then begin
              let head = Clustering.head_of cl v in
              if dist.(head) = 3 then expected := Nodeset.add head !expected
            end
          done;
          Nodeset.equal (Coverage.c3_set cov) !expected)
        (Clustering.heads cl))

(* Connector-table validity: every connector really links the owner to the
   listed clusterhead at the right distances. *)
let prop_connectors_valid =
  qtest "connector tables are real paths" ~count:60 (arb_udg ()) (fun case ->
      let g = (sample_of case).graph in
      let cl = Lowest_id.cluster g in
      List.for_all
        (fun h ->
          let cov = Coverage.of_head g cl Coverage.Hop25 h in
          List.for_all
            (fun (ch, connectors) ->
              Array.for_all
                (fun v -> Graph.mem_edge g h v && Graph.mem_edge g v ch)
                connectors)
            cov.c2
          && List.for_all
               (fun (ch, pairs) ->
                 Array.for_all
                   (fun (v, w) ->
                     Graph.mem_edge g h v && Graph.mem_edge g v w && Graph.mem_edge g w ch)
                   pairs)
               cov.c3)
        (Clustering.heads cl))

let test_pp_smoke () =
  let g, cl = paper () in
  let cov = Coverage.of_head g cl Coverage.Hop25 3 in
  let text = Format.asprintf "%a" Coverage.pp cov in
  Alcotest.(check bool) "owner shown" true (Test_helpers.contains text "C(3)");
  Alcotest.(check bool) "pair shown" true (Test_helpers.contains text "(8,4)");
  Alcotest.(check string) "mode pp" "2.5-hop" (Format.asprintf "%a" Coverage.pp_mode Coverage.Hop25);
  Alcotest.(check string) "mode pp 3" "3-hop" (Format.asprintf "%a" Coverage.pp_mode Coverage.Hop3)

(* Distributed CH_HOP protocol *)

let coverages_equal (a : Coverage.t) (b : Coverage.t) =
  a.owner = b.owner && a.mode = b.mode && a.c2 = b.c2 && a.c3 = b.c3

let test_proto_matches_centralized_paper () =
  let g, cl = paper () in
  List.iter
    (fun mode ->
      let r = Ch_hop_proto.run g cl mode in
      let central = Coverage.all g cl mode in
      for v = 0 to Graph.n g - 1 do
        match (r.coverages.(v), central.(v)) with
        | Some a, Some b ->
          if not (coverages_equal a b) then
            Alcotest.failf "coverage mismatch at head %d: %a vs %a" v Coverage.pp a Coverage.pp b
        | None, None -> ()
        | Some _, None | None, Some _ -> Alcotest.failf "slot mismatch at %d" v
      done;
      (* 2 messages per non-clusterhead: 6 non-heads here. *)
      Alcotest.(check int) "transmissions" 12 r.transmissions)
    [ Coverage.Hop25; Coverage.Hop3 ]

let prop_proto_matches_centralized =
  qtest "distributed CH_HOP = centralized coverage" ~count:40 (arb_udg ~n_max:40 ())
    (fun case ->
      let g = (sample_of case).graph in
      let cl = Lowest_id.cluster g in
      List.for_all
        (fun mode ->
          let r = Ch_hop_proto.run g cl mode in
          let central = Coverage.all g cl mode in
          let ok = ref true in
          for v = 0 to Graph.n g - 1 do
            (match (r.coverages.(v), central.(v)) with
            | Some a, Some b -> if not (coverages_equal a b) then ok := false
            | None, None -> ()
            | Some _, None | None, Some _ -> ok := false)
          done;
          !ok)
        [ Coverage.Hop25; Coverage.Hop3 ])

(* The shared cache is an optimization only: its coverage table must be
   exactly the per-head construction, and its hop tables the public
   CH_HOP accessors, on arbitrary connected topologies in both modes. *)
let prop_cache_matches_uncached =
  qtest "cache = uncached per-head construction" ~count:40 (arb_udg ~n_max:40 ())
    (fun case ->
      let g = (sample_of case).graph in
      let cl = Lowest_id.cluster g in
      List.for_all
        (fun mode ->
          let cache = Coverage.Cache.create g cl mode in
          let cached = Coverage.Cache.coverages cache in
          let ok = ref true in
          for v = 0 to Graph.n g - 1 do
            (match (cached.(v), Clustering.is_head cl v) with
            | Some a, true ->
              if not (coverages_equal a (Coverage.of_head g cl mode v)) then ok := false
            | None, false -> ()
            | Some _, false | None, true -> ok := false);
            if not (Clustering.is_head cl v) then begin
              let hop1 = Coverage.Cache.ch_hop1 cache v in
              if not (Nodeset.equal (set_of_list (Array.to_list hop1)) (Coverage.ch_hop1 g cl v))
              then ok := false;
              if Array.to_list (Coverage.Cache.ch_hop2 cache v) <> Coverage.ch_hop2 g cl mode v
              then ok := false
            end
          done;
          !ok)
        [ Coverage.Hop25; Coverage.Hop3 ])

(* Per-head memoised coverage: [Cache.coverage] must give exactly the
   independent per-head reference and the batch table, whichever of the
   two entry points a cache sees first, on seeded topologies up to the
   sweep scale.  Both entry points read one memo: a head's set is the
   very value in the batch table, and the batch table is one array. *)
let seeded_udgs () =
  [ udg ~seed:71 ~n:60 ~d:6.; udg ~seed:72 ~n:300 ~d:10.; udg ~seed:73 ~n:1000 ~d:12. ]

let test_cache_coverage_per_head () =
  List.iter
    (fun (s : Manet_topology.Generator.sample) ->
      let g = s.graph in
      let cl = Lowest_id.cluster g in
      let heads = Clustering.heads cl in
      List.iter
        (fun mode ->
          let check what h a b =
            if not (coverages_equal a b) then
              Alcotest.failf "n=%d %a head %d: %s" (Graph.n g) Coverage.pp_mode mode h what
          in
          (* Per-head first (every other head), then the batch, then the
             rest per head. *)
          let head_first = Coverage.Cache.create g cl mode in
          List.iteri
            (fun i h -> if i mod 2 = 0 then ignore (Coverage.Cache.coverage head_first h))
            heads;
          let batch = Coverage.Cache.coverages head_first in
          (* Batch first, then per head. *)
          let batch_first = Coverage.Cache.create g cl mode in
          let batch2 = Coverage.Cache.coverages batch_first in
          List.iter
            (fun h ->
              let c = Coverage.Cache.coverage head_first h in
              check "coverage vs of_head" h c (Coverage.of_head g cl mode h);
              check "coverage vs coverages" h c (Option.get batch.(h));
              check "coverage before vs after coverages" h c
                (Coverage.Cache.coverage batch_first h);
              check "coverages, either order" h c (Option.get batch2.(h));
              if c != Option.get batch.(h) || Coverage.Cache.coverage batch_first h != Option.get batch2.(h)
              then Alcotest.failf "n=%d head %d: coverage is not the memoised batch entry" (Graph.n g) h)
            heads;
          if Coverage.Cache.coverages head_first != batch || Coverage.Cache.coverages batch_first != batch2
          then Alcotest.failf "n=%d: repeated coverages returned a new array" (Graph.n g);
          let member = List.find (fun v -> not (Clustering.is_head cl v)) (List.init (Graph.n g) Fun.id) in
          Alcotest.check_raises "non-head"
            (Invalid_argument "Coverage.Cache.coverage: not a clusterhead") (fun () ->
              ignore (Coverage.Cache.coverage (Coverage.Cache.create g cl mode) member)))
        [ Coverage.Hop25; Coverage.Hop3 ])
    (seeded_udgs ())

(* The flat CH_HOP2 rows decode to exactly the per-row reference for
   every node.  The row buffer starts at one entry per node, so on these
   dense 3-hop cases (asserted: more entries than nodes) it must grow at
   least once while the rows are built. *)
let test_cache_flat_rows_grow () =
  List.iter
    (fun (seed, n, d) ->
      let g = (udg ~seed ~n ~d).graph in
      let cl = Lowest_id.cluster g in
      let cache = Coverage.Cache.create g cl Coverage.Hop3 in
      let entries = ref 0 in
      for v = 0 to n - 1 do
        let flat = Array.to_list (Coverage.Cache.ch_hop2 cache v) in
        if Clustering.is_head cl v then
          Alcotest.(check (list (pair int int))) "empty row at a head" [] flat
        else begin
          let reference = Coverage.ch_hop2 g cl Coverage.Hop3 v in
          Alcotest.(check (list (pair int int))) (Printf.sprintf "row %d" v) reference flat;
          entries := !entries + List.length reference
        end
      done;
      Alcotest.(check bool)
        (Printf.sprintf "n=%d d=%g: %d entries outgrow the initial buffer" n d !entries)
        true (!entries > n))
    [ (81, 100, 18.); (82, 400, 24.) ]

let () =
  Alcotest.run "coverage"
    [
      ( "ch_hop",
        [
          Alcotest.test_case "CH_HOP1 paper walk-through" `Quick test_ch_hop1_paper;
          Alcotest.test_case "CH_HOP1 rejects heads" `Quick test_ch_hop1_rejects_heads;
          Alcotest.test_case "CH_HOP2 paper 2.5-hop" `Quick test_ch_hop2_paper_25;
          Alcotest.test_case "CH_HOP2 3-hop widens" `Quick test_ch_hop2_hop3_widens;
        ] );
      ( "coverage_sets",
        [
          Alcotest.test_case "paper coverage sets" `Quick test_coverage_paper_25;
          Alcotest.test_case "paper connector tables" `Quick test_coverage_connectors_paper;
          Alcotest.test_case "rejects non-head" `Quick test_coverage_rejects_non_head;
          Alcotest.test_case "all indexed by head" `Quick test_all_indexed_by_head;
          prop_hop3_is_bfs_rings;
          prop_25_subset_of_3;
          prop_25_semantics;
          prop_connectors_valid;
          Alcotest.test_case "pp smoke" `Quick test_pp_smoke;
        ] );
      ( "distributed",
        [
          Alcotest.test_case "paper example, both modes" `Quick test_proto_matches_centralized_paper;
          prop_proto_matches_centralized;
        ] );
      ( "cache",
        [
          prop_cache_matches_uncached;
          Alcotest.test_case "per-head coverage = of_head = batch" `Quick
            test_cache_coverage_per_head;
          Alcotest.test_case "flat rows = ch_hop2, grown buffer" `Quick test_cache_flat_rows_grow;
        ] );
    ]
