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

(* A coverage set's C2 / C3 tables as [(clusterhead, connectors)] lists. *)
let c2_table (cov : Coverage.t) =
  List.init (Array.length cov.c2_keys) (fun i ->
      let lo = cov.c2_off.(i) in
      (cov.c2_keys.(i), Array.sub cov.c2_via lo (cov.c2_off.(i + 1) - lo)))

let c3_table (cov : Coverage.t) =
  List.init (Array.length cov.c3_keys) (fun i ->
      let lo = cov.c3_off.(i) in
      (cov.c3_keys.(i), Array.init (cov.c3_off.(i + 1) - lo) (fun j -> (cov.c3_v.(lo + j), cov.c3_w.(lo + j)))))

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
    (c2_table cov);
  let cov3 = Coverage.of_head g cl Coverage.Hop25 3 in
  Alcotest.(check (list (pair int (array (pair int int)))))
    "pair table"
    [ (0, [| (8, 4) |]) ]
    (c3_table cov3)

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
          let ring k = Nodeset.inter heads (Test_helpers.ring g ~source:h ~k) in
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
            (c2_table cov)
          && List.for_all
               (fun (ch, pairs) ->
                 Array.for_all
                   (fun (v, w) ->
                     Graph.mem_edge g h v && Graph.mem_edge g v w && Graph.mem_edge g w ch)
                   pairs)
               (c3_table cov))
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

let coverages_equal (a : Coverage.t) b = a = b

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

(* The flat layout is well formed: the key arrays are strictly
   increasing and disjoint, never name the owner, the offsets start at
   0 and end at the buffer length, and every connector range is
   nonempty and strictly increasing (pairs by first hop: one pair per
   first hop, the invariant gateway selection relies on). *)
let well_formed (cov : Coverage.t) =
  let increasing a = Array.for_all Fun.id (Array.init (max 0 (Array.length a - 1)) (fun i -> a.(i) < a.(i + 1))) in
  let offsets keys off len =
    Array.length off = Array.length keys + 1
    && off.(0) = 0
    && off.(Array.length keys) = len
    && Array.for_all Fun.id (Array.init (Array.length keys) (fun i -> off.(i) < off.(i + 1)))
  in
  let ranges keys off ok =
    Array.for_all Fun.id
      (Array.init (Array.length keys) (fun i ->
           List.for_all ok (List.init (off.(i + 1) - off.(i) - 1) (fun j -> off.(i) + j))))
  in
  increasing cov.c2_keys && increasing cov.c3_keys
  && Array.for_all (fun c -> not (Array.mem c cov.c3_keys) && c <> cov.owner) cov.c2_keys
  && (not (Array.mem cov.owner cov.c3_keys))
  && offsets cov.c2_keys cov.c2_off (Array.length cov.c2_via)
  && offsets cov.c3_keys cov.c3_off (Array.length cov.c3_v)
  && Array.length cov.c3_w = Array.length cov.c3_v
  && ranges cov.c2_keys cov.c2_off (fun j -> cov.c2_via.(j) < cov.c2_via.(j + 1))
  && ranges cov.c3_keys cov.c3_off (fun j -> cov.c3_v.(j) < cov.c3_v.(j + 1))

(* Every head's flat set, from the cache, the per-head reference and the
   distributed CH_HOP protocol: one value, well formed, in both modes. *)
let prop_flat_sets =
  qtest "flat sets well formed, cache = of_head = protocol" ~count:40 (arb_udg ~n_max:60 ())
    (fun case ->
      let g = (sample_of case).graph in
      let cl = Lowest_id.cluster g in
      List.for_all
        (fun mode ->
          let cache = Coverage.Cache.create g cl mode in
          let proto = (Ch_hop_proto.run g cl mode).coverages in
          List.for_all
            (fun h ->
              let cov = Coverage.Cache.coverage cache h in
              let reference = Coverage.of_head g cl mode h and sent = Option.get proto.(h) in
              List.for_all well_formed [ cov; reference; sent ]
              && coverages_equal cov reference
              && coverages_equal cov sent)
            (Clustering.heads cl))
        [ Coverage.Hop25; Coverage.Hop3 ])

let test_of_sorted_rejects () =
  let bad = Invalid_argument "Coverage.of_sorted: keys or connectors not strictly increasing" in
  let make ~c2 ~c3 () = ignore (Coverage.of_sorted ~owner:0 Coverage.Hop25 ~c2 ~c3) in
  Alcotest.check_raises "keys out of order" bad (make ~c2:[ (3, [ 1 ]); (2, [ 1 ]) ] ~c3:[]);
  Alcotest.check_raises "no connector" bad (make ~c2:[ (3, []) ] ~c3:[]);
  Alcotest.check_raises "connectors out of order" bad (make ~c2:[ (3, [ 5; 4 ]) ] ~c3:[]);
  Alcotest.check_raises "pairs out of order" bad (make ~c2:[] ~c3:[ (3, [ (4, 6); (4, 5) ]) ]);
  Alcotest.check_raises "two pairs through one first hop" bad
    (make ~c2:[] ~c3:[ (3, [ (4, 5); (4, 6) ]) ]);
  let cov = Coverage.of_sorted ~owner:0 Coverage.Hop25 ~c2:[ (2, [ 4; 5 ]) ] ~c3:[ (3, [ (4, 6) ]) ] in
  Alcotest.(check bool) "well formed" true (well_formed cov);
  Alcotest.(check string) "pp" "C(0) [2.5-hop]: C2 = 2 via {4,5}; C3 = 3 via {(4,6)}"
    (Format.asprintf "%a" Coverage.pp cov)

(* Allocation pin: on a fixed n = 200 network, once one head has been
   computed (so the memo, the working scratch and the CH_HOP2 rows
   exist), completing [Cache.coverages] allocates at most the output
   arrays' own words (a header and one word per entry; an empty array
   and the offsets of an empty key array are shared constants) plus 16
   words per head — the record and its [Some] take 12, so a sort, a
   closure or a tuple per head crosses it. *)
let test_coverages_allocation () =
  let g = (udg ~seed:2024 ~n:200 ~d:12.).graph in
  let cl = Lowest_id.cluster g in
  List.iter
    (fun mode ->
      let cache = Coverage.Cache.create g cl mode in
      let first = List.hd (Clustering.heads cl) in
      ignore (Coverage.Cache.coverage cache first);
      let w0 = Gc.minor_words () in
      let all = Coverage.Cache.coverages cache in
      let words = Gc.minor_words () -. w0 in
      let array a = if Array.length a = 0 then 0 else Array.length a + 1 in
      let bound = ref 0 in
      List.iter
        (fun h ->
          if h <> first then begin
            let c = Option.get all.(h) in
            let offsets keys off = if Array.length keys = 0 then 0 else array off in
            bound :=
              !bound + 16 + array c.c2_keys + offsets c.c2_keys c.c2_off + array c.c2_via
              + array c.c3_keys + offsets c.c3_keys c.c3_off + array c.c3_v + array c.c3_w
          end)
        (Clustering.heads cl);
      if words > float_of_int !bound then
        Alcotest.failf "%a: coverages allocated %.0f words, bound %d" Coverage.pp_mode mode words
          !bound)
    [ Coverage.Hop25; Coverage.Hop3 ]

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
          prop_flat_sets;
          Alcotest.test_case "of_sorted rejects unsorted input" `Quick test_of_sorted_rejects;
          Alcotest.test_case "coverages allocate only their arrays" `Quick
            test_coverages_allocation;
        ] );
    ]
