module Graph = Manet_graph.Graph
module Nodeset = Manet_graph.Nodeset
module Clustering = Manet_cluster.Clustering
module Lowest_id = Manet_cluster.Lowest_id
module Coverage = Manet_coverage.Coverage
module Static = Manet_backbone.Static_backbone
module Dynamic = Manet_backbone.Dynamic_backbone
module Result = Manet_broadcast.Result
module Protocol = Manet_broadcast.Protocol
module Engine = Manet_broadcast.Engine
module Scratch = Engine.Scratch
module Gateway_selection = Manet_backbone.Gateway_selection
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

(* The full-calendar loop the library's replaced, kept here as its
   reference: every neighbour of every transmitter gets a calendar event
   and an event marks its receiver delivered, a clusterhead relays on its
   first event and a gateway on its designation, and a designation's hop
   count is an adjacency test.  [on_designation ~time ~node] sees each
   designation event as it is read. *)
let full_calendar ?(on_designation = fun ~time:_ ~node:_ -> ()) ~pruning g cl mode ~source =
  let n = Graph.n g in
  let cache = Coverage.Cache.create g cl mode in
  let coverages = Coverage.Cache.coverages cache in
  let encode ~upstream = (upstream + 1) lsl 1 in
  Scratch.with_scratch ~arena:(Engine.Arena.create ()) ~n
    ~payload_bound:(encode ~upstream:(n - 1) + 2) (fun scr ->
      let completion = ref 0 in
      let transmit time v ~upstream =
        Scratch.mark_transmitted scr v;
        Scratch.trace scr ~time ~node:v;
        Graph.iter_neighbors g v (fun w ->
            Scratch.push scr ~time:(time + 1) ~node:w ~sender:v ~payload:(encode ~upstream))
      in
      let head_transmit time h ~upstream ~relayer =
        let upstream_cov =
          if upstream >= 0 && pruning <> Dynamic.Sender_only then coverages.(upstream) else None
        in
        let heard =
          if relayer >= 0 && pruning = Dynamic.Coverage_and_relay then
            Coverage.Cache.ch_hop1 cache relayer
          else [||]
        in
        let cov = Option.get coverages.(h) in
        let k = Gateway_selection.select_pruned cov ~upstream ~upstream_cov ~heard in
        Array.iter
          (fun x ->
            let hops = if Graph.mem_edge g h x then 1 else 2 in
            Scratch.push scr ~time:(time + hops) ~node:x ~sender:h
              ~payload:(encode ~upstream:h lor 1))
          (Array.sub (Gateway_selection.selection ()) 0 k);
        transmit time h ~upstream:h
      in
      if Clustering.is_head cl source then head_transmit 0 source ~upstream:(-1) ~relayer:(-1)
      else transmit 0 source ~upstream:(-1);
      ignore (Scratch.mark_delivered scr source : bool);
      while Scratch.advance scr do
        let time = Scratch.time scr and receiver = Scratch.node scr in
        let payload = Scratch.payload scr in
        let upstream = (payload lsr 1) - 1 in
        if payload land 1 <> 0 then on_designation ~time ~node:receiver;
        if Scratch.mark_delivered scr receiver then completion := time;
        if payload land 1 <> 0 then begin
          if not (Scratch.transmitted scr receiver) then transmit time receiver ~upstream
        end
        else if Clustering.is_head cl receiver && not (Scratch.transmitted scr receiver) then
          head_transmit time receiver ~upstream ~relayer:(Scratch.sender scr)
      done;
      Scratch.finish scr ~source ~completion:!completion)

let prunings = [ Dynamic.Sender_only; Dynamic.Coverage_piggyback; Dynamic.Coverage_and_relay ]

(* The library's loop calendars only the receptions that decide
   something, yet gives the full-calendar loop's forward set, delivered
   set, completion time and whole timeline, and its count the same
   counts: both modes, every pruning level, three random sources, on
   networks of up to 600 nodes (over 256, a level's packed keys take
   several radix digits). *)
let prop_matches_full_calendar =
  qtest "lean loop = full-calendar loop" ~count:40
    (QCheck.pair (arb_udg ~n_max:600 ~ds:[ 6.; 10.; 18. ] ()) QCheck.(triple (int_bound 100_000) (int_bound 100_000) (int_bound 100_000)))
    (fun (case, (s1, s2, s3)) ->
      let _, n, _ = case in
      let g = (sample_of case).graph in
      let cl = Lowest_id.cluster g in
      List.for_all
        (fun mode ->
          List.for_all
            (fun pruning ->
              let built = prepare ~pruning g cl mode in
              List.for_all
                (fun s ->
                  let source = s mod n in
                  let r, timeline = built.Protocol.run ~source ~mode:Protocol.Perfect in
                  let c = built.Protocol.count ~source ~mode:Protocol.Perfect in
                  let r', timeline' = full_calendar ~pruning g cl mode ~source in
                  Nodeset.equal r.forwarders r'.forwarders
                  && r.delivered = r'.delivered
                  && r.completion_time = r'.completion_time
                  && timeline = timeline'
                  && c.Engine.forwards = Result.forward_count r'
                  && c.delivered = Result.delivered_count r'
                  && c.completion_time = r'.completion_time)
                [ s1; s2; s3 ])
            prunings)
        [ Coverage.Hop25; Coverage.Hop3 ])

(* A designation never delivers first: in the full-calendar loop, every
   designation event (time t, gateway x) finds a neighbour of x that
   transmitted at t - 1 or earlier, so x holds the packet by t.  This is
   what lets the library's loop mark deliveries at transmission only. *)
let test_designation_finds_delivered () =
  let cases =
    paper ()
    :: List.map
         (fun (s : Manet_topology.Generator.sample) -> (s.graph, Lowest_id.cluster s.graph))
         (udg_cases ~seed:31 ~count:4 ~n:80 ~d:6. @ udg_cases ~seed:32 ~count:2 ~n:300 ~d:12.)
  in
  let designations = ref 0 in
  List.iter
    (fun (g, cl) ->
      List.iter
        (fun mode ->
          List.iter
            (fun pruning ->
              List.iter
                (fun source ->
                  let seen = ref [] in
                  let on_designation ~time ~node = seen := (time, node) :: !seen in
                  let _, timeline = full_calendar ~on_designation ~pruning g cl mode ~source in
                  List.iter
                    (fun (time, x) ->
                      incr designations;
                      Alcotest.(check bool)
                        (Printf.sprintf "designation of %d at %d finds it delivered" x time)
                        true
                        (List.exists
                           (fun (t, v) -> t + 1 <= time && Graph.mem_edge g v x)
                           timeline))
                    !seen)
                [ 0; Graph.n g / 2; Graph.n g - 1 ])
            prunings)
        [ Coverage.Hop25; Coverage.Hop3 ])
    cases;
  Alcotest.(check bool) "designations seen" true (!designations > 100)

(* Completion time is bounded by a small multiple of the BFS eccentricity
   (each cluster-graph hop costs at most 3 network hops). *)
let prop_latency_bounded =
  qtest "completion time bounded" ~count:40 (arb_udg ()) (fun case ->
      let seed, n, _ = case in
      let g = (sample_of case).graph in
      let cl = Lowest_id.cluster g in
      let source = seed mod n in
      let r = broadcast g cl Coverage.Hop25 ~source in
      let ecc = eccentricity g source in
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
      ( "loop",
        [
          prop_matches_full_calendar;
          Alcotest.test_case "designations find their gateway delivered" `Quick
            test_designation_finds_delivered;
        ] );
    ]
