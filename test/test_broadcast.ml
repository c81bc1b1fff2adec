module Graph = Manet_graph.Graph
module Nodeset = Manet_graph.Nodeset
module Engine = Manet_broadcast.Engine
module Protocol = Manet_broadcast.Protocol
module Reliable = Manet_broadcast.Reliable
module Result = Manet_broadcast.Result
open Test_helpers

(* One engine run, result only. *)
let run g ~source ~decide = fst (Engine.run_core ~arena:(Engine.Arena.get ()) g ~source ~decide)

(* A decide-style broadcast under per-reception loss, through the
   uniform pipeline with the loss draws taken from [rng]. *)
let lossy_run g ~rng ~loss ~source ~decide =
  let env = Protocol.make_env ~rng g in
  let built = Protocol.of_pipeline env ~members:None (fun ~source:_ -> decide) in
  fst (built.run ~source ~mode:(Protocol.Lossy loss))

let flood ~node:_ ~from:_ = true

(* Delivery ratio of one blind flood under loss. *)
let flooding_delivery g ~rng ~loss ~source =
  Result.delivery_ratio (lossy_run g ~rng ~loss ~source ~decide:flood)

let result_t = Alcotest.testable Result.pp (fun (a : Result.t) b ->
    a.source = b.source
    && Nodeset.equal a.forwarders b.forwarders
    && a.delivered = b.delivered
    && a.completion_time = b.completion_time)

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
  let r = run g ~source:0 ~decide:(fun ~node:_ ~from:_ -> false) in
  Alcotest.check nodeset "only source" (set_of_list [ 0 ]) r.forwarders;
  Alcotest.(check bool) "neighbor delivered" true r.delivered.(1);
  Alcotest.(check bool) "two hops not delivered" false r.delivered.(2)

let test_transmit_at_most_once () =
  let g = Graph.complete 5 in
  let decisions = ref 0 in
  let r =
    run g ~source:0 ~decide:(fun ~node:_ ~from:_ ->
        incr decisions;
        true)
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
    run g ~source:0 ~decide:(fun ~node ~from -> node <> 2 || from = 3)
  in
  Alcotest.(check bool) "2 eventually forwards" true (Nodeset.mem 2 r.forwarders)

let test_first_copy_smallest_sender () =
  (* Nodes 1 and 2 both deliver to 3 at t=2; the engine must hand node 3
     the copy from sender 1 (smallest id). *)
  let g = Graph.of_edges ~n:4 [ (0, 1); (0, 2); (1, 3); (2, 3) ] in
  let first_from = ref (-1) in
  let _ =
    run g ~source:0 ~decide:(fun ~node ~from ->
        if node = 3 && !first_from < 0 then first_from := from;
        true)
  in
  Alcotest.(check int) "deterministic tie-break" 1 !first_from

let test_source_out_of_range () =
  let g = Graph.path 2 in
  Alcotest.check_raises "range" (Invalid_argument "Engine.run_core: source out of range") (fun () ->
      ignore (run g ~source:5 ~decide:(fun ~node:_ ~from:_ -> false)));
  Alcotest.check_raises "range" (Invalid_argument "Engine.run_count: source out of range")
    (fun () ->
      ignore
        (Engine.run_count ~arena:(Engine.Arena.get ()) g ~source:(-1)
           ~decide:(fun ~node:_ ~from:_ -> false)))

let test_single_node_graph () =
  let g = Graph.empty 1 in
  let r = run g ~source:0 ~decide:flood in
  Alcotest.(check bool) "delivered" true (Result.all_delivered r);
  Alcotest.(check int) "one forward" 1 (Result.forward_count r)

let prop_flooding_latency_is_eccentricity =
  Test_helpers.qtest "flooding completion time = eccentricity" ~count:40
    (Test_helpers.arb_udg ()) (fun case ->
      let seed, n, _ = case in
      let g = (Test_helpers.sample_of case).graph in
      let source = seed mod n in
      let r = run g ~source ~decide:flood in
      r.completion_time = eccentricity g source)

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
  let b = run g ~source:0 ~decide:flood in
  Alcotest.check nodeset "identical at zero loss" a.forwarders b.forwarders;
  Alcotest.(check (array bool)) "same deliveries" a.delivered b.delivered

(* Loss 0 of either sign takes the no-drop path: same result as
   [Perfect], and not one draw from the generator. *)
let test_lossy_signed_zero_draws_nothing () =
  let g = (Test_helpers.udg ~seed:24 ~n:40 ~d:8.).graph in
  let perfect = run g ~source:0 ~decide:flood in
  List.iter
    (fun loss ->
      let rng = Manet_rng.Rng.create ~seed:3 in
      let r = lossy_run g ~rng ~loss ~source:0 ~decide:flood in
      Alcotest.check result_t (Printf.sprintf "loss %g = perfect" loss) perfect r;
      Alcotest.(check int)
        (Printf.sprintf "loss %g draws nothing" loss)
        (Manet_rng.Rng.bits53 (Manet_rng.Rng.create ~seed:3))
        (Manet_rng.Rng.bits53 rng))
    [ 0.; -0. ]

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
  let r, timeline = Engine.run_core ~arena:(Engine.Arena.get ()) g ~source:0 ~decide:flood in
  Alcotest.(check bool) "all delivered" true (Result.all_delivered r);
  Alcotest.(check int) "completion time" 3 r.completion_time;
  Alcotest.(check (list (pair int int))) "chain timeline" [ (0, 0); (1, 1); (2, 2); (3, 3) ]
    timeline

(* The uniform pipeline's perfect mode is the bare engine, timeline
   included. *)
let test_timeline_matches_pipeline () =
  let g = (Test_helpers.udg ~seed:71 ~n:40 ~d:8.).graph in
  let r1, t1 =
    Protocol.run_decide (Protocol.make_env g) ~source:0 ~mode:Protocol.Perfect ~initial:()
      ~decide:(fun ~node ~from:_ ~payload:() -> if node mod 2 = 0 then Some () else None)
  in
  let r2, timeline =
    Engine.run_core ~arena:(Engine.Arena.get ()) g ~source:0 ~decide:(fun ~node ~from:_ ->
        node mod 2 = 0)
  in
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

let test_arena_across_sizes () =
  let arena = Engine.Arena.create () in
  let graphs = [ udg ~seed:7 ~n:60 ~d:6.; udg ~seed:8 ~n:9 ~d:4.; udg ~seed:9 ~n:120 ~d:10. ] in
  (* Interleave sizes twice so the second pass hits a shrunken-then-grown
     arena with stale generations everywhere. *)
  List.iter
    (fun _ ->
      List.iter
        (fun (s : Manet_topology.Generator.sample) ->
          let fresh =
            Engine.run_core ~arena:(Engine.Arena.create ()) s.graph ~source:0 ~decide:flood
          in
          let reused = Engine.run_core ~arena s.graph ~source:0 ~decide:flood in
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
  let decide ~node:_ ~from:_ =
    let r, _ = Engine.run_core ~arena inner ~source:0 ~decide:flood in
    nested_results := r :: !nested_results;
    true
  in
  let with_nesting = Engine.run_core ~arena outer.graph ~source:0 ~decide in
  let plain = Engine.run_core ~arena:(Engine.Arena.create ()) outer.graph ~source:0 ~decide:flood in
  Alcotest.check result_t "outer run unaffected by nesting" (fst plain) (fst with_nesting);
  let reference = run inner ~source:0 ~decide:flood in
  List.iter (Alcotest.check result_t "nested run correct" reference) !nested_results;
  Alcotest.(check bool) "nesting actually happened" true (!nested_results <> [])

(* Processing order.  The engine must hand out receptions in (time,
   receiver, sender) order, offer each copy exactly once to a node that
   has not transmitted yet, and consult [drop] once per reception; the
   graphs go up to n = 1000, so the level sort needs several digit
   passes.  [decide] declines pseudo-randomly, so nodes often accept a
   later copy than their first. *)

let order_cases =
  [ (1, 20, 4.); (2, 60, 8.); (3, 200, 12.); (4, 500, 10.); (5, 1000, 15.); (6, 1000, 30.) ]

let declines ~node ~from = ((node * 7919) + (from * 104729)) mod 3 = 0

(* One broadcast with every offer and every [drop] call recorded: the
   offers as (node, from, accepted) in order, the drop count, the
   timeline. *)
let recorded_run ?drop_every g ~source =
  let offers = ref [] and drops = ref 0 in
  let drop () =
    incr drops;
    match drop_every with Some k -> !drops mod k = 0 | None -> false
  in
  let decide ~node ~from =
    let accept = not (declines ~node ~from) in
    offers := (node, from, accept) :: !offers;
    accept
  in
  let _, timeline = Engine.run_core ~drop ~arena:(Engine.Arena.get ()) g ~source ~decide in
  (List.rev !offers, !drops, timeline)

let transmit_times g timeline =
  let t = Array.make (Graph.n g) (-1) in
  List.iter (fun (time, v) -> t.(v) <- time) timeline;
  t

let test_order_offers () =
  List.iter
    (fun (seed, n, d) ->
      let g = (udg ~seed ~n ~d).graph in
      let source = seed * 37 mod n in
      let offers, _, timeline = recorded_run g ~source in
      let tx = transmit_times g timeline in
      let keyed = List.map (fun (node, from, _) -> (tx.(from) + 1, node, from)) offers in
      let rec increasing = function
        | a :: (b :: _ as rest) -> compare a b < 0 && increasing rest
        | [ _ ] | [] -> true
      in
      Alcotest.(check bool) (Printf.sprintf "n=%d: offers strictly increasing" n) true
        (increasing keyed);
      (* The copy from [v] reaches neighbour [u] at tx(v) + 1; it is
         offered iff [u] has not transmitted before it, i.e. [u] never
         transmits or transmits on this copy or a later one. *)
      let accepted = Array.make n (-1, -1) in
      List.iter
        (fun (node, from, ok) -> if ok then accepted.(node) <- (tx.(from) + 1, from))
        offers;
      let expected = ref [] in
      List.iter
        (fun (time, v) ->
          Graph.iter_neighbors g v (fun u ->
              if u <> source && (tx.(u) < 0 || compare accepted.(u) (time + 1, v) >= 0) then
                expected := (time + 1, u, v) :: !expected))
        timeline;
      Alcotest.(check (list (triple int int int)))
        (Printf.sprintf "n=%d: each pending copy offered once" n)
        (List.sort compare !expected) keyed)
    order_cases

let test_order_drops () =
  List.iter
    (fun (seed, n, d) ->
      let g = (udg ~seed ~n ~d).graph in
      List.iter
        (fun drop_every ->
          let _, drops, timeline = recorded_run ?drop_every g ~source:0 in
          let receptions = List.fold_left (fun acc (_, v) -> acc + Graph.degree g v) 0 timeline in
          Alcotest.(check int) (Printf.sprintf "n=%d: one drop per reception" n) receptions drops)
        [ None; Some 4 ])
    order_cases

(* The count-only epilogue and the no-op filter.  [run_count] reads
   [run_core]'s broadcast through a different epilogue, and [run_core]
   without [drop] never schedules a copy to a node that has already
   transmitted.  On random connected graphs, for flooding, a random SI
   member set and a rule that reads [from], under no loss, [Lossy 0.3]
   and a [down] schedule, neither may change anything observable. *)

let down_schedule ~time ~node = ((node * 31) + time) mod 7 = 0

let decide_kinds g seed =
  let rng = Manet_rng.Rng.create ~seed in
  let members = Array.init (Graph.n g) (fun _ -> Manet_rng.Rng.bool rng) in
  [
    flood;
    (fun ~node ~from:_ -> members.(node));
    (fun ~node ~from -> not (declines ~node ~from));
  ]

(* (mode, down): no loss, loss, node failures. *)
let conditions =
  [ (Protocol.Perfect, None); (Protocol.Lossy 0.3, None); (Protocol.Perfect, Some down_schedule) ]

let prop_count_equals_core =
  qtest "run_count = run_core's counts, same draws" ~count:60 (arb_udg ())
    (fun ((seed, n, _) as c) ->
      let g = (sample_of c).graph and source = seed mod n in
      List.for_all
        (fun decide ->
          List.for_all
            (fun (mode, down) ->
              let env () = Protocol.make_env ~rng:(Manet_rng.Rng.create ~seed) ?down g in
              let e1 = env () and e2 = env () in
              let built e = Protocol.of_pipeline e ~members:None (fun ~source:_ -> decide) in
              let r, _ = (built e1).run ~source ~mode in
              let c = (built e2).count ~source ~mode in
              c.Engine.forwards = Result.forward_count r
              && c.Engine.delivered = Result.delivered_count r
              && c.Engine.completion_time = r.Result.completion_time
              && Manet_rng.Rng.bits53 e1.Protocol.rng = Manet_rng.Rng.bits53 e2.Protocol.rng)
            conditions)
        (decide_kinds g seed))

(* The SI traversal.  [Engine.run_si_count] must give [run_core]'s
   counts with the member decide and with the flood decide, on graphs of
   n > 256 (multi-pass level sorts) with isolated nodes appended, as the
   serving loop parks the nodes that left, an indicator that may stop
   short of n, and a source that may be a non-member or isolated.
   [Protocol.si] and [Protocol.flooding] take the traversal for their
   [count] under [Perfect] and [Lossy 0.]; both must agree too. *)
let prop_si_traversal =
  qtest "SI traversal = run_core's counts" ~count:30
    (arb_udg ~n_min:260 ~n_max:400 ~ds:[ 6.; 10.; 18. ] ())
    (fun ((seed, _, _) as c) ->
      let module Rng = Manet_rng.Rng in
      let base = (sample_of c).graph and rng = Rng.create ~seed in
      let n = Graph.n base + Rng.int rng 5 in
      let g = Graph.of_edges ~n (Graph.edges base) in
      let source = Rng.int rng n in
      let ind =
        Bytes.init (Rng.int rng (n + 1)) (fun _ -> if Rng.bool rng then '\001' else '\000')
      in
      let is_member v = v < Bytes.length ind && Bytes.get ind v <> '\000' in
      let members = Nodeset.of_list (List.filter is_member (List.init n Fun.id)) in
      let by_members ~node ~from:_ = is_member node in
      let agree (c : Engine.counts) decide =
        let r, _ = Engine.run_core ~arena:(Engine.Arena.get ()) g ~source ~decide in
        c.forwards = Result.forward_count r
        && c.delivered = Result.delivered_count r
        && c.completion_time = r.Result.completion_time
      in
      let counted (p : Protocol.t) mode =
        (p.prepare (Protocol.make_env g)).count ~source ~mode
      in
      let si = Protocol.si ~name:"members" ~description:"" ~build:(fun _ -> members) in
      agree (Engine.run_si_count ~arena:(Engine.Arena.get ()) g ~source ~member:(Some ind)) by_members
      && agree (Engine.run_si_count ~arena:(Engine.Arena.get ()) g ~source ~member:None) flood
      && List.for_all
           (fun mode ->
             agree (counted si mode) by_members && agree (counted Protocol.flooding mode) flood)
           [ Protocol.Perfect; Protocol.Lossy 0. ])

(* The serving loop's epoch certificate ([Workload.serve]).  Parked
   nodes are isolated and may keep a stale member byte.  A member source
   whose traversal delivers every live node certifies the epoch: it has
   forwarded at every active member, and every active source must then
   deliver exactly the live count, forwarding at every active member
   (plus itself when it is not one).  Member sets: the static backbone
   of the parked graph (which must certify whenever the live nodes are
   connected, by Theorem 1), the same with one member removed (possibly
   disconnected) and a random subset, on graphs of n = 20 to 400. *)
let active_members ind active =
  let k = ref 0 in
  Array.iteri (fun v a -> if a && Bytes.get ind v <> '\000' then incr k) active;
  !k

let si_count g ~source ind = Engine.run_si_count ~arena:(Engine.Arena.get ()) g ~source ~member:ind

let prop_epoch_certificate =
  qtest "epoch certificate: a member source certifies every source" ~count:40
    (arb_udg ~n_min:20 ~n_max:400 ~ds:[ 6.; 10.; 18. ] ())
    (fun ((seed, _, _) as c) ->
      let module Rng = Manet_rng.Rng in
      let base = (sample_of c).graph and rng = Rng.create ~seed in
      let n = Graph.n base in
      let active = Array.make n true in
      for _ = 1 to Rng.int rng 4 do
        active.(Rng.int rng n) <- false
      done;
      let g =
        Graph.of_edges ~n (List.filter (fun (u, v) -> active.(u) && active.(v)) (Graph.edges base))
      in
      let live = Array.fold_left (fun k a -> if a then k + 1 else k) 0 active in
      let nodes = List.init n Fun.id in
      let bytes_of set = Bytes.init n (fun v -> if Nodeset.mem v set then '\001' else '\000') in
      let backbone =
        (Manet_backbone.Static_backbone.build g Manet_coverage.Coverage.Hop25).members
      in
      let dropped =
        Nodeset.remove (List.nth (Nodeset.elements backbone) (Rng.int rng (Nodeset.cardinal backbone)))
          backbone
      in
      let random = Bytes.init n (fun _ -> if Rng.bool rng then '\001' else '\000') in
      let certifies ind =
        let members = List.filter (fun v -> active.(v) && Bytes.get ind v <> '\000') nodes in
        members <> []
        &&
        let c = si_count g ~source:(List.nth members (Rng.int rng (List.length members))) (Some ind) in
        c.delivered = live
        && (c.forwards = active_members ind active || QCheck.Test.fail_report "forwards <> members")
      in
      let every_source_delivers ind =
        let k = active_members ind active in
        List.for_all
          (fun source ->
            (not active.(source))
            ||
            let c = si_count g ~source (Some ind) in
            c.delivered = live && c.forwards = if Bytes.get ind source <> '\000' then k else k + 1)
          nodes
      in
      let connected = (si_count g ~source:(List.find (Array.get active) nodes) None).delivered = live in
      ((not connected) || certifies (bytes_of backbone))
      && List.for_all
           (fun ind -> (not (certifies ind)) || every_source_delivers ind)
           [ bytes_of backbone; bytes_of dropped; random ])

(* Why a non-member source cannot certify: on 0 - 1 - 2 with members
   {0, 2} (node 3 parked, its member byte stale), source 1 delivers
   every live node and forwards at every active member plus itself, yet
   member 0 cannot reach member 2. *)
let test_certificate_needs_member_source () =
  let g = Graph.of_edges ~n:4 [ (0, 1); (1, 2) ] in
  let ind = Bytes.of_string "\001\000\001\001" in
  let active = [| true; true; true; false |] in
  let c = si_count g ~source:1 (Some ind) in
  Alcotest.(check int) "non-member source delivers every live node" 3 c.delivered;
  Alcotest.(check int) "forwards - 1 = active members" (active_members ind active) (c.forwards - 1);
  Alcotest.(check int) "member source 0 delivers fewer" 2 (si_count g ~source:0 (Some ind)).delivered

(* Every [decide] call as (time, node, from): the copy from [from]
   arrives one unit after [from] transmitted. *)
let logged_run ?drop ?down g ~source ~decide =
  let log = ref [] in
  let decide ~node ~from =
    log := (node, from) :: !log;
    decide ~node ~from
  in
  let r, timeline = Engine.run_core ?drop ?down ~arena:(Engine.Arena.get ()) g ~source ~decide in
  let tx = transmit_times g timeline in
  (r, timeline, List.rev_map (fun (node, from) -> (tx.(from) + 1, node, from)) !log)

let prop_filter_is_invisible =
  qtest "no-drop filter = never-firing drop" ~count:60 (arb_udg ())
    (fun ((seed, n, _) as c) ->
      let g = (sample_of c).graph and source = seed mod n in
      List.for_all
        (fun decide ->
          List.for_all
            (fun down ->
              let r1, t1, l1 = logged_run ?down g ~source ~decide in
              let r2, t2, l2 = logged_run ~drop:(fun () -> false) ?down g ~source ~decide in
              Alcotest.equal result_t r1 r2 && t1 = t2 && l1 = l2)
            [ None; Some down_schedule ])
        (decide_kinds g seed))

module Scratch = Engine.Scratch

(* Random schedules through Scratch, each event 1..4 units ahead:
   events come back in (time, node, sender) order, ties in push order,
   each exactly once. *)
let test_scratch_order () =
  List.iter
    (fun (seed, n) ->
      let rng = Manet_rng.Rng.create ~seed in
      let budget = 4 * n in
      let pushed = ref [] and seen = ref [] and count = ref 0 in
      let push scr ~time =
        if !count < budget then begin
          let node = Manet_rng.Rng.int rng n and sender = Manet_rng.Rng.int rng n in
          (* Repeated (node, sender) pairs give equal sort keys, and a hub
             receiving most events makes one digit dominate a level
             without filling it. *)
          let node, sender =
            match !count mod 5 with 0 -> (0, 0) | 1 | 2 | 3 -> (n - 1, sender) | _ -> (node, sender)
          in
          Scratch.push scr ~time ~node ~sender ~payload:!count;
          pushed := (time, node, sender, !count) :: !pushed;
          incr count
        end
      in
      Scratch.with_scratch ~arena:(Engine.Arena.create ()) ~n ~payload_bound:budget (fun scr ->
          for _ = 1 to 40 do
            push scr ~time:(1 + Manet_rng.Rng.int rng 4)
          done;
          while Scratch.advance scr do
            let time = Scratch.time scr in
            seen := (time, Scratch.node scr, Scratch.sender scr, Scratch.payload scr) :: !seen;
            for _ = 1 to Manet_rng.Rng.int rng 3 do
              push scr ~time:(time + 1 + Manet_rng.Rng.int rng 4)
            done
          done);
      Alcotest.(check (list (pair (triple int int int) int)))
        (Printf.sprintf "n=%d: sorted, ties in push order" n)
        (List.map (fun (t, v, s, p) -> ((t, v, s), p)) (List.sort compare !pushed))
        (List.rev_map (fun (t, v, s, p) -> ((t, v, s), p)) !seen))
    [ (11, 10); (12, 200); (13, 1000); (14, 5000) ]

(* Levels of up to 16 keys are insertion-sorted, longer ones radix-sorted:
   for one level of 1 to 20 keys over a few (node, sender) fields, so
   most keys repeat a field, both give the stable order — ascending
   fields, equal fields in push order. *)
let test_scratch_small_levels () =
  let rng = Manet_rng.Rng.create ~seed:21 in
  for len = 1 to 20 do
    let pushed =
      List.init len (fun i -> (Manet_rng.Rng.int rng 3, Manet_rng.Rng.int rng 3, i))
    in
    let read = ref [] in
    Scratch.with_scratch ~arena:(Engine.Arena.create ()) ~n:8 ~payload_bound:32 (fun scr ->
        List.iter
          (fun (node, sender, i) -> Scratch.push scr ~time:1 ~node ~sender ~payload:i)
          pushed;
        while Scratch.advance scr do
          read := (Scratch.node scr, Scratch.sender scr, Scratch.payload scr) :: !read
        done);
    let expected =
      List.stable_sort (fun (v, s, _) (v', s', _) -> compare (v, s) (v', s')) pushed
    in
    Alcotest.(check (list (triple int int int)))
      (Printf.sprintf "level of %d keys" len)
      expected (List.rev !read)
  done

let test_scratch_window () =
  Scratch.with_scratch ~arena:(Engine.Arena.get ()) ~n:10 ~payload_bound:4 (fun scr ->
      let bad time () = Scratch.push scr ~time ~node:1 ~sender:0 ~payload:0 in
      let rejects label times =
        List.iter
          (fun time ->
            Alcotest.check_raises (Printf.sprintf "t=%d %s" time label)
              (Invalid_argument "Engine.Scratch.push: time must be within now + 1 .. now + 4")
              (bad time))
          times
      in
      rejects "at 0" [ 0; 5; -1 ];
      Alcotest.check_raises "payload"
        (Invalid_argument "Engine.Scratch.push: payload out of range") (fun () ->
          Scratch.push scr ~time:1 ~node:1 ~sender:0 ~payload:4);
      (* The window's edges are accepted. *)
      bad 1 ();
      bad 3 ();
      bad 4 ();
      Alcotest.(check bool) "advance" true (Scratch.advance scr);
      Alcotest.(check int) "time" 1 (Scratch.time scr);
      rejects "at 1" [ 1; 6 ];
      Alcotest.(check bool) "advance" true (Scratch.advance scr);
      Alcotest.(check int) "skips the empty level" 3 (Scratch.time scr);
      Alcotest.(check bool) "advance" true (Scratch.advance scr);
      Alcotest.(check int) "time" 4 (Scratch.time scr);
      bad 8 ();
      Alcotest.(check bool) "advance" true (Scratch.advance scr);
      Alcotest.(check int) "skips three empty levels" 8 (Scratch.time scr);
      Alcotest.(check bool) "drained" false (Scratch.advance scr))

(* A designation and a data copy from the same sender can reach the
   same node at the same time under equal keys: both are read, in push
   order — whether both were pushed one unit ahead, or the first two
   or four units ahead (the ring of future levels) and the second one
   unit ahead a level later. *)
let test_scratch_equal_keys () =
  Scratch.with_scratch ~arena:(Engine.Arena.get ()) ~n:8 ~payload_bound:4 (fun scr ->
      Scratch.push scr ~time:1 ~node:4 ~sender:3 ~payload:1;
      Scratch.push scr ~time:1 ~node:4 ~sender:3 ~payload:0;
      Scratch.push scr ~time:2 ~node:5 ~sender:3 ~payload:1;
      Scratch.push scr ~time:4 ~node:6 ~sender:3 ~payload:1;
      Scratch.push scr ~time:3 ~node:7 ~sender:2 ~payload:0;
      let read = ref [] in
      while Scratch.advance scr do
        let time = Scratch.time scr in
        if time = 1 && !read = [] then Scratch.push scr ~time:2 ~node:5 ~sender:3 ~payload:2;
        if time = 3 then Scratch.push scr ~time:4 ~node:6 ~sender:3 ~payload:3;
        read := ((time, Scratch.node scr), (Scratch.sender scr, Scratch.payload scr)) :: !read
      done;
      Alcotest.(check (list (pair (pair int int) (pair int int))))
        "all handled, in push order"
        [
          ((1, 4), (3, 1));
          ((1, 4), (3, 0));
          ((2, 5), (3, 1));
          ((2, 5), (3, 2));
          ((3, 7), (2, 0));
          ((4, 6), (3, 1));
          ((4, 6), (3, 3));
        ]
        (List.rev !read))

let () =
  Alcotest.run "broadcast"
    [
      ("result", [ Alcotest.test_case "accessors" `Quick test_result_accessors ]);
      ( "engine",
        [
          Alcotest.test_case "silent network" `Quick test_source_always_transmits;
          Alcotest.test_case "transmit at most once" `Quick test_transmit_at_most_once;
          Alcotest.test_case "late designation" `Quick test_late_designation;
          Alcotest.test_case "deterministic tie-break" `Quick test_first_copy_smallest_sender;
          Alcotest.test_case "source out of range" `Quick test_source_out_of_range;
          Alcotest.test_case "single node" `Quick test_single_node_graph;
          Alcotest.test_case "arena reuse across sizes" `Quick test_arena_across_sizes;
          Alcotest.test_case "arena reentrancy" `Quick test_arena_reentrant;
        ] );
      ( "order",
        [
          Alcotest.test_case "offers in order, once each" `Quick test_order_offers;
          Alcotest.test_case "one drop per reception" `Quick test_order_drops;
          Alcotest.test_case "scratch: random schedules" `Quick test_scratch_order;
          Alcotest.test_case "scratch: small levels" `Quick test_scratch_small_levels;
          Alcotest.test_case "scratch: push window" `Quick test_scratch_window;
          Alcotest.test_case "scratch: equal keys" `Quick test_scratch_equal_keys;
        ] );
      ( "epilogue",
        [
          prop_count_equals_core;
          prop_filter_is_invisible;
          prop_si_traversal;
          prop_epoch_certificate;
          Alcotest.test_case "certificate needs a member source" `Quick
            test_certificate_needs_member_source;
        ] );
      ( "lossy",
        [
          Alcotest.test_case "zero loss = reliable engine" `Quick test_lossy_zero_loss_equals_engine;
          Alcotest.test_case "signed zero loss draws nothing" `Quick
            test_lossy_signed_zero_draws_nothing;
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
