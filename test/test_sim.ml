module Rounds = Manet_sim.Rounds
module Graph = Manet_graph.Graph

module Timeline = Manet_sim.Timeline

(* Timeline *)

let drain tl =
  let rec go acc = match Timeline.pop tl with Some e -> go (e :: acc) | None -> List.rev acc in
  go []

let test_timeline_ordering () =
  let tl = Timeline.create () in
  List.iter
    (fun k -> Timeline.schedule tl ~time:(float_of_int k) ~rank:0 k)
    [ 5; 1; 4; 1; 3; 9; 0 ];
  Alcotest.(check (list int)) "sorted" [ 0; 1; 1; 3; 4; 5; 9 ] (List.map snd (drain tl))

(* Random (time, rank) pairs from small ranges, so most entries tie on
   time and many on both: pops must follow (time, rank, scheduling
   order), which is a stable sort of the schedule. *)
let test_timeline_random_against_sort () =
  let rng = Manet_rng.Rng.create ~seed:9 in
  for _ = 1 to 20 do
    let events =
      List.init 200 (fun seq ->
          (float_of_int (Manet_rng.Rng.int rng 20) /. 4., Manet_rng.Rng.int rng 3, seq))
    in
    let tl = Timeline.create () in
    List.iter (fun (time, rank, seq) -> Timeline.schedule tl ~time ~rank (rank, seq)) events;
    let expected =
      List.map
        (fun (time, rank, seq) -> (time, (rank, seq)))
        (List.stable_sort (fun (t1, r1, _) (t2, r2, _) -> compare (t1, r1) (t2, r2)) events)
    in
    Alcotest.(check (list (pair (float 0.) (pair int int)))) "timeline = stable sort" expected
      (drain tl)
  done

let test_timeline_non_finite () =
  let tl = Timeline.create () in
  List.iter
    (fun time ->
      Alcotest.check_raises (Printf.sprintf "time %g" time)
        (Invalid_argument "Timeline.schedule: time must be finite") (fun () ->
          Timeline.schedule tl ~time ~rank:0 ()))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  Alcotest.(check bool) "nothing scheduled" true (Timeline.pop tl = None)

(* Rounds: a trivial gossip protocol as the engine exercise — node 0
   floods a token, each node forwards it once; everyone must end up
   holding the token after at most eccentricity rounds, with exactly n
   transmissions. *)

module Gossip = struct
  type msg = Token

  type state = { id : int; mutable have : bool; mutable sent : bool }

  let init _g v = { id = v; have = v = 0; sent = false }

  let on_start s =
    if s.have && not s.sent then begin
      s.sent <- true;
      [ Token ]
    end
    else []

  let on_message s ~from:_ Token = s.have <- true

  let on_round_end s =
    if s.have && not s.sent then begin
      s.sent <- true;
      [ Token ]
    end
    else []
end

module Gossip_run = Rounds.Run (Gossip)

let test_rounds_gossip () =
  let g = Graph.path 6 in
  let r = Gossip_run.run g in
  Array.iter (fun (s : Gossip.state) -> Alcotest.(check bool) "holds token" true s.have) r.states;
  Alcotest.(check int) "one transmission per node" 6 r.transmissions;
  (* Path: token walks 5 hops, plus the final quiescent round check. *)
  Alcotest.(check bool) "round count near eccentricity" true (r.rounds >= 5 && r.rounds <= 7)

(* Inbox ordering: receivers process senders in ascending id. *)
let test_rounds_inbox_order () =
  let module Recorder = struct
    type msg = Ping

    type state = { id : int; mutable seen : int list; mutable started : bool }

    let init _ v = { id = v; seen = []; started = false }

    let on_start s =
      if s.id < 3 then begin
        s.started <- true;
        [ Ping ]
      end
      else []

    let on_message s ~from Ping = s.seen <- from :: s.seen

    let on_round_end _ = []
  end in
  let module R = Manet_sim.Rounds.Run (Recorder) in
  (* node 3 adjacent to 2, 1, 0 - all broadcast in round 0 *)
  let g = Graph.of_edges ~n:4 [ (3, 2); (3, 1); (3, 0) ] in
  let r = R.run g in
  Alcotest.(check (list int)) "ascending senders" [ 0; 1; 2 ]
    (List.rev r.states.(3).Recorder.seen)

let test_rounds_no_messages () =
  (* A protocol that never transmits quiesces immediately. *)
  let module Silent = struct
    type msg = unit

    type state = unit

    let init _ _ = ()

    let on_start () = []

    let on_message () ~from:_ () = ()

    let on_round_end () = []
  end in
  let module R = Rounds.Run (Silent) in
  let r = R.run (Graph.complete 4) in
  Alcotest.(check int) "zero rounds" 0 r.rounds;
  Alcotest.(check int) "zero transmissions" 0 r.transmissions

let test_rounds_nonquiescent_detected () =
  let module Chatter = struct
    type msg = unit

    type state = unit

    let init _ _ = ()

    let on_start () = [ () ]

    let on_message () ~from:_ () = ()

    let on_round_end () = [ () ]
  end in
  let module R = Rounds.Run (Chatter) in
  (match R.run ~max_rounds:10 (Graph.complete 3) with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected failure on non-quiescent protocol")

let () =
  Alcotest.run "sim"
    [
      ( "timeline",
        [
          Alcotest.test_case "ordering" `Quick test_timeline_ordering;
          Alcotest.test_case "random vs sort" `Quick test_timeline_random_against_sort;
          Alcotest.test_case "non-finite time" `Quick test_timeline_non_finite;
        ] );
      ( "rounds",
        [
          Alcotest.test_case "gossip floods" `Quick test_rounds_gossip;
          Alcotest.test_case "inbox ordering" `Quick test_rounds_inbox_order;
          Alcotest.test_case "silent protocol quiesces" `Quick test_rounds_no_messages;
          Alcotest.test_case "non-quiescence detected" `Quick test_rounds_nonquiescent_detected;
        ] );
    ]
