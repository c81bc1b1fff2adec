module Rounds = Manet_sim.Rounds
module Graph = Manet_graph.Graph

module Int_heap = Manet_sim.Heap.Make (Int)

(* Heap *)

let test_heap_ordering () =
  let h = Int_heap.create () in
  List.iter (fun k -> Int_heap.push h k k) [ 5; 1; 4; 1; 3; 9; 0 ];
  let out = ref [] in
  let rec drain () =
    match Int_heap.pop h with
    | Some (k, _) ->
      out := k :: !out;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "sorted" [ 0; 1; 1; 3; 4; 5; 9 ] (List.rev !out)

let test_heap_peek_pop () =
  let h = Int_heap.create () in
  Alcotest.(check bool) "empty" true (Int_heap.is_empty h);
  Int_heap.push h 2 "b";
  Int_heap.push h 1 "a";
  (match Int_heap.peek h with
  | Some (1, "a") -> ()
  | Some _ | None -> Alcotest.fail "peek should see the minimum");
  Alcotest.(check int) "length" 2 (Int_heap.length h);
  ignore (Int_heap.pop h);
  Alcotest.(check int) "length after pop" 1 (Int_heap.length h);
  Int_heap.clear h;
  Alcotest.(check bool) "cleared" true (Int_heap.is_empty h)

let test_heap_pop_exn () =
  let h = Int_heap.create () in
  Alcotest.check_raises "empty pop" (Invalid_argument "Heap.pop_exn: empty heap") (fun () ->
      ignore (Int_heap.pop_exn h))

let test_heap_random_against_sort () =
  let rng = Manet_rng.Rng.create ~seed:9 in
  for _ = 1 to 20 do
    let keys = List.init 200 (fun _ -> Manet_rng.Rng.int rng 1000) in
    let h = Int_heap.create () in
    List.iter (fun k -> Int_heap.push h k ()) keys;
    let out = ref [] in
    let rec drain () =
      match Int_heap.pop h with
      | Some (k, ()) ->
        out := k :: !out;
        drain ()
      | None -> ()
    in
    drain ();
    Alcotest.(check (list int)) "heap = sort" (List.sort compare keys) (List.rev !out)
  done

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
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "peek/pop/clear" `Quick test_heap_peek_pop;
          Alcotest.test_case "pop_exn" `Quick test_heap_pop_exn;
          Alcotest.test_case "random vs sort" `Quick test_heap_random_against_sort;
        ] );
      ( "rounds",
        [
          Alcotest.test_case "gossip floods" `Quick test_rounds_gossip;
          Alcotest.test_case "inbox ordering" `Quick test_rounds_inbox_order;
          Alcotest.test_case "silent protocol quiesces" `Quick test_rounds_no_messages;
          Alcotest.test_case "non-quiescence detected" `Quick test_rounds_nonquiescent_detected;
        ] );
    ]
