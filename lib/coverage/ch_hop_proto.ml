module Graph = Manet_graph.Graph
module Nodeset = Manet_graph.Nodeset
module Clustering = Manet_cluster.Clustering

type report = { coverages : Coverage.t option array; rounds : int; transmissions : int }

type msg =
  | Ch_hop1 of { own_head : int; heads : Nodeset.t }
  | Ch_hop2 of (int * int) list  (** (clusterhead, via) entries *)

type state = {
  id : int;
  is_head : bool;
  mutable round : int;
  (* non-clusterhead bookkeeping *)
  mutable hop2_entries : (int * int) list;  (** reversed accumulation *)
  mutable hop2_seen : int list;
  (* clusterhead bookkeeping: raw receptions *)
  mutable heard_hop1 : (int * Nodeset.t) list;  (** (sender, its 1-hop heads) *)
  mutable heard_hop2 : (int * (int * int) list) list;  (** (sender, entries) *)
}

let run g cl mode =
  let module P = struct
    type nonrec msg = msg

    type nonrec state = state

    let init _g v =
      {
        id = v;
        is_head = Clustering.is_head cl v;
        round = 0;
        hop2_entries = [];
        hop2_seen = [];
        heard_hop1 = [];
        heard_hop2 = [];
      }

    let on_start s =
      if s.is_head then []
      else [ Ch_hop1 { own_head = Clustering.head_of cl s.id; heads = Coverage.ch_hop1 g cl s.id } ]

    let on_message s ~from m =
      match m with
      | Ch_hop1 { own_head; heads } ->
        if s.is_head then s.heard_hop1 <- (from, heads) :: s.heard_hop1
        else begin
          (* Messages arrive sorted by sender, so the first entry kept per
             clusterhead has the smallest via node. *)
          let candidates =
            match mode with Coverage.Hop25 -> [ own_head ] | Coverage.Hop3 -> Nodeset.elements heads
          in
          List.iter
            (fun c ->
              if (not (Graph.mem_edge g s.id c)) && not (List.exists (Int.equal c) s.hop2_seen)
              then begin
                s.hop2_seen <- c :: s.hop2_seen;
                s.hop2_entries <- (c, from) :: s.hop2_entries
              end)
            candidates
        end
      | Ch_hop2 entries -> if s.is_head then s.heard_hop2 <- (from, entries) :: s.heard_hop2

    let on_round_end s =
      s.round <- s.round + 1;
      if (not s.is_head) && s.round = 1 then
        [
          Ch_hop2
            (List.sort
               (fun (c1, w1) (c2, w2) ->
                 match Int.compare c1 c2 with 0 -> Int.compare w1 w2 | c -> c)
               s.hop2_entries);
        ]
      else []
  end in
  let module R = Manet_sim.Rounds.Run (P) in
  let result = R.run g in
  let assemble (s : state) =
    if not s.is_head then None
    else begin
      let c2_tbl = Hashtbl.create 8 in
      List.iter
        (fun (v, heads) ->
          Nodeset.iter
            (fun c ->
              if c <> s.id then
                Hashtbl.replace c2_tbl c
                  (v :: (Option.value ~default:[] (Hashtbl.find_opt c2_tbl c))))
            heads)
        s.heard_hop1;
      let c3_tbl = Hashtbl.create 8 in
      List.iter
        (fun (v, entries) ->
          List.iter
            (fun (c, w) ->
              if c <> s.id && not (Hashtbl.mem c2_tbl c) then
                Hashtbl.replace c3_tbl c
                  ((v, w) :: (Option.value ~default:[] (Hashtbl.find_opt c3_tbl c))))
            entries)
        s.heard_hop2;
      let sorted_assoc tbl cmp_payload =
        Hashtbl.fold (fun c l acc -> (c, List.sort cmp_payload l) :: acc) tbl []
        |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
      in
      Some
        (Coverage.of_sorted ~owner:s.id mode
           ~c2:(sorted_assoc c2_tbl Int.compare)
           ~c3:
             (sorted_assoc c3_tbl (fun (v1, w1) (v2, w2) ->
                  match Int.compare v1 v2 with 0 -> Int.compare w1 w2 | c -> c)))
    end
  in
  {
    coverages = Array.map assemble result.states;
    rounds = result.rounds;
    transmissions = result.transmissions;
  }
