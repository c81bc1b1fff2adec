module Graph = Manet_graph.Graph
module Nodeset = Manet_graph.Nodeset
module Clustering = Manet_cluster.Clustering

type report = { informed : Nodeset.t; rounds : int; transmissions : int }

type msg = Gateway of { from_head : int; selected : Nodeset.t; ttl : int }

type state = {
  id : int;
  is_head : bool;
  selection : Nodeset.t;  (** a head's own selection; empty otherwise *)
  mutable informed : bool;
  mutable pending : msg list;  (** forwards queued for the next round *)
  mutable forwarded : int list;  (** heads whose message was already forwarded *)
}

let run g cl coverages =
  let module P = struct
    type nonrec msg = msg

    type nonrec state = state

    let init _g v =
      let is_head = Clustering.is_head cl v in
      let selection =
        match coverages.(v) with
        | Some cov -> Gateway_selection.select cov
        | None -> Nodeset.empty
      in
      { id = v; is_head; selection; informed = false; pending = []; forwarded = [] }

    let on_start s =
      if s.is_head then [ Gateway { from_head = s.id; selected = s.selection; ttl = 2 } ]
      else []

    let on_message s ~from:_ (Gateway { from_head; selected; ttl }) =
      if Nodeset.mem s.id selected then begin
        s.informed <- true;
        if ttl - 1 > 0 && not (List.exists (Int.equal from_head) s.forwarded) then begin
          s.forwarded <- from_head :: s.forwarded;
          s.pending <- Gateway { from_head; selected; ttl = ttl - 1 } :: s.pending
        end
      end

    let on_round_end s =
      let out = List.rev s.pending in
      s.pending <- [];
      out
  end in
  let module R = Manet_sim.Rounds.Run (P) in
  let result = R.run g in
  let informed = Nodeset.of_indicator (Array.map (fun (s : state) -> s.informed) result.states) in
  { informed; rounds = result.rounds; transmissions = result.transmissions }
