module Graph = Manet_graph.Graph
module Nodeset = Manet_graph.Nodeset
module Rng = Manet_rng.Rng

module H = Manet_sim.Heap.Make (Manet_sim.Event_key)

type event = Reception | Expiry

(* Backoffs are drawn uniformly from 1..window time units. *)
let window = 4

let run ~rng g ~source =
  let n = Graph.n g in
  if source < 0 || source >= n then invalid_arg "Self_pruning: source out of range";
  let delivered = Array.make n false in
  let transmitted = Array.make n false in
  let heard_from = Array.make n Nodeset.empty in
  (* Per-node backoffs are drawn up front so results depend only on the
     generator's state, not on event interleaving. *)
  let backoff = Array.init n (fun _ -> 1 + Rng.int rng window) in
  let forwarders = ref Nodeset.empty in
  let completion = ref 0 in
  let events = H.create () in
  let trace = ref [] in
  let transmit time v =
    transmitted.(v) <- true;
    forwarders := Nodeset.add v !forwarders;
    trace := (time, v) :: !trace;
    Graph.iter_neighbors g v (fun u ->
        H.push events (Manet_sim.Event_key.reception ~time:(time + 1) ~node:u ~sender:v) Reception)
  in
  delivered.(source) <- true;
  transmit 0 source;
  let rec drain () =
    match H.pop events with
    | None -> ()
    | Some ({ Manet_sim.Event_key.time; node; sender; _ }, ev) ->
      (match ev with
      | Reception ->
        if not delivered.(node) then begin
          delivered.(node) <- true;
          completion := time;
          H.push events
            (Manet_sim.Event_key.local ~time:(time + backoff.(node)) ~kind:1 ~node)
            Expiry
        end;
        heard_from.(node) <- Nodeset.add sender heard_from.(node)
      | Expiry ->
        if not transmitted.(node) then begin
          let covered =
            Nodeset.fold
              (fun s acc -> Nodeset.union acc (Graph.closed_neighborhood g s))
              heard_from.(node) Nodeset.empty
          in
          if not (Nodeset.subset (Graph.open_neighborhood g node) covered) then
            transmit time node
        end);
      drain ()
  in
  drain ();
  ( { Manet_broadcast.Result.source; forwarders = !forwarders; delivered; completion_time = !completion },
    List.rev !trace )

let protocol =
  Manet_broadcast.Protocol.per_broadcast ~name:"self-pruning"
    ~description:"backoff neighbor-coverage self-pruning (Lim and Kim): resign if heard copies cover N(v)"
    ~family:Manet_broadcast.Protocol.Probabilistic
    (fun env ~source ~mode ->
      let open Manet_broadcast.Protocol in
      frozen_lossy env ~source ~mode
        ~run:(fun ~source -> run ~rng:env.rng env.graph ~source))
