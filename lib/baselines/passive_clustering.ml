module Graph = Manet_graph.Graph
module Nodeset = Manet_graph.Nodeset
module Rng = Manet_rng.Rng

type role = Clusterhead | Gateway | Ordinary

type t = { result : Manet_broadcast.Result.t; roles : role array }

(* Transmissions piggyback the sender's declared state: clusterhead, or
   (candidate) gateway with the clusterhead neighbors it bridges. *)
type info = Head_decl | Gateway_decl of Nodeset.t

module H = Manet_sim.Heap.Make (Manet_sim.Event_key)

type event = Reception of info | Decide

(* Role decisions are deferred by a backoff drawn from 1..window. *)
let window = 4

let run ~rng g ~source =
  let n = Graph.n g in
  if source < 0 || source >= n then invalid_arg "Passive_clustering.run: source out of range";
  let roles = Array.make n Ordinary in
  let ch_neighbors = Array.make n Nodeset.empty in
  let covered = Array.make n Nodeset.empty in
  let delivered = Array.make n false in
  let transmitted = Array.make n false in
  let backoff = Array.init n (fun _ -> 1 + Rng.int rng window) in
  let forwarders = ref Nodeset.empty in
  let completion = ref 0 in
  let events = H.create () in
  let trace = ref [] in
  let transmit time v payload =
    transmitted.(v) <- true;
    forwarders := Nodeset.add v !forwarders;
    trace := (time, v) :: !trace;
    Graph.iter_neighbors g v (fun u ->
        H.push events (Manet_sim.Event_key.reception ~time:(time + 1) ~node:u ~sender:v) (Reception payload))
  in
  delivered.(source) <- true;
  roles.(source) <- Clusterhead;
  transmit 0 source Head_decl;
  (* First declaration wins, decided after the node's backoff so the
     declarations of faster neighbors are heard first:
     - no clusterhead heard -> declare clusterhead and forward;
     - clusterheads heard but all bridged by heard gateways -> ordinary;
     - otherwise -> gateway candidate: forward, announcing its bridged
       clusterheads (two or more make it a full gateway). *)
  let rec drain () =
    match H.pop events with
    | None -> ()
    | Some ({ Manet_sim.Event_key.time; node; sender; _ }, ev) ->
      (match ev with
      | Reception payload ->
        if not delivered.(node) then begin
          delivered.(node) <- true;
          completion := time;
          H.push events (Manet_sim.Event_key.local ~time:(time + backoff.(node)) ~kind:1 ~node) Decide
        end;
        (match payload with
        | Head_decl -> ch_neighbors.(node) <- Nodeset.add sender ch_neighbors.(node)
        | Gateway_decl bridged -> covered.(node) <- Nodeset.union covered.(node) bridged)
      | Decide ->
        if not transmitted.(node) then begin
          if Nodeset.is_empty ch_neighbors.(node) then begin
            roles.(node) <- Clusterhead;
            transmit time node Head_decl
          end
          else if not (Nodeset.subset ch_neighbors.(node) covered.(node)) then begin
            if Nodeset.cardinal ch_neighbors.(node) >= 2 then roles.(node) <- Gateway;
            transmit time node (Gateway_decl ch_neighbors.(node))
          end
        end);
      drain ()
  in
  drain ();
  let result =
    { Manet_broadcast.Result.source; forwarders = !forwarders; delivered; completion_time = !completion }
  in
  ({ result; roles }, List.rev !trace)

let protocol =
  Manet_broadcast.Protocol.per_broadcast ~name:"passive"
    ~description:"passive clustering (Kwon and Gerla): roles declared in-flight, gateways may suppress"
    ~family:Manet_broadcast.Protocol.Probabilistic
    (fun env ~source ~mode ->
      let open Manet_broadcast.Protocol in
      frozen_lossy env ~source ~mode
        ~run:(fun ~source ->
          let p, trace = run ~rng:env.rng env.graph ~source in
          (p.result, trace)))

let collect t role =
  let s = ref Nodeset.empty in
  Array.iteri (fun v r -> if r = role then s := Nodeset.add v !s) t.roles;
  !s

let heads t = collect t Clusterhead

let gateways t = collect t Gateway
