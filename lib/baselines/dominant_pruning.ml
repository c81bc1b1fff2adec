module Graph = Manet_graph.Graph
module Nodeset = Manet_graph.Nodeset
module Protocol = Manet_broadcast.Protocol

(* The packet carries the sender's forward designation. *)
type packet = { forwards : Nodeset.t }

(* The per-broadcast pipeline: the source's packet and the decide
   callback. *)
let pipeline g ~source =
  let forwards_of ~node ~upstream =
    let universe =
      match upstream with
      | None -> Neighbor_cover.two_hop_strict g node
      | Some u ->
        Nodeset.diff (Neighbor_cover.two_hop_strict g node) (Graph.closed_neighborhood g u)
    in
    Neighbor_cover.forwards g ~node ~universe
  in
  ( { forwards = forwards_of ~node:source ~upstream:None },
    fun ~node ~from ~payload ->
      if Nodeset.mem node payload.forwards then
        Some { forwards = forwards_of ~node ~upstream:(Some from) }
      else None )

let protocol =
  Protocol.per_broadcast ~name:"dp"
    ~description:"dominant pruning (Lim and Kim): senders designate a greedy 2-hop cover"
    ~family:Protocol.Source_dependent
    (fun env ~source ~mode ->
      let initial, decide = pipeline env.Protocol.graph ~source in
      Protocol.run_decide env ~source ~mode ~initial ~decide)
