module Graph = Manet_graph.Graph
module Nodeset = Manet_graph.Nodeset
module Protocol = Manet_broadcast.Protocol

type packet = { forwards : Nodeset.t }

let pipeline g ~source =
  let forwards_of ~node ~upstream =
    let universe =
      match upstream with
      | None -> Neighbor_cover.two_hop_strict g node
      | Some u ->
        let base =
          Nodeset.diff (Neighbor_cover.two_hop_strict g node) (Graph.closed_neighborhood g u)
        in
        (* PDP's extra exclusion: neighborhoods of the common neighbors
           of sender and receiver lie in N(N(u)), which u's own selection
           already covers. *)
        let common =
          Nodeset.inter (Graph.open_neighborhood g u) (Graph.open_neighborhood g node)
        in
        let p =
          Nodeset.fold
            (fun w acc -> Nodeset.union acc (Graph.open_neighborhood g w))
            common Nodeset.empty
        in
        Nodeset.diff base p
    in
    Neighbor_cover.forwards g ~node ~universe
  in
  ( { forwards = forwards_of ~node:source ~upstream:None },
    fun ~node ~from ~payload ->
      if Nodeset.mem node payload.forwards then
        Some { forwards = forwards_of ~node ~upstream:(Some from) }
      else None )

let protocol =
  Protocol.per_broadcast ~name:"pdp"
    ~description:"partial dominant pruning (Lou and Wu, TMC'02): DP minus the common-neighbor coverage"
    ~family:Protocol.Source_dependent
    (fun env ~source -> pipeline env.Protocol.graph ~source)
