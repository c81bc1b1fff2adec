module Graph = Manet_graph.Graph
module Nodeset = Manet_graph.Nodeset
module Protocol = Manet_broadcast.Protocol

type packet = { brg : Nodeset.t }

let pipeline g ~source =
  let select ~node ~upstream =
    let universe =
      match upstream with
      | None -> Neighbor_cover.two_hop_strict g node
      | Some (u, brg) ->
        let base =
          Nodeset.diff (Neighbor_cover.two_hop_strict g node) (Graph.closed_neighborhood g u)
        in
        (* Every BRG of u forwards, so its whole neighborhood is covered. *)
        Nodeset.fold
          (fun b acc -> Nodeset.diff acc (Graph.closed_neighborhood g b))
          brg base
    in
    Neighbor_cover.forwards g ~node ~universe
  in
  ( { brg = select ~node:source ~upstream:None },
    fun ~node ~from ~payload ->
      if Nodeset.mem node payload.brg then
        Some { brg = select ~node ~upstream:(Some (from, payload.brg)) }
      else None )

let protocol =
  Protocol.per_broadcast ~name:"ahbp"
    ~description:"ad hoc broadcast protocol (Peng and Lu): BRG designation excluding the upstream BRG set"
    ~family:Protocol.Source_dependent
    (fun env ~source -> pipeline env.Protocol.graph ~source)
