module Graph = Manet_graph.Graph
module Cover = Neighbor_cover

let mpr_sets g =
  let scr = Cover.create () in
  Array.init (Graph.n g) (fun v ->
      Cover.start scr g;
      Cover.mpr scr g ~node:v)

let protocol =
  Manet_broadcast.Protocol.with_build ~name:"mpr"
    ~description:"multipoint relays (Qayyum et al., HICSS'02): relay iff MPR of the upstream sender"
    ~family:Manet_broadcast.Protocol.Source_dependent
    (fun env ->
      let sets = mpr_sets env.Manet_broadcast.Protocol.graph in
      let decide ~node ~from = Cover.mem sets.(from) node in
      Manet_broadcast.Protocol.of_pipeline env ~members:None (fun ~source:_ -> decide))
