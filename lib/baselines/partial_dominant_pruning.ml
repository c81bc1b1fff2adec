module Graph = Manet_graph.Graph

(* PDP's extra exclusion: neighborhoods of the common neighbors of
   sender u and receiver v lie in N(N(u)), which u's own selection
   already covers. *)
let protocol =
  Neighbor_cover.protocol ~name:"pdp"
    ~description:"partial dominant pruning (Lou and Wu, TMC'02): DP minus the common-neighbor coverage"
    (fun scan g ~node ~from ~payload:_ ->
      let { Graph.off; nbr; _ } = g in
      for i = off.(node) to off.(node + 1) - 1 do
        if Graph.mem_edge g from nbr.(i) then Neighbor_cover.exclude_open scan g nbr.(i)
      done)
