module Graph = Manet_graph.Graph

(* A node rebroadcasts only if it heard fewer than [threshold] copies:
   one from each neighbour that transmitted before its expiry. *)
let threshold = 3

let run ~epilogue ~arena ~rng g ~source =
  let { Graph.off; nbr; _ } = g in
  Backoff.run ~name:"Counter_based" ~epilogue ~arena ~rng g ~source ~decide:(fun ~tx ~time v ->
      let copies = ref 0 and i = ref off.(v) in
      while !copies < threshold && !i < off.(v + 1) do
        if tx.(nbr.(!i)) < time then incr copies;
        incr i
      done;
      !copies < threshold)

let protocol =
  let open Manet_broadcast in
  let loop epilogue (env : Protocol.env) ~source =
    run ~epilogue ~arena:env.arena ~rng:env.rng env.graph ~source
  in
  Protocol.native ~name:"counter"
    ~description:"counter-based scheme (Ni et al., MOBICOM'99): rebroadcast unless C >= 3 copies heard"
    ~family:Protocol.Probabilistic ~run:(loop Engine.Scratch.finish)
    ~count:(loop Engine.Scratch.count)
