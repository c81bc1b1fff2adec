module Graph = Manet_graph.Graph

(* A node rebroadcasts only if it heard fewer than [threshold] copies:
   one from each neighbour that transmitted before its expiry. *)
let threshold = 3

let run ~arena ~rng g ~source =
  let off, nbr = Graph.csr g in
  Backoff.run ~name:"Counter_based" ~arena ~rng g ~source ~decide:(fun ~tx ~time v ->
      let copies = ref 0 and i = ref off.(v) in
      while !copies < threshold && !i < off.(v + 1) do
        if tx.(nbr.(!i)) < time then incr copies;
        incr i
      done;
      !copies < threshold)

let protocol =
  Manet_broadcast.Protocol.per_broadcast ~name:"counter"
    ~description:"counter-based scheme (Ni et al., MOBICOM'99): rebroadcast unless C >= 3 copies heard"
    ~family:Manet_broadcast.Protocol.Probabilistic
    (fun env ~source ~mode ->
      let open Manet_broadcast.Protocol in
      frozen_lossy env ~source ~mode
        ~run:(fun ~source -> run ~arena:env.arena ~rng:env.rng env.graph ~source))
