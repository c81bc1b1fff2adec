module Graph = Manet_graph.Graph

(* At expiry, [v] resigns iff N(v) lies in the union of the closed
   neighbourhoods of the neighbours it heard: those are stamped with
   [v] (a node decides once, so stamps never go stale), then N(v) is
   searched for an unstamped node. *)
let run ~epilogue ~arena ~rng g ~source =
  let { Graph.off; nbr; _ } = g in
  let mark = Array.make (Graph.n g) (-1) in
  Backoff.run ~name:"Self_pruning" ~epilogue ~arena ~rng g ~source ~decide:(fun ~tx ~time v ->
      let lo = off.(v) and hi = off.(v + 1) in
      for i = lo to hi - 1 do
        let u = nbr.(i) in
        if tx.(u) < time then begin
          mark.(u) <- v;
          for j = off.(u) to off.(u + 1) - 1 do
            mark.(nbr.(j)) <- v
          done
        end
      done;
      let i = ref lo in
      while !i < hi && mark.(nbr.(!i)) = v do
        incr i
      done;
      !i < hi)

let protocol =
  let open Manet_broadcast in
  let loop epilogue (env : Protocol.env) ~source =
    run ~epilogue ~arena:env.arena ~rng:env.rng env.graph ~source
  in
  Protocol.native ~name:"self-pruning"
    ~description:"backoff neighbor-coverage self-pruning (Lim and Kim): resign if heard copies cover N(v)"
    ~family:Protocol.Probabilistic ~run:(loop Engine.Scratch.finish)
    ~count:(loop Engine.Scratch.count)
