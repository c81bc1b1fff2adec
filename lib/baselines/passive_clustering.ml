module Graph = Manet_graph.Graph
module Nodeset = Manet_graph.Nodeset

type role = Clusterhead | Gateway | Ordinary

type t = { result : Manet_broadcast.Result.t; roles : role array }

let is_head = function Clusterhead -> true | Gateway | Ordinary -> false

(* Transmissions piggyback the sender's declared state: clusterhead, or
   (candidate) gateway with the clusterhead neighbours it bridges —
   the heads it had heard when it transmitted, that is its head
   neighbours w with [tx.(w) < tx.(u)].  So nothing is carried: at
   [v]'s expiry the heard heads and the heads bridged by heard gateways
   are both read off the transmission times.  First declaration wins:
   - no clusterhead heard -> declare clusterhead and forward;
   - clusterheads heard but all bridged by heard gateways -> ordinary;
   - otherwise -> gateway candidate: forward, announcing its bridged
     clusterheads (two or more make it a full gateway). *)
let native ~epilogue ~arena ~rng g ~source =
  let n = Graph.n g in
  if source < 0 || source >= n then invalid_arg "Passive_clustering.run: source out of range";
  let { Graph.off; nbr; _ } = g in
  let roles = Array.make n Ordinary in
  (* [mark.(w) = v]: head [w] is bridged by a gateway [v] heard. *)
  let mark = Array.make n (-1) in
  roles.(source) <- Clusterhead;
  let decide ~(tx : int array) ~time v =
    let lo = off.(v) and hi = off.(v + 1) in
    let heads = ref 0 in
    for i = lo to hi - 1 do
      let u = nbr.(i) in
      let tu = tx.(u) in
      if tu < time then
        if is_head roles.(u) then incr heads
        else
          for j = off.(u) to off.(u + 1) - 1 do
            let w = nbr.(j) in
            if tx.(w) < tu && is_head roles.(w) then mark.(w) <- v
          done
    done;
    if !heads = 0 then begin
      roles.(v) <- Clusterhead;
      true
    end
    else begin
      let i = ref lo in
      while
        !i < hi
        &&
        let w = nbr.(!i) in
        mark.(w) = v || not (tx.(w) < time && is_head roles.(w))
      do
        incr i
      done;
      (* An unbridged heard head: forward. *)
      !i < hi && begin
        if !heads >= 2 then roles.(v) <- Gateway;
        true
      end
    end
  in
  let r = Backoff.run ~name:"Passive_clustering.run" ~epilogue ~arena ~rng g ~source ~decide in
  (r, roles)

let run ~rng g ~source =
  let (result, timeline), roles =
    native ~epilogue:Manet_broadcast.Engine.Scratch.finish
      ~arena:(Manet_broadcast.Engine.Arena.get ()) ~rng g ~source
  in
  ({ result; roles }, timeline)

let protocol =
  let open Manet_broadcast in
  let loop epilogue (env : Protocol.env) ~source =
    fst (native ~epilogue ~arena:env.arena ~rng:env.rng env.graph ~source)
  in
  Protocol.native ~name:"passive"
    ~description:"passive clustering (Kwon and Gerla): roles declared in-flight, gateways may suppress"
    ~family:Protocol.Probabilistic ~run:(loop Engine.Scratch.finish)
    ~count:(loop Engine.Scratch.count)

let collect t role = Nodeset.of_indicator (Array.map (fun r -> r = role) t.roles)

let heads t = collect t Clusterhead

let gateways t = collect t Gateway
