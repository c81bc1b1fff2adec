module Graph = Manet_graph.Graph
module Rng = Manet_rng.Rng
module Scratch = Manet_broadcast.Engine.Scratch

(* Backoffs are drawn from 1..window time units: the engine's Scratch
   schedules at most four units ahead. *)
let window = 4

(* Event design.  Only a node's first copy starts its backoff, so a
   transmission at time t schedules one event per newly reached
   neighbour: its reception at t + 1 (sender: the transmitter).  The
   reception schedules the node's expiry [backoff] units later, within
   Scratch's now + 1 .. now + 4 window (sender: the node itself, which
   no reception carries, the graph having no self-loops).  No per-node
   state accumulates from the copies: a copy sent at t' arrives at
   t' + 1, so what a node has heard by its expiry at t is exactly its
   neighbours u with [tx.(u) < t], whatever the order of the events
   within a level.  Expiries of one level are read in node order, so
   are the transmissions they trigger. *)
let run ~name ~epilogue ~arena ~rng g ~source ~decide =
  let n = Graph.n g in
  if source < 0 || source >= n then invalid_arg (name ^ ": source out of range");
  (* Drawn up front, so results depend only on the generator's state. *)
  let backoff = Array.init n (fun _ -> 1 + Rng.int rng window) in
  let tx = Array.make n max_int in
  let { Graph.off; nbr; _ } = g in
  Scratch.with_scratch ~arena ~n ~payload_bound:1 (fun s ->
      let completion = ref 0 in
      let transmit time v =
        tx.(v) <- time;
        Scratch.mark_transmitted s v;
        Scratch.trace s ~time ~node:v;
        for i = off.(v) to off.(v + 1) - 1 do
          let u = nbr.(i) in
          if Scratch.mark_delivered s u then begin
            completion := time + 1;
            Scratch.push s ~time:(time + 1) ~node:u ~sender:v ~payload:0
          end
        done
      in
      ignore (Scratch.mark_delivered s source : bool);
      transmit 0 source;
      while Scratch.advance s do
        let time = Scratch.time s and v = Scratch.node s in
        if Scratch.sender s <> v then
          Scratch.push s ~time:(time + backoff.(v)) ~node:v ~sender:v ~payload:0
        else if decide ~tx ~time v then transmit time v
      done;
      epilogue s ~source ~completion:!completion)
