(* The packet is the sender's BRG set.  Every BRG of u forwards, so its
   whole neighborhood is covered. *)
let protocol =
  Neighbor_cover.protocol ~name:"ahbp"
    ~description:"ad hoc broadcast protocol (Peng and Lu): BRG designation excluding the upstream BRG set"
    (fun scan g ~node:_ ~from:_ ~payload ->
      Array.iter (Neighbor_cover.exclude_closed scan g) payload)
