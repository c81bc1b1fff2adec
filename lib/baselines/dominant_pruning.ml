(* The packet is the sender's forward designation; beyond N[u], dominant
   pruning excludes nothing. *)
let protocol =
  Neighbor_cover.protocol ~name:"dp"
    ~description:"dominant pruning (Lim and Kim): senders designate a greedy 2-hop cover"
    (fun _ _ ~node:_ ~from:_ ~payload:_ -> ())
