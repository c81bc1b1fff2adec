module Graph = Manet_graph.Graph
module Clustering = Manet_cluster.Clustering
module Coverage = Manet_coverage.Coverage
module Scratch = Manet_broadcast.Engine.Scratch

type pruning = Sender_only | Coverage_piggyback | Coverage_and_relay

(* Event-loop design.  A clusterhead transmits on its first reception.  A
   gateway selected by clusterhead h relays exactly once, at
   h's-transmission-time + its hop distance from h (1 for direct
   neighbors, 2 for second hops of connector pairs): the [Designate]
   event.  Driving relays by designation events rather than by matching
   the forward list piggybacked in received copies resolves a race the
   paper's accounting ignores: a gateway serving two clusterheads
   transmits only once, and the second clusterhead's 2-hop/3-hop chains
   must still complete (its targets already hold the packet data from the
   gateway's earlier transmission of this same broadcast; only the
   designation, a 2-hop control signal, still travels).  See DESIGN.md,
   "Dynamic broadcast".

   The loop runs on {!Manet_broadcast.Engine.Scratch}, so the whole
   packet state rides in the event's int payload: bit 0 distinguishes a
   designation from a data copy, the remaining bits carry the upstream
   clusterhead id + 1 (0 encodes "no upstream", the non-clusterhead
   source's transmission).  Everything the paper piggybacks alongside —
   the upstream's coverage set, the relaying node's 1-hop clusterheads
   for the N(r) exclusion — is recovered at the receiver from the shared
   coverage cache's rows, keyed by the upstream id and the event's
   sender.  A designation and a data copy from the same clusterhead
   reach a direct-neighbor gateway under {e equal} event keys; Scratch
   reads both, in push order, and the two handlers commute anyway
   (gateways are never clusterheads, and both orders transmit once at
   the same time). *)

let designate_bit = 1

let encode ~upstream = (upstream + 1) lsl 1

(* One broadcast over the shared CH_HOP [cache] of (g, cl, mode), read
   through [epilogue] ([Scratch.finish] or [Scratch.count]). *)
let run ~epilogue ~pruning ~cache ~arena g cl ~source =
  let n = Graph.n g in
  if source < 0 || source >= n then invalid_arg "Dynamic_backbone: source out of range";
  let coverages = Coverage.Cache.coverages cache in
  let coverage_of h =
    match coverages.(h) with
    | Some c -> c
    | None -> invalid_arg "Dynamic_backbone: stale coverage array"
  in
  let { Graph.off; nbr; _ } = g in
  Scratch.with_scratch ~arena ~n ~payload_bound:(encode ~upstream:(n - 1) + 2) (fun scr ->
      let completion = ref 0 in
      let transmit time v ~upstream =
        Scratch.mark_transmitted scr v;
        Scratch.trace scr ~time ~node:v;
        let payload = encode ~upstream in
        for i = off.(v) to off.(v + 1) - 1 do
          Scratch.push scr ~time:(time + 1) ~node:nbr.(i) ~sender:v ~payload
        done
      in
      (* One relaying clusterhead: prune targets by upstream history,
         select gateways, designate them, transmit.  [upstream] is the
         packet's upstream clusterhead (-1 for none), [relayer] the node
         whose transmission delivered the packet (-1 only for the
         source-clusterhead case, which prunes nothing). *)
      let head_transmit time h ~upstream ~relayer =
        (* Targets C(h) - C(u) - {u} - N(r), read by the kernel from the
           cache's sorted rows: nothing is materialised.  [ch_hop1] is
           empty for clusterhead relayers, matching the paper's
           observation that head-to-gateway hops exclude nothing. *)
        let covered =
          if upstream >= 0 && pruning <> Sender_only then
            Coverage.Cache.covered_row cache upstream
          else [||]
        in
        let heard =
          if relayer >= 0 && pruning = Coverage_and_relay then Coverage.Cache.ch_hop1 cache relayer
          else [||]
        in
        let k = Gateway_selection.select_pruned (coverage_of h) ~upstream ~covered ~heard in
        let out = Gateway_selection.selection () in
        (* Designation reaches a selected gateway together with the
           packet: one hop for direct neighbors of h, two hops for the
           second nodes of connector pairs. *)
        let payload = encode ~upstream:h lor designate_bit in
        for i = 0 to k - 1 do
          let x = out.(i) in
          let hops = if Graph.mem_edge g h x then 1 else 2 in
          Scratch.push scr ~time:(time + hops) ~node:x ~sender:h ~payload
        done;
        transmit time h ~upstream:h
      in
      (* Source transmission. *)
      if Clustering.is_head cl source then head_transmit 0 source ~upstream:(-1) ~relayer:(-1)
      else transmit 0 source ~upstream:(-1);
      ignore (Scratch.mark_delivered scr source : bool);
      (* Event loop. *)
      while Scratch.advance scr do
        let time = Scratch.time scr in
        let receiver = Scratch.node scr in
        let sender = Scratch.sender scr in
        let payload = Scratch.payload scr in
        if Scratch.mark_delivered scr receiver then completion := time;
        let upstream = (payload lsr 1) - 1 in
        if payload land designate_bit <> 0 then begin
          (* The designated gateway holds the packet data (its
             designating clusterhead is within 2 hops and every node on
             the connector path has transmitted this broadcast or does
             so now). *)
          if not (Scratch.transmitted scr receiver) then transmit time receiver ~upstream
        end
        else if Clustering.is_head cl receiver && not (Scratch.transmitted scr receiver) then
          head_transmit time receiver ~upstream ~relayer:sender
      done;
      epilogue scr ~source ~completion:!completion)

let mode_tag = function Coverage.Hop25 -> "2.5hop" | Coverage.Hop3 -> "3hop"

let protocol ?(pruning = Coverage_and_relay) mode =
  let suffix =
    match pruning with
    | Coverage_and_relay -> ""
    | Sender_only -> "/sender"
    | Coverage_piggyback -> "/coverage"
  in
  let description =
    match pruning with
    | Coverage_and_relay ->
      Printf.sprintf
        "the paper's dynamic backbone: per-broadcast gateway designation, full pruning (%s coverage)"
        (mode_tag mode)
    | Sender_only ->
      "dynamic backbone ablation: prune only the upstream clusterhead from the coverage set"
    | Coverage_piggyback ->
      "dynamic backbone ablation: prune by the upstream's piggybacked coverage set only"
  in
  (* Every broadcast reads the environment's CH_HOP tables of [mode],
     built by the first one and shared with every other protocol on the
     environment. *)
  let loop epilogue (env : Manet_broadcast.Protocol.env) ~source =
    let cache = Manet_broadcast.Protocol.coverage env mode in
    run ~epilogue ~pruning ~cache ~arena:env.arena env.graph (Coverage.Cache.clustering cache)
      ~source
  in
  Manet_broadcast.Protocol.native
    ~name:("dynamic-" ^ mode_tag mode ^ suffix)
    ~description ~family:Manet_broadcast.Protocol.Source_dependent ~run:(loop Scratch.finish)
    ~count:(loop Scratch.count)
