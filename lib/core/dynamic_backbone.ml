module Graph = Manet_graph.Graph
module Clustering = Manet_cluster.Clustering
module Coverage = Manet_coverage.Coverage
module Scratch = Manet_broadcast.Engine.Scratch

type pruning = Sender_only | Coverage_piggyback | Coverage_and_relay

(* Event-loop design.  A clusterhead transmits on its first reception.  A
   gateway selected by clusterhead h relays exactly once, at
   h's-transmission-time + its hop distance from h (1 for direct
   neighbors, 2 for second hops of connector pairs): a designation
   event.  Driving relays by designations rather than by matching the
   forward list piggybacked in received copies resolves a race the
   paper's accounting ignores: a gateway serving two clusterheads
   transmits only once, yet the second clusterhead's 2-hop/3-hop chains
   must still complete (only the designation, a 2-hop control signal,
   still travels).  See DESIGN.md, "Dynamic broadcast".

   The run is loss-free and failure-free ({!Manet_broadcast.Protocol}
   replays a frozen forward set for the other modes), so only the
   receptions that decide something go on the calendar.  A transmission
   at [time] delivers every neighbour at [time + 1] on the spot.  A
   clusterhead relays on its earliest copy, from the smallest sender
   among equally early ones; one time unit's transmitters transmit in
   ascending id (a level is read in (node, sender) order), so that copy
   is the one from the transmitter that delivers it first, and it is the
   head's one event.  A designation never delivers first (the
   designating head, or the pair's first hop, has delivered the gateway
   by then), so events mark nothing.

   The loop runs on {!Manet_broadcast.Engine.Scratch}: bit 0 of an
   event's int payload tells a designation from a data copy, the other
   bits carry the upstream clusterhead id + 1 (0: "no upstream", the
   non-clusterhead source's transmission).  What the paper piggybacks —
   the upstream's coverage set, the relaying node's 1-hop clusterheads
   for the N(r) exclusion — is read at the receiver from the shared
   coverage cache, keyed by the upstream id and the event's sender.
   [transmit] and [head_transmit] take their context as arguments:
   closures would be allocated on every broadcast. *)

let designate_bit = 1

let encode ~upstream = (upstream + 1) lsl 1

(* [v] transmits at [time]: every neighbour not yet delivered is
   delivered at [time + 1], and a clusterhead among them gets the data
   copy that makes it relay.  Transmissions come in non-decreasing time,
   so the last first delivery is the latest. *)
let transmit scr g cl completion time v ~upstream =
  Scratch.mark_transmitted scr v;
  Scratch.trace scr ~time ~node:v;
  let payload = encode ~upstream in
  let { Graph.off; nbr; _ } = g in
  for i = off.(v) to off.(v + 1) - 1 do
    let w = nbr.(i) in
    if Scratch.mark_delivered scr w then begin
      completion := time + 1;
      if Clustering.is_head cl w then Scratch.push scr ~time:(time + 1) ~node:w ~sender:v ~payload
    end
  done

(* One relaying clusterhead: prune targets by upstream history, select
   gateways, designate them, transmit.  [upstream] is the packet's
   upstream clusterhead (-1 for none), [relayer] the node whose
   transmission delivered the packet (-1 only for the source-clusterhead
   case, which prunes nothing).  The targets C(h) - C(u) - {u} - N(r) are
   read by the kernel from the upstream's coverage set and the cache's
   rows in place: nothing is materialised.  [ch_hop1] is empty for
   clusterhead relayers, matching the paper's observation that
   head-to-gateway hops exclude nothing. *)
let head_transmit scr g cl completion ~pruning ~cache ~coverages time h ~upstream ~relayer =
  let upstream_cov = if upstream >= 0 && pruning <> Sender_only then coverages.(upstream) else None in
  let heard =
    if relayer >= 0 && pruning = Coverage_and_relay then Coverage.Cache.ch_hop1 cache relayer
    else [||]
  in
  let cov =
    match coverages.(h) with
    | Some c -> c
    | None -> invalid_arg "Dynamic_backbone: stale coverage array"
  in
  let k = Gateway_selection.select_pruned cov ~upstream ~upstream_cov ~heard in
  let out = Gateway_selection.selection () in
  (* A designation reaches a selected gateway together with the packet:
     one hop for direct neighbors of h, two hops for the second nodes of
     connector pairs. *)
  let payload = encode ~upstream:h lor designate_bit in
  for i = 0 to k - 1 do
    let x = out.(i) in
    Scratch.push scr ~time:(time + Gateway_selection.hops x) ~node:x ~sender:h ~payload
  done;
  transmit scr g cl completion time h ~upstream:h

(* One loss-free broadcast over the shared CH_HOP [cache] of (g, cl,
   mode), read through [epilogue] ([Scratch.finish] or [Scratch.count]). *)
let run ~epilogue ~pruning ~cache ~arena g cl ~source =
  let n = Graph.n g in
  if source < 0 || source >= n then invalid_arg "Dynamic_backbone: source out of range";
  let coverages = Coverage.Cache.coverages cache in
  Scratch.with_scratch ~arena ~n ~payload_bound:(encode ~upstream:(n - 1) + 2) (fun scr ->
      let completion = ref 0 in
      ignore (Scratch.mark_delivered scr source : bool);
      if Clustering.is_head cl source then
        head_transmit scr g cl completion ~pruning ~cache ~coverages 0 source ~upstream:(-1)
          ~relayer:(-1)
      else transmit scr g cl completion 0 source ~upstream:(-1);
      while Scratch.advance scr do
        let receiver = Scratch.node scr in
        if not (Scratch.transmitted scr receiver) then begin
          let time = Scratch.time scr and payload = Scratch.payload scr in
          let upstream = (payload lsr 1) - 1 in
          (* A designated gateway holds the packet data already; a data
             copy goes only to a clusterhead. *)
          if payload land designate_bit <> 0 then transmit scr g cl completion time receiver ~upstream
          else
            head_transmit scr g cl completion ~pruning ~cache ~coverages time receiver ~upstream
              ~relayer:(Scratch.sender scr)
        end
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
