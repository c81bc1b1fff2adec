module Graph = Manet_graph.Graph
module Flatset = Manet_graph.Flatset
module Clustering = Manet_cluster.Clustering
module Coverage = Manet_coverage.Coverage
module Scratch = Manet_broadcast.Engine.Scratch

type pruning = Sender_only | Coverage_piggyback | Coverage_and_relay

let pp_pruning fmt = function
  | Sender_only -> Format.pp_print_string fmt "sender-only"
  | Coverage_piggyback -> Format.pp_print_string fmt "coverage"
  | Coverage_and_relay -> Format.pp_print_string fmt "coverage+relay"

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
   reach a direct-neighbor gateway under {e equal} event keys; the two
   handlers commute (gateways are never clusterheads, and both orders
   transmit once at the same time), satisfying the Scratch contract. *)

let designate_bit = 1

let encode ~upstream = (upstream + 1) lsl 1

(* Binary search in a sorted cache row ([ch_hop1] / [covered_row]). *)
let mem_row (row : int array) x =
  let lo = ref 0 and hi = ref (Array.length row) in
  while !hi > !lo do
    let mid = (!lo + !hi) / 2 in
    if row.(mid) < x then lo := mid + 1 else hi := mid
  done;
  !lo < Array.length row && row.(!lo) = x

(* One broadcast over the shared CH_HOP [cache] of (g, cl, mode). *)
let run ~pruning ~cache ~arena g cl ~source =
  let n = Graph.n g in
  if source < 0 || source >= n then invalid_arg "Dynamic_backbone: source out of range";
  let coverages = Coverage.Cache.coverages cache in
  let coverage_of h =
    match coverages.(h) with
    | Some c -> c
    | None -> invalid_arg "Dynamic_backbone: stale coverage array"
  in
  Scratch.with_scratch ~arena ~n (fun scr ->
      let pool = Scratch.pool scr in
      let completion = ref 0 in
      let transmit time v ~upstream =
        Scratch.mark_transmitted scr v;
        Scratch.trace scr ~time ~node:v;
        let payload = encode ~upstream in
        Graph.iter_neighbors g v (fun u ->
            Scratch.push scr ~time:(time + 1) ~node:u ~sender:v ~payload)
      in
      (* One relaying clusterhead: prune targets by upstream history,
         select gateways, designate them, transmit.  [upstream] is the
         packet's upstream clusterhead (-1 for none), [relayer] the node
         whose transmission delivered the packet (-1 only for the
         source-clusterhead case, which prunes nothing). *)
      let head_transmit time h ~upstream ~relayer =
        let cov = coverage_of h in
        let targets =
          if relayer < 0 then None
          else begin
            (* C(h) - C(u) - {u} - N(r), evaluated as a membership
               predicate over the cache's sorted rows: nothing is
               materialised.  [ch_hop1] is empty for clusterhead
               relayers, matching the paper's observation that
               head-to-gateway hops exclude nothing. *)
            let cov_u =
              if upstream >= 0 && pruning <> Sender_only then
                Coverage.Cache.covered_row cache upstream
              else [||]
            in
            let hop_r =
              if pruning = Coverage_and_relay then Coverage.Cache.ch_hop1 cache relayer
              else [||]
            in
            Some
              (fun ch -> ch <> upstream && (not (mem_row cov_u ch)) && not (mem_row hop_r ch))
          end
        in
        let forwards = Gateway_selection.select_flat ?targets ~pool cov in
        (* Designation reaches a selected gateway together with the
           packet: one hop for direct neighbors of h, two hops for the
           second nodes of connector pairs. *)
        let payload = encode ~upstream:h lor designate_bit in
        Flatset.iter
          (fun x ->
            let hops = if Graph.mem_edge g h x then 1 else 2 in
            Scratch.push scr ~time:(time + hops) ~node:x ~sender:h ~payload)
          forwards;
        transmit time h ~upstream:h
      in
      (* Source transmission. *)
      if Clustering.is_head cl source then head_transmit 0 source ~upstream:(-1) ~relayer:(-1)
      else transmit 0 source ~upstream:(-1);
      ignore (Scratch.mark_delivered scr source : bool);
      (* Event loop. *)
      while not (Scratch.heap_empty scr) do
        let time = Scratch.min_time scr in
        let receiver = Scratch.min_node scr in
        let sender = Scratch.min_sender scr in
        let payload = Scratch.min_payload scr in
        Scratch.drop_min scr;
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
      Scratch.finish scr ~source ~completion:!completion)

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
  Manet_broadcast.Protocol.per_broadcast_prepared
    ~name:("dynamic-" ^ mode_tag mode ^ suffix)
    ~description ~family:Manet_broadcast.Protocol.Source_dependent
    (fun env ->
      let open Manet_broadcast.Protocol in
      (* One CH_HOP cache per prepared environment: the tables depend
         only on (graph, clustering, mode), so every broadcast of the
         prepared protocol shares them.  Lazy because preparing must
         stay cheap for consumers that list protocols without running
         them. *)
      let cache =
        lazy (Coverage.Cache.create env.graph (Lazy.force env.clustering) mode)
      in
      fun ~source ~mode:m ->
        frozen_lossy env ~source ~mode:m
          ~run:(fun ~source ->
            run ~pruning ~cache:(Lazy.force cache) ~arena:env.arena env.graph
              (Lazy.force env.clustering) ~source))
