module Graph = Manet_graph.Graph
module Row_sort = Manet_graph.Row_sort
module Unit_disk = Manet_graph.Unit_disk
module Point = Manet_geom.Point
module Rng = Manet_rng.Rng
module Spec = Manet_topology.Spec
module Mobility = Manet_topology.Mobility
module Timeline = Manet_sim.Timeline
module Protocol = Manet_broadcast.Protocol
module Engine = Manet_broadcast.Engine
module Coverage = Manet_coverage.Coverage
module Static = Manet_backbone.Static_backbone
module Bm = Manet_backbone.Backbone_maintenance

type spec = {
  arrival_rate : float;
  duration : float;
  warmup : float;
  join_rate : float;
  leave_rate : float;
  sources : int;
  maintenance_every : float;
}

(* A periodic stream re-fires at [t +. period]; the clock moves on at
   every [t <= duration] iff it moves on at [duration] itself (an ulp
   never grows as [t] shrinks). *)
let advances ~duration period =
  Float.is_finite period && period > 0. && duration +. period > duration

let make ?(warmup = 0.) ?(join_rate = 0.) ?(leave_rate = 0.) ?(sources = 0)
    ?(maintenance_every = 1.) ~arrival_rate ~duration () =
  if not (Float.is_finite arrival_rate && arrival_rate > 0.) then
    invalid_arg "Workload.make: arrival_rate must be positive";
  if not (Float.is_finite duration && duration > 0.) then
    invalid_arg "Workload.make: duration must be positive";
  if not (Float.is_finite warmup && warmup >= 0. && warmup < duration) then
    invalid_arg "Workload.make: warmup must be within [0, duration)";
  if not (Float.is_finite join_rate && join_rate >= 0.) then
    invalid_arg "Workload.make: join_rate must be non-negative";
  if not (Float.is_finite leave_rate && leave_rate >= 0.) then
    invalid_arg "Workload.make: leave_rate must be non-negative";
  if sources < 0 then invalid_arg "Workload.make: sources must be non-negative";
  if not (Float.is_finite maintenance_every && maintenance_every >= 0.) then
    invalid_arg "Workload.make: maintenance_every must be non-negative";
  if not (advances ~duration maintenance_every || maintenance_every = 0.) then
    invalid_arg
      "Workload.make: maintenance_every is too small to advance the clock within duration";
  { arrival_rate; duration; warmup; join_rate; leave_rate; sources; maintenance_every }

type motion = {
  model : Mobility.model;
  dt : float;
  speed_min : float;
  speed_max : float;
  pause_time : float;
}

type stats = {
  broadcasts : int;
  skipped : int;
  throughput : float;
  churn_events : int;
  maintenance_updates : int;
  maintenance_messages : int;
  messages_per_churn : float;
  mean_staleness : float;
  delivery : float;
}

type served = { stats : stats; traversals : int }

type probe = {
  time : float;
  graph : Graph.t;
  backbone : Static.t;
  stale_events : int;
  snapshots : int;
}

(* Node ids in one array: the active ones ascending in [0, live), the
   inactive ones ascending in [live, n).  The k-th active or inactive id
   and the count of active ids below a bound are then one read or one
   binary search; a join or a leave moves one id across the boundary. *)
module Roster = struct
  type t = { active : bool array; ids : int array; mutable live : int }

  let create n = { active = Array.make n true; ids = Array.init n Fun.id; live = n }
  let live r = r.live
  let is_active r v = r.active.(v)
  let nth_active r k = r.ids.(k)
  let nth_inactive r k = r.ids.(r.live + k)

  let active_below r bound = Row_sort.lower_bound r.ids 0 r.live bound

  (* Move the id at index [a] to index [b], shifting the ids between
     them by one. *)
  let move ids a b =
    let v = ids.(a) in
    if a < b then Array.blit ids (a + 1) ids a (b - a) else Array.blit ids b ids (b + 1) (a - b);
    ids.(b) <- v

  let leave r k =
    let v = r.ids.(k) in
    move r.ids k (Row_sort.lower_bound r.ids r.live (Array.length r.ids) v - 1);
    r.live <- r.live - 1;
    r.active.(v) <- false

  let join r k =
    let v = r.ids.(r.live + k) in
    move r.ids (r.live + k) (Row_sort.lower_bound r.ids 0 r.live v);
    r.live <- r.live + 1;
    r.active.(v) <- true
end

(* The four event streams of the serving loop, interleaved on one
   timeline.  Rank encodes the paper-faithful same-instant ordering:
   topology changes (churn, then motion) become visible before the
   periodic maintenance reacts to them, and a broadcast arriving at the
   same instant sees the post-maintenance structure. *)
type event = Join | Leave | Move | Maintain | Arrival

let rank = function Join | Leave -> 0 | Move -> 1 | Maintain -> 2 | Arrival -> 3

(* Inverse-CDF exponential inter-arrival draw; clamped away from zero so
   a pathological [u = 0] draw cannot stall the clock. *)
let exp_draw rng rate = Float.max (-.log (1. -. Rng.float rng 1.) /. rate) 1e-9

(* Above this many joins and leaves since the last snapshot, a read
   rebuilds the snapshot rather than patching it.  Measured at n = 200,
   d = 12: a build takes 30-33 us, a patch of one move 16-19 us (half of
   it allocating the new CSR arrays), of 8 moves 24-36 us and of 16
   moves 35-47 us. *)
let patch_limit = 8

let serve ?(mode = Protocol.Perfect) ?motion ?on_maintenance
    ?skip_maintenance ~rng ~points ~radius ~spec w =
  let n = Array.length points in
  if n < 2 then invalid_arg "Workload.run: need at least 2 nodes";
  if not (radius > 0.) then invalid_arg "Workload.run: radius must be positive";
  (match motion with
  | Some m when not (advances ~duration:w.duration m.dt) ->
    invalid_arg
      "Workload.run: motion dt must be positive and large enough to advance the clock within \
       duration"
  | _ -> ());
  (* One split generator per stream: adding draws to one stream (more
     churn, more arrivals) never perturbs any other. *)
  let arrival_rng = Rng.split rng in
  let join_rng = Rng.split rng in
  let leave_rng = Rng.split rng in
  let source_rng = Rng.split rng in
  let traffic_rng = Rng.split rng in
  let motion_rng = Rng.split rng in
  let walker =
    Option.map
      (fun m ->
        Mobility.create ~pause_time:m.pause_time ~model:m.model ~speed_min:m.speed_min
          ~speed_max:m.speed_max ~rng:motion_rng ~spec points)
      motion
  in
  let roster = Roster.create n in
  (* Inactive nodes are parked on a private rail strictly outside the
     field, spaced more than a radius apart, so every unit-disk snapshot
     isolates them — a left node neither links nor relays, yet the node
     count stays fixed (the maintenance layer's contract). *)
  let park_y = spec.Spec.height +. (2. *. radius) +. 1. in
  let park_x v = float_of_int v *. ((2. *. radius) +. 1.) in
  let positions = Array.make n Point.origin in
  let udg = Unit_disk.Scratch.create () in
  let snapshots = ref 0 in
  (* With motion off, only joins and leaves move nodes: [moved] records
     the first [patch_limit] of them since the last snapshot, and a read
     after at most that many patches their rows into it.  With motion
     on, every read rebuilds. *)
  let limit = match motion with None -> patch_limit | Some _ -> 0 in
  let moved = Array.make limit 0 and n_moved = ref 0 in
  let record_move v =
    if !n_moved < limit then moved.(!n_moved) <- v;
    incr n_moved
  in
  let build () =
    let live =
      match walker with Some m -> Mobility.unsafe_positions m | None -> points
    in
    for v = 0 to n - 1 do
      positions.(v) <-
        (if Roster.is_active roster v then live.(v) else Point.make ~x:(park_x v) ~y:park_y)
    done;
    incr snapshots;
    Unit_disk.build ~scratch:udg ~radius positions
  in
  (* Only reached with motion off, where the live positions are
     [points]. *)
  let patch prev k =
    for i = 0 to k - 1 do
      let v = moved.(i) in
      positions.(v) <-
        (if Roster.is_active roster v then points.(v) else Point.make ~x:(park_x v) ~y:park_y)
    done;
    incr snapshots;
    Unit_disk.patch ~scratch:udg ~radius positions prev ~changed:moved k
  in
  let graph = ref (build ()) in
  let bm = Bm.create !graph Coverage.Hop25 in
  (* The SI-CDS rule reads the maintained backbone through a flat
     per-node indicator, refilled in place after each maintenance
     update: one byte read per reception, no allocation per update. *)
  let member = Bytes.make n '\000' in
  let mark v = Bytes.unsafe_set member v '\001' in
  (* Set by a traversal that proves the active members a connected
     dominating set of the live graph; cleared at every change of
     [!graph] or [member] (see the Arrival case). *)
  let certified = ref false in
  let refill_members () =
    Bytes.fill member 0 n '\000';
    Bm.iter_members bm mark;
    certified := false
  in
  refill_members ();
  let env = Protocol.make_env ~rng:(Rng.split traffic_rng) !graph in
  (* Pre-size once: no broadcast of the stream grows the arena mid-run. *)
  Engine.Arena.reserve env.Protocol.arena ~n;
  let tl = Timeline.create () in
  let schedule_next now ev =
    let d =
      match ev with
      | Arrival -> exp_draw arrival_rng w.arrival_rate
      | Join -> exp_draw join_rng w.join_rate
      | Leave -> exp_draw leave_rng w.leave_rate
      | Move -> (match motion with Some m -> m.dt | None -> assert false)
      | Maintain -> w.maintenance_every
    in
    Timeline.schedule tl ~time:(now +. d) ~rank:(rank ev) ev
  in
  schedule_next 0. Arrival;
  if w.join_rate > 0. then schedule_next 0. Join;
  if w.leave_rate > 0. then schedule_next 0. Leave;
  (match motion with Some _ -> schedule_next 0. Move | None -> ());
  if w.maintenance_every > 0. then schedule_next 0. Maintain;
  let broadcasts = ref 0 and traversals = ref 0 and skipped = ref 0 and churn_events = ref 0 in
  let maintenance_updates = ref 0 and maintenance_messages = ref 0 in
  let maint_seen = ref 0 and stale_since_maint = ref 0 in
  let delivery_sum = ref 0. and staleness_sum = ref 0. in
  (* A topology event only marks the snapshot stale; the next reader (a
     maintenance, or an arrival that broadcasts) builds it and retargets
     the environment once.  Positions and active flags change only at
     those events, so every reader sees the graph an eager rebuild
     would have given it. *)
  let dirty = ref false in
  let topology_changed () =
    dirty := true;
    incr stale_since_maint
  in
  let read_topology () =
    if !dirty then begin
      let k = !n_moved in
      n_moved := 0;
      graph := if k > 0 && k <= limit then patch !graph k else build ();
      Protocol.retarget ~graph:!graph env;
      dirty := false;
      certified := false
    end
  in
  let decide ~node ~from:_ = Bytes.unsafe_get member node <> '\000' in
  (* With no loss and no failure an arrival's delivery comes from one
     traversal of the backbone, which draws nothing, or from the epoch
     certificate with none; otherwise the reception loop draws from a
     fresh split per arrival. *)
  let loss_free = Protocol.loss_free env mode and backbone = Some member in
  let finished = ref false in
  while not !finished do
    match Timeline.pop tl with
    | None -> finished := true
    | Some (t, _) when t > w.duration -> finished := true
    | Some (t, ev) ->
      let counted = t >= w.warmup in
      (match ev with
      | Join ->
        let inactive = n - Roster.live roster in
        if inactive > 0 then begin
          let k = Rng.int join_rng inactive in
          record_move (Roster.nth_inactive roster k);
          Roster.join roster k;
          topology_changed ();
          if counted then incr churn_events
        end;
        schedule_next t Join
      | Leave ->
        (* Never drain the network below two live nodes: a broadcast
           needs a source and at least one potential receiver. *)
        let live = Roster.live roster in
        if live > 2 then begin
          let k = Rng.int leave_rng live in
          record_move (Roster.nth_active roster k);
          Roster.leave roster k;
          topology_changed ();
          if counted then incr churn_events
        end;
        schedule_next t Leave
      | Move ->
        (match walker with
        | Some m -> Mobility.step m ~dt:(match motion with Some mo -> mo.dt | None -> 0.)
        | None -> ());
        topology_changed ();
        schedule_next t Move
      | Maintain ->
        incr maint_seen;
        read_topology ();
        let faulted =
          match skip_maintenance with Some k -> !maint_seen = k | None -> false
        in
        if not faulted then begin
          (* An update onto the snapshot it already holds changes
             nothing, and the epoch certificate stands. *)
          let stale = Bm.graph bm != !graph in
          let report = Bm.update bm !graph in
          if stale then refill_members ();
          if counted then begin
            incr maintenance_updates;
            maintenance_messages := !maintenance_messages + report.Bm.total_messages
          end
        end;
        (match on_maintenance with
        | Some f ->
          f
            {
              time = t;
              graph = !graph;
              backbone = Bm.backbone bm;
              stale_events = !stale_since_maint;
              snapshots = !snapshots;
            }
        | None -> ());
        if not faulted then stale_since_maint := 0;
        schedule_next t Maintain
      | Arrival ->
        (* The eligible sources are the active ids below [w.sources]: a
           prefix of the roster's active ids. *)
        let pool =
          if w.sources = 0 then Roster.live roster else Roster.active_below roster w.sources
        in
        if pool = 0 then begin
          if counted then incr skipped
        end
        else begin
          let source = Roster.nth_active roster (Rng.int source_rng pool) in
          read_topology ();
          let live = Roster.live roster in
          (* A parked node is isolated, so every delivered node is an
             active one.  A traversal from a member that delivers every
             live node certifies the epoch, and the epoch's later
             loss-free arrivals deliver [live] with no traversal (the
             lemma, and why a non-member source cannot certify, are in
             the interface). *)
          let delivered =
            if loss_free && !certified then live
            else begin
              if counted then incr traversals;
              if loss_free then begin
                let c =
                  Engine.run_si_count ~arena:env.Protocol.arena env.Protocol.graph ~source
                    ~member:backbone
                in
                if c.Engine.delivered = live && Bytes.unsafe_get member source <> '\000' then
                  certified := true;
                c.Engine.delivered
              end
              else begin
                (* One split per arrival: a broadcast that draws more
                   never perturbs the next broadcast's stream. *)
                Protocol.retarget ~rng:(Rng.split traffic_rng) env;
                let lossy = Protocol.of_pipeline env ~members:None (fun ~source:_ -> decide) in
                (lossy.Protocol.count ~source ~mode).Engine.delivered
              end
            end
          in
          if counted then begin
            incr broadcasts;
            delivery_sum := !delivery_sum +. (float_of_int delivered /. float_of_int live);
            staleness_sum := !staleness_sum +. float_of_int !stale_since_maint
          end
        end;
        schedule_next t Arrival)
  done;
  let fdiv a b = if b = 0 then 0. else a /. float_of_int b in
  {
    stats =
      {
        broadcasts = !broadcasts;
        skipped = !skipped;
        throughput = float_of_int !broadcasts /. (w.duration -. w.warmup);
        churn_events = !churn_events;
        maintenance_updates = !maintenance_updates;
        maintenance_messages = !maintenance_messages;
        messages_per_churn = fdiv (float_of_int !maintenance_messages) !churn_events;
        mean_staleness = fdiv !staleness_sum !broadcasts;
        delivery = fdiv !delivery_sum !broadcasts;
      };
    traversals = !traversals;
  }

let run ?mode ?motion ?on_maintenance ?skip_maintenance ~rng ~points ~radius ~spec w =
  (serve ?mode ?motion ?on_maintenance ?skip_maintenance ~rng ~points ~radius ~spec w).stats

(* {2 Workload metrics}

   All workload series of one scenario measure the same serving run:
   the first metric evaluated on a context runs the stream once (seeded
   by one split of the context's generator), and the others read the
   stats memoized by {!Metric.per_sample}. *)

let memo = Metric.per_sample ()

let stats_for ?motion ctx w =
  memo ctx (w, motion) (fun () ->
      run ?motion ~rng:(Rng.split ctx.Metric.rng) ~points:ctx.Metric.points
        ~radius:ctx.Metric.radius ~spec:ctx.Metric.spec w)

let metric name field ?motion w =
  { Metric.name; eval = (fun ctx -> field (stats_for ?motion ctx w)) }

let throughput = metric "throughput" (fun s -> s.throughput)
let maintenance_per_churn = metric "maint/churn" (fun s -> s.messages_per_churn)
let staleness = metric "staleness" (fun s -> s.mean_staleness)
let churn_delivery = metric "churn-delivery" (fun s -> s.delivery)
