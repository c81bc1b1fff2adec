(* The traced replay: [Runner.run] and [Workload.run] rebuilt from the
   library's public calls, with every call into a layer wrapped in a
   [Trace.span].  The replay consumes every generator in exactly the
   order the originals do, so on an unchanged library it reproduces
   their outputs bit for bit; [trace.match] checks that on every traced
   rep.  When a change to the library alters the call sequence the
   outputs diverge, and the per-layer numbers are stale until the
   replay is brought back in step. *)

module Rng = Manet_rng.Rng
module Graph = Manet_graph.Graph
module Nodeset = Manet_graph.Nodeset
module Unit_disk = Manet_graph.Unit_disk
module Point = Manet_geom.Point
module Spec = Manet_topology.Spec
module Generator = Manet_topology.Generator
module Mobility = Manet_topology.Mobility
module Timeline = Manet_sim.Timeline
module Protocol = Manet_broadcast.Protocol
module Engine = Manet_broadcast.Engine
module Result = Manet_broadcast.Result
module Coverage = Manet_coverage.Coverage
module Static = Manet_backbone.Static_backbone
module Bm = Manet_backbone.Backbone_maintenance
module Summary = Manet_stats.Summary
module Confidence = Manet_stats.Confidence
module Registry = Manet_protocols.Registry
module Scenario = Manet_experiment.Scenario
module Metric = Manet_experiment.Metric
module Sweep = Manet_experiment.Sweep
module Journal = Manet_experiment.Journal
module Workload = Manet_experiment.Workload

let span = Trace.span

(* {1 The serving loop} *)

type event = Join | Leave | Move | Maintain | Arrival

let rank = function Join | Leave -> 0 | Move -> 1 | Maintain -> 2 | Arrival -> 3

let exp_draw rng rate = Float.max (-.log (1. -. Rng.float rng 1.) /. rate) 1e-9

let backbone bm =
  let b = span Trace.Maint_backbone (fun () -> Bm.backbone bm) in
  b.Static.members

let serve ?motion ~rng ~points ~radius ~spec (w : Workload.spec) =
  let n = Array.length points in
  let arrival_rng = Rng.split rng in
  let join_rng = Rng.split rng in
  let leave_rng = Rng.split rng in
  let source_rng = Rng.split rng in
  let traffic_rng = Rng.split rng in
  let motion_rng = Rng.split rng in
  let walker =
    Option.map
      (fun (m : Workload.motion) ->
        span Trace.Mobility (fun () ->
            Mobility.create ~pause_time:m.pause_time ~model:m.model ~speed_min:m.speed_min
              ~speed_max:m.speed_max ~rng:motion_rng ~spec points))
      motion
  in
  let active = Array.make n true in
  let active_count = ref n in
  let park_y = spec.Spec.height +. (2. *. radius) +. 1. in
  let park_x v = float_of_int v *. ((2. *. radius) +. 1.) in
  let scratch = Array.make n Point.origin in
  let snapshot () =
    let live = match walker with Some m -> Mobility.unsafe_positions m | None -> points in
    for v = 0 to n - 1 do
      scratch.(v) <- (if active.(v) then live.(v) else Point.make ~x:(park_x v) ~y:park_y)
    done;
    span Trace.Unit_disk (fun () -> Unit_disk.build ~radius scratch)
  in
  let graph = ref (snapshot ()) in
  let bm = span Trace.Maint (fun () -> Bm.create !graph Coverage.Hop25) in
  let members = ref (backbone bm) in
  let env =
    span Trace.Retarget (fun () ->
        let env = Protocol.make_env ~rng:(Rng.split traffic_rng) !graph in
        Engine.Arena.reserve env.Protocol.arena ~n;
        env)
  in
  let tl = Timeline.create () in
  let schedule_next now ev =
    let d =
      match ev with
      | Arrival -> exp_draw arrival_rng w.arrival_rate
      | Join -> exp_draw join_rng w.join_rate
      | Leave -> exp_draw leave_rng w.leave_rate
      | Move -> (match motion with Some m -> m.Workload.dt | None -> assert false)
      | Maintain -> w.maintenance_every
    in
    Timeline.schedule tl ~time:(now +. d) ~rank:(rank ev) ev
  in
  schedule_next 0. Arrival;
  if w.join_rate > 0. then schedule_next 0. Join;
  if w.leave_rate > 0. then schedule_next 0. Leave;
  (match motion with Some _ -> schedule_next 0. Move | None -> ());
  if w.maintenance_every > 0. then schedule_next 0. Maintain;
  let broadcasts = ref 0 and skipped = ref 0 and churn_events = ref 0 in
  let maintenance_updates = ref 0 and maintenance_messages = ref 0 in
  let stale_since_maint = ref 0 in
  let delivery_sum = ref 0. and staleness_sum = ref 0. in
  let retarget_topology () =
    graph := snapshot ();
    span Trace.Retarget (fun () -> Protocol.retarget ~graph:!graph env);
    incr stale_since_maint
  in
  let pick_nth pred k =
    let seen = ref (-1) and found = ref (-1) in
    for v = 0 to n - 1 do
      if !found < 0 && pred v then begin
        incr seen;
        if !seen = k then found := v
      end
    done;
    !found
  in
  let decide ~node ~from:_ ~payload:() = if Nodeset.mem node !members then Some () else None in
  let finished = ref false in
  while not !finished do
    match Timeline.pop tl with
    | None -> finished := true
    | Some (t, _) when t > w.duration -> finished := true
    | Some (t, ev) ->
      Trace.count Trace.Events 1.;
      let counted = t >= w.warmup in
      (match ev with
      | Join ->
        let inactive = n - !active_count in
        if inactive > 0 then begin
          let v = pick_nth (fun v -> not active.(v)) (Rng.int join_rng inactive) in
          active.(v) <- true;
          incr active_count;
          retarget_topology ();
          if counted then incr churn_events
        end;
        schedule_next t Join
      | Leave ->
        if !active_count > 2 then begin
          let v = pick_nth (fun v -> active.(v)) (Rng.int leave_rng !active_count) in
          active.(v) <- false;
          decr active_count;
          retarget_topology ();
          if counted then incr churn_events
        end;
        schedule_next t Leave
      | Move ->
        (match (walker, motion) with
        | Some m, Some mo -> span Trace.Mobility (fun () -> Mobility.step m ~dt:mo.Workload.dt)
        | _ -> ());
        retarget_topology ();
        schedule_next t Move
      | Maintain ->
        let report = span Trace.Maint (fun () -> Bm.update bm !graph) in
        Trace.count Trace.Updates 1.;
        Trace.count Trace.Maint_msgs (float_of_int report.Bm.total_messages);
        Trace.count Trace.Refreshed (float_of_int report.Bm.refreshed_heads);
        Trace.count Trace.Heads
          (float_of_int (Manet_cluster.Clustering.num_clusters (Bm.clustering bm)));
        members := backbone bm;
        if counted then begin
          incr maintenance_updates;
          maintenance_messages := !maintenance_messages + report.Bm.total_messages
        end;
        stale_since_maint := 0;
        schedule_next t Maintain
      | Arrival ->
        let eligible v = active.(v) && (w.sources = 0 || v < w.sources) in
        let pool = ref 0 in
        for v = 0 to n - 1 do
          if eligible v then incr pool
        done;
        if !pool = 0 then begin
          if counted then incr skipped
        end
        else begin
          let source = pick_nth eligible (Rng.int source_rng !pool) in
          let rng = Rng.split traffic_rng in
          span Trace.Retarget (fun () -> Protocol.retarget ~rng env);
          let r, _ =
            span Trace.Engine (fun () ->
                Protocol.run_decide env ~source ~mode:Protocol.Perfect ~initial:() ~decide)
          in
          Trace.count Trace.Broadcasts 1.;
          Trace.count Trace.Forwards (float_of_int (Result.forward_count r));
          if counted then begin
            incr broadcasts;
            let got = ref 0 in
            Array.iteri (fun v d -> if d && active.(v) then incr got) r.Result.delivered;
            Trace.count Trace.Delivered (float_of_int !got);
            Trace.count Trace.Nodes (float_of_int !active_count);
            delivery_sum := !delivery_sum +. (float_of_int !got /. float_of_int !active_count);
            staleness_sum := !staleness_sum +. float_of_int !stale_since_maint
          end
        end;
        schedule_next t Arrival)
  done;
  let fdiv a b = if b = 0 then 0. else a /. float_of_int b in
  {
    Workload.broadcasts = !broadcasts;
    skipped = !skipped;
    throughput = float_of_int !broadcasts /. (w.duration -. w.warmup);
    churn_events = !churn_events;
    maintenance_updates = !maintenance_updates;
    maintenance_messages = !maintenance_messages;
    messages_per_churn = fdiv (float_of_int !maintenance_messages) !churn_events;
    mean_staleness = fdiv !staleness_sum !broadcasts;
    delivery = fdiv !delivery_sum !broadcasts;
  }

(* {1 The sweep runner} *)

let draw ?perturb rng spec =
  let sample = span Trace.Topology (fun () -> Generator.sample_connected rng spec) in
  Trace.count Trace.Attempts (float_of_int sample.Generator.attempts);
  let graph, points =
    match perturb with
    | None -> (sample.Generator.graph, sample.Generator.points)
    | Some (p : Metric.perturbation) ->
      let mob =
        span Trace.Mobility (fun () ->
            Mobility.create ~pause_time:p.pause_time ~model:p.model ~speed_min:p.speed_min
              ~speed_max:p.speed_max ~rng:(Rng.split rng) ~spec sample.Generator.points)
      in
      for _ = 1 to p.steps do
        span Trace.Mobility (fun () -> Mobility.step mob ~dt:p.dt)
      done;
      ( span Trace.Unit_disk (fun () -> Mobility.graph mob ~radius:sample.Generator.radius),
        Mobility.positions mob )
  in
  let clustering = span Trace.Cluster (fun () -> Manet_cluster.Lowest_id.cluster graph) in
  let source = Rng.int rng (Graph.n graph) in
  {
    Metric.graph;
    clustering;
    source;
    rng = Rng.split rng;
    points;
    radius = sample.Generator.radius;
    spec;
  }

let prepare protocol ctx = span Trace.Prepare (fun () -> protocol.Protocol.prepare (Metric.env_of ctx))

let broadcast protocol ctx =
  let built = prepare protocol ctx in
  let r, _ =
    span Trace.Engine (fun () -> built.Protocol.run ~source:ctx.Metric.source ~mode:Protocol.Perfect)
  in
  Trace.count Trace.Broadcasts 1.;
  Trace.count Trace.Forwards (float_of_int (Result.forward_count r));
  Trace.count Trace.Delivered (float_of_int (Result.delivered_count r));
  Trace.count Trace.Nodes (float_of_int (Graph.n ctx.Metric.graph));
  r

(* A scenario's mobility regime as its serving stream's motion, as
   [Scenario.compile] derives it. *)
let motion (s : Scenario.t) =
  Option.map
    (fun (p : Metric.perturbation) ->
      { Workload.model = p.model; dt = p.dt; speed_min = p.speed_min; speed_max = p.speed_max; pause_time = p.pause_time })
    s.mobility

(* One evaluator per scenario series.  Only the series kinds the
   benchmark's workload files use are replayed; the workload series of
   one sample share one serving run, as [Workload]'s memo makes them. *)
let evaluator (s : Scenario.t) =
  let motion = motion s in
  let memo = ref None in
  let stats (ctx : Metric.ctx) =
    match !memo with
    | Some (c, st) when c == ctx -> st
    | _ ->
      let w = Option.get s.workload in
      let st =
        serve ?motion ~rng:(Rng.split ctx.rng) ~points:ctx.points ~radius:ctx.radius ~spec:ctx.spec w
      in
      memo := Some (ctx, st);
      st
  in
  let no_loss = function
    | None when s.loss = None -> ()
    | _ -> invalid_arg "replay: lossy series are not replayed"
  in
  let one = function
    | Scenario.Forwards { protocol; loss; _ } ->
      no_loss loss;
      let p = Registry.find_exn protocol in
      fun ctx -> float_of_int (Result.forward_count (broadcast p ctx))
    | Scenario.Structure_size { protocol; clustering = None; _ } ->
      let p = Registry.find_exn protocol in
      fun ctx ->
        (match (prepare p ctx).Protocol.members with
        | Some m -> float_of_int (Nodeset.cardinal m)
        | None -> invalid_arg ("replay: no materialized structure for " ^ protocol))
    | Scenario.Cluster_count { clustering = Scenario.Lowest_id } ->
      fun ctx -> float_of_int (Manet_cluster.Clustering.num_clusters ctx.Metric.clustering)
    | Scenario.Workload_throughput _ -> fun ctx -> (stats ctx).Workload.throughput
    | Scenario.Workload_maintenance _ -> fun ctx -> (stats ctx).Workload.messages_per_churn
    | Scenario.Workload_staleness _ -> fun ctx -> (stats ctx).Workload.mean_staleness
    | Scenario.Workload_delivery _ -> fun ctx -> (stats ctx).Workload.delivery
    | m -> invalid_arg ("replay: series kind of " ^ Scenario.metric_name m ^ " is not replayed")
  in
  Array.of_list (List.map one s.metrics)

(* [Sweep.run_point]'s chunked draws on one domain: chunk generators
   split up front, then one sequential fold applying the stopping rule
   before every sample. *)
let chunk_size = 8

let run_point ~(stopping : Scenario.stopping) ~perturb ~append ~rng ~spec names evals =
  let n_chunks = (stopping.max_samples + chunk_size - 1) / chunk_size in
  let chunk_rngs = Array.init n_chunks (fun _ -> Rng.split rng) in
  let summaries = Array.map (fun _ -> Summary.create ()) evals in
  let precise s =
    let hw = Summary.ci_half_width s ~z:Confidence.z99 in
    let mean = Float.abs (Summary.mean s) in
    if mean = 0. then hw = 0. else hw <= stopping.rel_precision *. mean
  in
  let samples = ref 0 in
  let continue () =
    !samples < stopping.max_samples
    && not (!samples >= stopping.min_samples && Array.for_all precise summaries)
  in
  let c = ref 0 in
  while continue () && !c < n_chunks do
    let len = min chunk_size (stopping.max_samples - (!c * chunk_size)) in
    let rows =
      Array.init len (fun _ ->
          let ctx = draw ?perturb chunk_rngs.(!c) spec in
          Array.map (fun eval -> eval ctx) evals)
    in
    append !c rows;
    incr c;
    Array.iter
      (fun row ->
        if continue () then begin
          Array.iteri (fun i v -> Summary.add summaries.(i) v) row;
          incr samples
        end)
      rows
  done;
  {
    Sweep.n = spec.Spec.n;
    d = spec.Spec.avg_degree;
    samples = !samples;
    cells =
      List.mapi (fun i name -> (name, { Sweep.summary = summaries.(i); converged = precise summaries.(i) })) names;
  }

let file_size path = Int64.to_int (In_channel.with_open_bin path In_channel.length)

(* [Runner.run] without resume, on one domain. *)
let run ?journal (s : Scenario.t) =
  let names = List.map Scenario.metric_name s.metrics in
  let evals = evaluator s in
  let writer =
    Option.map
      (fun path ->
        let w = span Trace.Journal (fun () -> Journal.create ~path s) in
        (path, w, file_size path))
      journal
  in
  let tables =
    List.mapi
      (fun di d ->
        let rng = Rng.create ~seed:s.seed in
        let points =
          List.mapi
            (fun point n ->
              let spec =
                Spec.make ~width:s.topology.width ~height:s.topology.height ~n ~avg_degree:d ()
              in
              let rng = Rng.split rng in
              let append chunk rows =
                Option.iter
                  (fun (_, w, _) ->
                    span Trace.Journal (fun () ->
                        Journal.append w { Journal.degree = di; point; chunk; rows });
                    Trace.count Trace.Appends 1.)
                  writer
              in
              run_point ~stopping:s.stopping ~perturb:s.mobility ~append ~rng ~spec names evals)
            s.topology.ns
        in
        { Sweep.d; metrics = names; points })
      s.topology.degrees
  in
  Option.iter
    (fun (path, w, header) ->
      span Trace.Journal (fun () -> Journal.close w);
      Trace.count Trace.Journal_bytes (float_of_int (file_size path - header)))
    writer;
  tables
