module Nodeset = Manet_graph.Nodeset
module Result = Manet_broadcast.Result
module Protocol = Manet_broadcast.Protocol
module Registry = Manet_protocols.Registry
module Rng = Manet_rng.Rng
module Mobility = Manet_topology.Mobility

type ctx = {
  graph : Manet_graph.Graph.t;
  clustering : Manet_cluster.Clustering.t;
  source : int;
  rng : Rng.t;
  points : Manet_geom.Point.t array;
  radius : float;
  spec : Manet_topology.Spec.t;
}

type perturbation = {
  model : Mobility.model;
  steps : int;
  dt : float;
  speed_min : float;
  speed_max : float;
  pause_time : float;
}

let draw ?perturb rng spec =
  let sample = Manet_topology.Generator.sample_connected rng spec in
  let graph, points =
    match perturb with
    | None -> (sample.graph, sample.points)
    | Some p ->
      (* The walk draws from its own split so that enabling mobility
         leaves the placement stream untouched; the snapshot may be
         disconnected — that is the measured effect. *)
      let mob =
        Mobility.create ~pause_time:p.pause_time ~model:p.model ~speed_min:p.speed_min
          ~speed_max:p.speed_max ~rng:(Rng.split rng) ~spec sample.points
      in
      for _ = 1 to p.steps do
        Mobility.step mob ~dt:p.dt
      done;
      (Mobility.graph mob ~radius:sample.radius, Mobility.positions mob)
  in
  let clustering = Manet_cluster.Lowest_id.cluster graph in
  let source = Rng.int rng (Manet_graph.Graph.n graph) in
  { graph; clustering; source; rng = Rng.split rng; points; radius = sample.radius; spec }

type t = { name : string; eval : ctx -> float }

(* The context is the protocol environment: same topology, same
   clustering, same per-sample generator for every protocol under
   comparison.  The arena is the evaluating domain's own — metrics run
   on sweep worker domains, so each worker reuses its private engine
   scratch across every sample it evaluates. *)
let fresh_env ctx =
  Protocol.make_env ~clustering:(Lazy.from_val ctx.clustering) ~rng:ctx.rng ctx.graph

(* The per-sample store: what the series of one sample share — its one
   environment (and so its CH_HOP tables) and the {!per_sample} memos.
   Domain-local and holding one context at a time, keyed on its
   physical identity: a sweep evaluates all metrics of one sample
   consecutively on one domain, and [clear_sample] drops the sample
   once its row is complete. *)
type entry = ..

type store = {
  mutable owner : ctx option;
  mutable env : Protocol.env option;
  mutable entries : entry list;
}

let store = Domain.DLS.new_key (fun () -> { owner = None; env = None; entries = [] })

let clear_sample () =
  let s = Domain.DLS.get store in
  s.owner <- None;
  s.env <- None;
  s.entries <- []

let sample ctx =
  let s = Domain.DLS.get store in
  (match s.owner with
  | Some c when c == ctx -> ()
  | _ ->
    clear_sample ();
    s.owner <- Some ctx);
  s

let env_of ctx =
  let s = sample ctx in
  match s.env with
  | Some env -> env
  | None ->
    let env = fresh_env ctx in
    s.env <- Some env;
    env

let prepared ?clustering protocol ctx =
  let env = env_of ctx in
  let env =
    match clustering with
    | None -> env
    | Some cluster -> { env with Protocol.clustering = lazy (cluster ctx.graph) }
  in
  protocol.Protocol.prepare env

(* One broadcast of the sample, read through the count-only epilogue:
   every broadcast metric reads counts alone. *)
let count_once ~mode protocol ctx = (prepared protocol ctx).Protocol.count ~source:ctx.source ~mode

let mode_of_loss = function None -> Protocol.Perfect | Some l -> Protocol.Lossy l

let forwards ?name ?loss pname =
  let protocol = Registry.find_exn pname in
  let mode = mode_of_loss loss in
  {
    name = Option.value name ~default:pname;
    eval = (fun ctx -> float_of_int (count_once ~mode protocol ctx).forwards);
  }

let delivery ?name ?loss pname =
  let protocol = Registry.find_exn pname in
  let mode = mode_of_loss loss in
  {
    name = Option.value name ~default:pname;
    eval =
      (fun ctx ->
        (* [Result.delivery_ratio]'s expression, over the counts. *)
        let c = count_once ~mode protocol ctx in
        float_of_int c.delivered /. float_of_int (Manet_graph.Graph.n ctx.graph));
  }

let structure_size ?name ?clustering pname =
  let protocol = Registry.find_exn pname in
  {
    name = Option.value name ~default:pname;
    eval =
      (fun ctx ->
        match (prepared ?clustering protocol ctx).Protocol.members with
        | Some members -> float_of_int (Nodeset.cardinal members)
        | None ->
          invalid_arg
            (Printf.sprintf "Metric.structure_size: %s has no materialized structure" pname));
  }

let completion_time ?name pname =
  let protocol = Registry.find_exn pname in
  {
    name = Option.value name ~default:pname;
    eval =
      (fun ctx -> float_of_int (count_once ~mode:Protocol.Perfect protocol ctx).completion_time);
  }

(* Non-protocol diagnostics. *)

let cluster_count =
  {
    name = "clusters";
    eval = (fun ctx -> float_of_int (Manet_cluster.Clustering.num_clusters ctx.clustering));
  }

let cluster_count_highest_degree =
  {
    name = "clusters/deg";
    eval =
      (fun ctx ->
        float_of_int
          (Manet_cluster.Clustering.num_clusters (Manet_cluster.Highest_degree.cluster ctx.graph)));
  }

let realized_degree =
  { name = "degree"; eval = (fun ctx -> Manet_graph.Graph.avg_degree ctx.graph) }

(* Failure injection. *)

type failure_spec = { kill : int; round : int; heal : int option; backbone_only : bool }

(* Victims come from the prepared structure when the scenario targets
   the backbone; source-dependent schemes expose no members, so their
   "backbone" is the forward set of a clean run on the same context —
   the nodes whose failure can actually hurt the broadcast. *)
let victim_pool ~spec (built : Protocol.built) ctx =
  let pool =
    if spec.backbone_only then
      match built.Protocol.members with
      | Some members -> members
      | None -> (fst (built.Protocol.run ~source:ctx.source ~mode:Protocol.Perfect)).Result.forwarders
    else Nodeset.range (Manet_graph.Graph.n ctx.graph)
  in
  Nodeset.remove ctx.source pool

(* Draw the victims (a partial Fisher-Yates shuffle from the context's
   generator — deterministic per sample) and install the schedule on the
   environment.  Returns the kill indicator. *)
let install_failures ~spec env (built : Protocol.built) ctx =
  let n = Manet_graph.Graph.n ctx.graph in
  let pool = Array.copy (victim_pool ~spec built ctx :> int array) in
  let count = min spec.kill (Array.length pool) in
  let killed = Array.make n false in
  for i = 0 to count - 1 do
    let j = i + Rng.int ctx.rng (Array.length pool - i) in
    let v = pool.(j) in
    pool.(j) <- pool.(i);
    pool.(i) <- v;
    killed.(v) <- true
  done;
  let round = spec.round and heal = spec.heal in
  env.Protocol.down <-
    Some
      (fun ~time ~node ->
        Array.unsafe_get killed node
        && time >= round
        && match heal with None -> true | Some h -> time < h);
  killed

(* Failure injection installs a [down] schedule, so it runs on an
   environment of its own rather than the sample's shared one. *)
let run_with_failures ~spec ~mode protocol ctx =
  let env = fresh_env ctx in
  let built = protocol.Protocol.prepare env in
  let killed = install_failures ~spec env built ctx in
  let r, _ = built.Protocol.run ~source:ctx.source ~mode in
  env.Protocol.down <- None;
  (r, killed)

let failure_delivery ?name ?loss ~spec pname =
  let protocol = Registry.find_exn pname in
  let mode = mode_of_loss loss in
  {
    name = Option.value name ~default:(pname ^ "/fail");
    eval =
      (fun ctx ->
        let r, killed = run_with_failures ~spec ~mode protocol ctx in
        (* Delivery over the nodes alive at the end: killed nodes are
           out of both sides unless the scenario heals them — a healed
           node that missed the broadcast counts against delivery,
           which is what partition-and-heal measures. *)
        let healed = spec.heal <> None in
        let total = ref 0 and got = ref 0 in
        Array.iteri
          (fun v delivered ->
            if (not killed.(v)) || healed then begin
              incr total;
              if delivered then incr got
            end)
          r.Result.delivered;
        float_of_int !got /. float_of_int (max 1 !total));
  }

let reconnection_rounds ?name ~spec pname =
  let protocol = Registry.find_exn pname in
  {
    name = Option.value name ~default:(pname ^ "/reconnect");
    eval =
      (fun ctx ->
        let r, _ = run_with_failures ~spec ~mode:Protocol.Perfect protocol ctx in
        float_of_int (max 0 (r.Result.completion_time - spec.round)));
  }

let redundancy ?name pname =
  let protocol = Registry.find_exn pname in
  {
    name = Option.value name ~default:(pname ^ "/redund");
    eval =
      (fun ctx ->
        match (prepared protocol ctx).Protocol.members with
        | None ->
          invalid_arg
            (Printf.sprintf "Metric.redundancy: %s has no materialized structure" pname)
        | Some members ->
          let outside = ref 0 and covers = ref 0 in
          for u = 0 to Manet_graph.Graph.n ctx.graph - 1 do
            if not (Nodeset.mem u members) then begin
              incr outside;
              covers :=
                !covers
                + Manet_graph.Graph.fold_neighbors ctx.graph u
                    (fun acc w -> if Nodeset.mem w members then acc + 1 else acc)
                    0
            end
          done;
          if !outside = 0 then 0. else float_of_int !covers /. float_of_int !outside);
  }

(* Shared per-sample computations, held in the per-sample store: each
   memo adds its own constructor to [entry], so one store keeps values
   of every memo's type. *)

let per_sample (type k v) () : ctx -> k -> (unit -> v) -> v =
  let module M = struct
    type entry += Memo of k * v
  end in
  fun ctx key compute ->
    let find = function M.Memo (k, v) when compare k key = 0 -> Some v | _ -> None in
    match List.find_map find (sample ctx).entries with
    | Some v -> v
    | None ->
      let v = compute () in
      let s = sample ctx in
      s.entries <- M.Memo (key, v) :: s.entries;
      v

(* Reliable broadcast: ack/retransmit over the Pagani-Rossi forwarding
   tree rooted at the source's clusterhead (every non-member answers to
   its clusterhead), then an oracle that repeats whole lossy floods
   until every node has the packet.  The tree is built directly, not
   through the registry, because the ack machinery needs its parent
   pointers. *)

type reliable_field = Tree_data | Tree_acks | Tree_complete | Oracle_flood

type reliable_run = { data : int; acks : int; complete : bool; oracle : int }

let oracle_max_floods = 50

let reliable_run ctx loss =
  let g = ctx.graph in
  let n = Manet_graph.Graph.n g in
  let tree =
    Manet_baselines.Forwarding_tree.build
      ~cache:(Protocol.coverage (env_of ctx) Manet_coverage.Coverage.Hop25)
      g ctx.clustering Manet_coverage.Coverage.Hop25 ~source:ctx.source
  in
  let parent =
    Array.init n (fun v ->
        if v = tree.root then -1
        else if Nodeset.mem v tree.members then tree.parent.(v)
        else Manet_cluster.Clustering.head_of ctx.clustering v)
  in
  let o = Manet_broadcast.Reliable.run g ~rng:ctx.rng ~loss ~root:tree.root ~parent in
  let flood = (prepared (Registry.find_exn "flooding") ctx).Protocol.run in
  let reached = Array.make n false in
  let total = ref 0 and floods = ref 0 in
  while (not (Array.for_all Fun.id reached)) && !floods < oracle_max_floods do
    incr floods;
    let r, _ = flood ~source:ctx.source ~mode:(Protocol.Lossy loss) in
    total := !total + Result.forward_count r;
    Array.iteri (fun v d -> if d then reached.(v) <- true) r.Result.delivered
  done;
  { data = o.data_transmissions; acks = o.ack_transmissions; complete = o.complete; oracle = !total }

let reliable_memo = per_sample ()

let reliable_broadcast ~name ~loss field =
  {
    name;
    eval =
      (fun ctx ->
        let r = reliable_memo ctx loss (fun () -> reliable_run ctx loss) in
        match field with
        | Tree_data -> float_of_int r.data
        | Tree_acks -> float_of_int r.acks
        | Tree_complete -> if r.complete then 1. else 0.
        | Oracle_flood -> float_of_int r.oracle);
  }

(* Border effects: the context's placement re-snapshotted under the
   wrap-around metric.  The torus only adds edges, so it is connected
   whenever the confined graph is. *)

type toroidal_field = Torus_degree | Torus_backbone

let toroidal ~name field =
  let static = Registry.find_exn "static-2.5hop" in
  {
    name;
    eval =
      (fun ctx ->
        let torus =
          Manet_graph.Unit_disk.build_toroidal ~radius:ctx.radius ~width:ctx.spec.width
            ~height:ctx.spec.height ctx.points
        in
        match field with
        | Torus_degree -> Manet_graph.Graph.avg_degree torus
        | Torus_backbone -> (
          match (static.Protocol.prepare (Protocol.make_env ~rng:ctx.rng torus)).members with
          | Some members -> float_of_int (Nodeset.cardinal members)
          | None -> assert false (* the static backbone always materializes *)));
  }

(* Motion: the context's placement walks under random-waypoint motion at
   one fixed speed.  Two walks, by field:
   - upkeep: [upkeep_steps] steps of [upkeep_dt], the static backbone
     maintained incrementally at every step, against the gateways an
     on-demand dynamic broadcast selects on the same snapshot;
   - lifetime: steps of [lifetime_dt] up to [horizon], timing when the
     backbone built at t = 0 stops being a CDS, with a delivery probe of
     that stale backbone vs an on-demand dynamic broadcast on the
     topology reached at [probe_time]. *)

type motion_field =
  | Cluster_msgs
  | Head_churn
  | Backbone_msgs
  | Gateways
  | Valid_time
  | Stale_delivery
  | Dynamic_delivery

let upkeep_steps = 30
let upkeep_dt = 1.
let lifetime_dt = 0.5
let horizon = 100.
let probe_time = 5.

let walker ctx speed =
  Mobility.create ~model:Mobility.Random_waypoint ~speed_min:speed ~speed_max:speed
    ~rng:(Rng.split ctx.rng) ~spec:ctx.spec ctx.points

(* Per-step means over the upkeep walk; gateways average over the
   connected snapshots only (0 when the walk has none). *)
type upkeep = { cluster_msgs : float; head_churn : float; backbone_msgs : float; gateways : float }

let upkeep ctx speed =
  let module Bm = Manet_backbone.Backbone_maintenance in
  let dynamic = Registry.find_exn "dynamic-2.5hop" in
  let bm = Bm.create ctx.graph Manet_coverage.Coverage.Hop25 in
  let mob = walker ctx speed in
  let msgs = ref 0 and churn = ref 0 and upkeep_msgs = ref 0 in
  let gateways = ref 0 and connected = ref 0 in
  for _ = 1 to upkeep_steps do
    Mobility.step mob ~dt:upkeep_dt;
    let g = Mobility.graph mob ~radius:ctx.radius in
    let report = Bm.update bm g in
    msgs := !msgs + report.cluster_events.messages;
    churn := !churn + Manet_cluster.Maintenance.head_churn report.cluster_events;
    upkeep_msgs := !upkeep_msgs + report.total_messages;
    if Manet_graph.Connectivity.is_connected g then begin
      let cl = Bm.clustering bm in
      let built = dynamic.Protocol.prepare (Protocol.make_env ~clustering:(lazy cl) g) in
      let r, _ =
        built.Protocol.run ~source:(Rng.int ctx.rng (Manet_graph.Graph.n g)) ~mode:Protocol.Perfect
      in
      gateways :=
        !gateways
        + Nodeset.cardinal
            (Nodeset.diff r.Result.forwarders (Manet_cluster.Clustering.head_set cl));
      incr connected
    end
  done;
  let per_step x = float_of_int x /. float_of_int upkeep_steps in
  {
    cluster_msgs = per_step !msgs;
    head_churn = per_step !churn;
    backbone_msgs = per_step !upkeep_msgs;
    gateways = (if !connected = 0 then 0. else float_of_int !gateways /. float_of_int !connected);
  }

type lifetime = { valid_time : float; stale_delivery : float; dynamic_delivery : float }

let lifetime ctx speed =
  let members =
    match (prepared (Registry.find_exn "static-2.5hop") ctx).Protocol.members with
    | Some members -> members
    | None -> assert false (* the static backbone always materializes *)
  in
  let mob = walker ctx speed in
  (* Motion continues past invalidation: the probe must see the moved
     topology either way. *)
  let t = ref 0. and invalid_at = ref None and probe = ref ctx.graph in
  while !t < horizon && (!invalid_at = None || !t <= probe_time) do
    Mobility.step mob ~dt:lifetime_dt;
    t := !t +. lifetime_dt;
    let g = Mobility.graph mob ~radius:ctx.radius in
    if Float.abs (!t -. probe_time) < lifetime_dt /. 2. then probe := g;
    if !invalid_at = None && not (Manet_graph.Dominating.is_cds g members) then
      invalid_at := Some !t
  done;
  (* The stale probe replays the frozen member set as an SI-CDS
     broadcast through the uniform pipeline — not a registry run, which
     would rebuild on the moved graph. *)
  let env = Protocol.make_env !probe in
  let stale, _ =
    Protocol.run_decide env ~source:ctx.source ~mode:Protocol.Perfect ~initial:()
      ~decide:(fun ~node ~from:_ ~payload:() -> if Nodeset.mem node members then Some () else None)
  in
  let dynamic, _ =
    ((Registry.find_exn "dynamic-2.5hop").Protocol.prepare env).Protocol.run ~source:ctx.source
      ~mode:Protocol.Perfect
  in
  {
    valid_time = Option.value !invalid_at ~default:horizon;
    stale_delivery = Result.delivery_ratio stale;
    dynamic_delivery = Result.delivery_ratio dynamic;
  }

let upkeep_memo = per_sample ()
let lifetime_memo = per_sample ()

let motion ~name ~speed field =
  let upkeep ctx = upkeep_memo ctx speed (fun () -> upkeep ctx speed) in
  let lifetime ctx = lifetime_memo ctx speed (fun () -> lifetime ctx speed) in
  {
    name;
    eval =
      (fun ctx ->
        match field with
        | Cluster_msgs -> (upkeep ctx).cluster_msgs
        | Head_churn -> (upkeep ctx).head_churn
        | Backbone_msgs -> (upkeep ctx).backbone_msgs
        | Gateways -> (upkeep ctx).gateways
        | Valid_time -> (lifetime ctx).valid_time
        | Stale_delivery -> (lifetime ctx).stale_delivery
        | Dynamic_delivery -> (lifetime ctx).dynamic_delivery);
  }
