module Registry = Manet_protocols.Registry
module Mobility = Manet_topology.Mobility

type clustering = Lowest_id | Highest_degree

type cost_field = Hello | Clustering_msgs | Ch_hop | Gateway | Total | Total_per_hello

type metric =
  | Forwards of { protocol : string; name : string option; loss : float option }
  | Delivery of { protocol : string; name : string option; loss : float option }
  | Structure_size of { protocol : string; name : string option; clustering : clustering option }
  | Completion_time of { protocol : string; name : string option }
  | Cluster_count of { clustering : clustering }
  | Realized_degree
  | Mcds_size
  | Mcds_ratio of { protocol : string; name : string option }
  | Construction_cost of { field : cost_field; name : string option }
  | Failure_delivery of { protocol : string; name : string option; loss : float option }
  | Reconnection_rounds of { protocol : string; name : string option }
  | Redundancy of { protocol : string; name : string option }
  | Workload_throughput of { name : string option }
  | Workload_maintenance of { name : string option }
  | Workload_staleness of { name : string option }
  | Workload_delivery of { name : string option }
  | Reliable_broadcast of { field : Metric.reliable_field; loss : float }
  | Toroidal of { field : Metric.toroidal_field }
  | Motion of { field : Metric.motion_field; speed : float }

type topology = { ns : int list; degrees : float list; width : float; height : float }

type stopping = { min_samples : int; max_samples : int; rel_precision : float }

type t = {
  name : string;
  description : string;
  seed : int;
  domains : int;
  topology : topology;
  mobility : Metric.perturbation option;
  loss : float option;
  failures : Metric.failure_spec option;
  workload : Workload.spec option;
  stopping : stopping;
  metrics : metric list;
}

(* Codec versions: 1 is the one-broadcast-per-topology shape; 2 adds the
   continuous-traffic "workload" object.  [to_json] emits the oldest
   version expressing the scenario, so v1 journals and files keep their
   exact bytes. *)
let version = 2

let paper_ns = [ 20; 30; 40; 50; 60; 70; 80; 90; 100 ]

let default_stopping = { min_samples = 30; max_samples = 500; rel_precision = 0.05 }

let quick_stopping = { min_samples = 5; max_samples = 8; rel_precision = 0.5 }

let make ?(description = "") ?(seed = 42) ?(domains = 1) ?(ns = paper_ns) ?(width = 100.)
    ?(height = 100.) ?mobility ?loss ?failures ?workload ?(stopping = default_stopping) ~name
    ~degrees metrics =
  {
    name;
    description;
    seed;
    domains;
    topology = { ns; degrees; width; height };
    mobility;
    loss;
    failures;
    workload;
    stopping;
    metrics;
  }

let quicken s =
  {
    s with
    seed = 7;
    stopping = quick_stopping;
    topology =
      { s.topology with ns = (if s.topology.ns = paper_ns then [ 20; 60; 100 ] else s.topology.ns) };
    (* A quick stream is a short stream: clamp the served duration (and
       the warmup with it) so smoke runs finish in seconds. *)
    workload =
      Option.map
        (fun (w : Workload.spec) ->
          Workload.make
            ~warmup:(Float.min w.warmup 2.)
            ~join_rate:w.join_rate ~leave_rate:w.leave_rate ~sources:w.sources
            ~maintenance_every:w.maintenance_every ~arrival_rate:w.arrival_rate
            ~duration:(Float.min w.duration 25.)
            ())
        s.workload;
  }

(* Names *)

(* Field tags of the field-selecting kinds, in codec order. *)

let cost_fields =
  [
    ("hello", Hello);
    ("clustering", Clustering_msgs);
    ("ch_hop", Ch_hop);
    ("gateway", Gateway);
    ("total", Total);
    ("total/hello", Total_per_hello);
  ]

let reliable_fields =
  Metric.
    [
      ("tree-data", Tree_data);
      ("tree-acks", Tree_acks);
      ("tree-complete", Tree_complete);
      ("oracle-flood", Oracle_flood);
    ]

let toroidal_fields = Metric.[ ("degree", Torus_degree); ("backbone", Torus_backbone) ]

let motion_fields =
  Metric.
    [
      ("cluster-msgs", Cluster_msgs);
      ("head-churn", Head_churn);
      ("backbone-msgs", Backbone_msgs);
      ("gateways", Gateways);
      ("valid-time", Valid_time);
      ("stale-delivery", Stale_delivery);
      ("dynamic-delivery", Dynamic_delivery);
    ]

let tag_of fields v = fst (List.find (fun (_, f) -> f = v) fields)

let cost_field_tag = tag_of cost_fields

let label_at series x = series ^ "@" ^ Json.number_to_string x

let metric_name = function
  | Forwards { protocol; name; _ }
  | Delivery { protocol; name; _ }
  | Structure_size { protocol; name; _ }
  | Completion_time { protocol; name } ->
    Option.value name ~default:protocol
  | Cluster_count { clustering = Lowest_id } -> "clusters"
  | Cluster_count { clustering = Highest_degree } -> "clusters/deg"
  | Realized_degree -> "degree"
  | Mcds_size -> "mcds"
  | Mcds_ratio { protocol; name } -> Option.value name ~default:(protocol ^ "/mcds")
  | Construction_cost { field; name } ->
    Option.value name ~default:(match field with Total_per_hello -> "total/n" | f -> cost_field_tag f)
  | Failure_delivery { protocol; name; _ } -> Option.value name ~default:(protocol ^ "/fail")
  | Reconnection_rounds { protocol; name } -> Option.value name ~default:(protocol ^ "/reconnect")
  | Redundancy { protocol; name } -> Option.value name ~default:(protocol ^ "/redund")
  | Workload_throughput { name } -> Option.value name ~default:"throughput"
  | Workload_maintenance { name } -> Option.value name ~default:"maint/churn"
  | Workload_staleness { name } -> Option.value name ~default:"staleness"
  | Workload_delivery { name } -> Option.value name ~default:"churn-delivery"
  | Reliable_broadcast { field; loss } -> label_at (tag_of reliable_fields field) loss
  | Toroidal { field } -> "toroidal-" ^ tag_of toroidal_fields field
  | Motion { field; speed } -> label_at (tag_of motion_fields field) speed

(* Validation *)

let protocol_of = function
  | Forwards { protocol; _ }
  | Delivery { protocol; _ }
  | Structure_size { protocol; _ }
  | Completion_time { protocol; _ }
  | Mcds_ratio { protocol; _ }
  | Failure_delivery { protocol; _ }
  | Reconnection_rounds { protocol; _ }
  | Redundancy { protocol; _ } ->
    Some protocol
  | Cluster_count _ | Realized_degree | Mcds_size | Construction_cost _ | Workload_throughput _
  | Workload_maintenance _ | Workload_staleness _ | Workload_delivery _ | Reliable_broadcast _
  | Toroidal _ | Motion _ ->
    None

let needs_failures = function
  | Failure_delivery _ | Reconnection_rounds _ -> true
  | Forwards _ | Delivery _ | Structure_size _ | Completion_time _ | Cluster_count _
  | Realized_degree | Mcds_size | Mcds_ratio _ | Construction_cost _ | Redundancy _
  | Workload_throughput _ | Workload_maintenance _ | Workload_staleness _ | Workload_delivery _
  | Reliable_broadcast _ | Toroidal _ | Motion _ ->
    false

let needs_workload = function
  | Workload_throughput _ | Workload_maintenance _ | Workload_staleness _ | Workload_delivery _ ->
    true
  | Forwards _ | Delivery _ | Structure_size _ | Completion_time _ | Cluster_count _
  | Realized_degree | Mcds_size | Mcds_ratio _ | Construction_cost _ | Failure_delivery _
  | Reconnection_rounds _ | Redundancy _ | Reliable_broadcast _ | Toroidal _ | Motion _ ->
    false

let validate s =
  let err fmt = Printf.ksprintf (fun m -> Error ("scenario: " ^ m)) fmt in
  let rec check_metrics i seen = function
    | [] -> Ok ()
    | m :: rest -> (
      let bad_loss l = l < 0. || l > 1. || Float.is_nan l in
      let metric_loss =
        match m with
        | Forwards { loss; _ } | Delivery { loss; _ } | Failure_delivery { loss; _ } -> loss
        | Reliable_broadcast { loss; _ } -> Some loss
        | _ -> None
      in
      match protocol_of m with
      | Some p when Registry.find p = None ->
        err "metrics[%d]: unknown protocol %S; registered protocols: %s" i p
          (String.concat ", " Registry.names)
      | _ when needs_failures m && s.failures = None ->
        err "metrics[%d]: %S needs the scenario-level \"failures\" event" i (metric_name m)
      | _ when needs_workload m && s.workload = None ->
        err "metrics[%d]: %S needs the scenario-level \"workload\" object" i (metric_name m)
      | _ ->
        (match (metric_loss, m) with
        | Some l, _ when bad_loss l ->
          err "metrics[%d]: loss %s outside [0, 1]" i (Json.number_to_string l)
        | _, Motion { speed; _ } when not (Float.is_finite speed && speed >= 0.) ->
          err "metrics[%d]: speed %s must be finite and >= 0" i (Json.number_to_string speed)
        | _ ->
          let name = metric_name m in
          if List.mem name seen then
            err
              "metrics[%d]: duplicate series label %S; set a distinct \"name\" on one of the \
               colliding metrics"
              i name
          else check_metrics (i + 1) (name :: seen) rest))
  in
  if s.name = "" then err "\"name\" must be non-empty"
  else if s.domains < 1 then err "\"domains\" must be >= 1 (got %d)" s.domains
  else if s.topology.ns = [] then err "topology.n must list at least one network size"
  else if List.exists (fun n -> n < 2) s.topology.ns then
    err "topology.n: every size must be >= 2 (got %s)"
      (String.concat ", " (List.map string_of_int s.topology.ns))
  else if s.topology.degrees = [] then err "topology.degree must list at least one target degree"
  else if List.exists (fun d -> d <= 0. || Float.is_nan d) s.topology.degrees then
    err "topology.degree: every target degree must be positive"
  else if s.topology.width <= 0. || s.topology.height <= 0. then
    err "topology.width and topology.height must be positive"
  else if s.stopping.min_samples < 2 then
    err "stopping.min_samples must be >= 2 (got %d)" s.stopping.min_samples
  else if s.stopping.max_samples < s.stopping.min_samples then
    err "stopping.max_samples (%d) must be >= stopping.min_samples (%d)" s.stopping.max_samples
      s.stopping.min_samples
  else if s.stopping.rel_precision <= 0. || Float.is_nan s.stopping.rel_precision then
    err "stopping.rel_precision must be positive"
  else
    match s.loss with
    | Some l when l < 0. || l > 1. || Float.is_nan l ->
      err "\"loss\" %s outside [0, 1]" (Json.number_to_string l)
    | _ -> (
      match s.failures with
      | Some f when f.Metric.kill < 1 -> err "failures.kill must be >= 1 (got %d)" f.Metric.kill
      | Some f when f.Metric.round < 0 -> err "failures.round must be >= 0 (got %d)" f.Metric.round
      | Some { Metric.heal = Some h; round; _ } when h <= round ->
        err "failures.heal (%d) must be after failures.round (%d)" h round
      | _ -> (
      match s.mobility with
      | Some p when p.Metric.steps < 0 -> err "mobility.steps must be >= 0 (got %d)" p.Metric.steps
      | Some p when p.Metric.dt <= 0. -> err "mobility.dt must be positive"
      | Some p
        when match s.workload with
             | Some w -> not (Workload.advances ~duration:w.Workload.duration p.Metric.dt)
             | None -> false ->
        err "mobility.dt %s is too small to advance the workload clock within its duration"
          (Json.number_to_string p.Metric.dt)
      | Some p when p.Metric.speed_min < 0. || p.Metric.speed_max < p.Metric.speed_min ->
        err "mobility speeds must satisfy 0 <= speed_min <= speed_max"
      | Some p when p.Metric.pause_time < 0. -> err "mobility.pause_time must be >= 0"
      | _ ->
        if s.metrics = [] then err "\"metrics\" must list at least one series"
        else check_metrics 0 [] s.metrics))

(* Compilation to executable metrics *)

let clustering_fn = function
  | Lowest_id -> Manet_cluster.Lowest_id.cluster
  | Highest_degree -> Manet_cluster.Highest_degree.cluster

let mcds_size_of (ctx : Metric.ctx) =
  float_of_int (Manet_graph.Nodeset.cardinal (Manet_mcds.Exact.build ctx.Metric.graph))

(* The construction-cost series of a sample all read one distributed
   construction (three message-level protocol runs). *)
let cost_memo = Metric.per_sample ()

let compile s =
  (match validate s with Ok () -> () | Error m -> invalid_arg m);
  let default_loss = s.loss in
  let eff loss = match loss with Some _ -> loss | None -> default_loss in
  let spec () =
    match s.failures with
    | Some f -> f
    | None -> assert false (* validate requires failures for failure metrics *)
  in
  let workload () =
    match s.workload with
    | Some w -> w
    | None -> assert false (* validate requires a workload for workload metrics *)
  in
  (* The scenario's mobility regime doubles as the workload's continuous
     motion: the walker advances every [dt] on the stream clock ([steps]
     governs only the one-shot pre-measurement walk of plain metrics). *)
  let motion =
    Option.map
      (fun (p : Metric.perturbation) ->
        {
          Workload.model = p.model;
          dt = p.dt;
          speed_min = p.speed_min;
          speed_max = p.speed_max;
          pause_time = p.pause_time;
        })
      s.mobility
  in
  List.map
    (fun m ->
      let name = metric_name m in
      match m with
      | Forwards { protocol; loss; _ } -> Metric.forwards ~name ?loss:(eff loss) protocol
      | Delivery { protocol; loss; _ } -> Metric.delivery ~name ?loss:(eff loss) protocol
      | Failure_delivery { protocol; loss; _ } ->
        Metric.failure_delivery ~name ?loss:(eff loss) ~spec:(spec ()) protocol
      | Reconnection_rounds { protocol; _ } ->
        Metric.reconnection_rounds ~name ~spec:(spec ()) protocol
      | Redundancy { protocol; _ } -> Metric.redundancy ~name protocol
      | Structure_size { protocol; clustering; _ } ->
        Metric.structure_size ~name ?clustering:(Option.map clustering_fn clustering) protocol
      | Completion_time { protocol; _ } -> Metric.completion_time ~name protocol
      | Cluster_count { clustering = Lowest_id } -> Metric.cluster_count
      | Cluster_count { clustering = Highest_degree } -> Metric.cluster_count_highest_degree
      | Realized_degree -> Metric.realized_degree
      | Mcds_size -> { Metric.name; eval = mcds_size_of }
      | Mcds_ratio { protocol; _ } ->
        let size = Metric.structure_size protocol in
        { Metric.name; eval = (fun ctx -> size.Metric.eval ctx /. mcds_size_of ctx) }
      | Workload_throughput _ -> { (Workload.throughput ?motion (workload ())) with Metric.name }
      | Workload_maintenance _ ->
        { (Workload.maintenance_per_churn ?motion (workload ())) with Metric.name }
      | Workload_staleness _ -> { (Workload.staleness ?motion (workload ())) with Metric.name }
      | Workload_delivery _ -> { (Workload.churn_delivery ?motion (workload ())) with Metric.name }
      | Reliable_broadcast { field; loss } -> Metric.reliable_broadcast ~name ~loss field
      | Toroidal { field } -> Metric.toroidal ~name field
      | Motion { field; speed } -> Metric.motion ~name ~speed field
      | Construction_cost { field; _ } ->
        let pick (c : Manet_backbone.Construction_cost.t) =
          match field with
          | Hello -> float_of_int c.hello
          | Clustering_msgs -> float_of_int c.clustering
          | Ch_hop -> float_of_int c.ch_hop
          | Gateway -> float_of_int c.gateway
          | Total -> float_of_int c.total
          | Total_per_hello -> float_of_int c.total /. float_of_int c.hello
        in
        {
          Metric.name;
          eval =
            (fun ctx ->
              pick
                (cost_memo ctx () (fun () ->
                     fst
                       (Manet_backbone.Construction_cost.measure ctx.Metric.graph
                          Manet_coverage.Coverage.Hop25))));
        })
    s.metrics

(* JSON codec.

   Canonical shape (optional fields omitted when at their default):

   { "version": 1, "name": ..., "description": ..., "seed": ...,
     "domains": ...,
     "topology": {"n": [...], "degree": [...], "width": ..., "height": ...},
     "mobility": {"model": ..., "steps": ..., "dt": ...,
                  "speed_min": ..., "speed_max": ..., "pause_time": ...},
     "loss": ...,
     "stopping": {"min_samples": ..., "max_samples": ..., "rel_precision": ...},
     "metrics": [{"kind": ..., ...}, ...] } *)

let clustering_tag = function Lowest_id -> "lowest-id" | Highest_degree -> "highest-degree"

let model_tag = function
  | Mobility.Random_waypoint -> "random-waypoint"
  | Mobility.Random_direction -> "random-direction"

let metric_to_json m =
  let opt_str key = function None -> [] | Some v -> [ (key, Json.Str v) ] in
  let opt_num key = function None -> [] | Some v -> [ (key, Json.Num v) ] in
  let kind k fields = Json.Obj (("kind", Json.Str k) :: fields) in
  match m with
  | Forwards { protocol; name; loss } ->
    kind "forwards" ([ ("protocol", Json.Str protocol) ] @ opt_str "name" name @ opt_num "loss" loss)
  | Delivery { protocol; name; loss } ->
    kind "delivery" ([ ("protocol", Json.Str protocol) ] @ opt_str "name" name @ opt_num "loss" loss)
  | Structure_size { protocol; name; clustering } ->
    kind "structure-size"
      ([ ("protocol", Json.Str protocol) ]
      @ opt_str "name" name
      @ opt_str "clustering" (Option.map clustering_tag clustering))
  | Completion_time { protocol; name } ->
    kind "completion-time" ([ ("protocol", Json.Str protocol) ] @ opt_str "name" name)
  | Cluster_count { clustering = Lowest_id } -> kind "cluster-count" []
  | Cluster_count { clustering = Highest_degree } ->
    kind "cluster-count" [ ("clustering", Json.Str (clustering_tag Highest_degree)) ]
  | Realized_degree -> kind "realized-degree" []
  | Mcds_size -> kind "mcds-size" []
  | Mcds_ratio { protocol; name } ->
    kind "mcds-ratio" ([ ("protocol", Json.Str protocol) ] @ opt_str "name" name)
  | Construction_cost { field; name } ->
    kind "construction-cost"
      ([ ("field", Json.Str (cost_field_tag field)) ] @ opt_str "name" name)
  | Failure_delivery { protocol; name; loss } ->
    kind "failure-delivery"
      ([ ("protocol", Json.Str protocol) ] @ opt_str "name" name @ opt_num "loss" loss)
  | Reconnection_rounds { protocol; name } ->
    kind "reconnection-rounds" ([ ("protocol", Json.Str protocol) ] @ opt_str "name" name)
  | Redundancy { protocol; name } ->
    kind "redundancy" ([ ("protocol", Json.Str protocol) ] @ opt_str "name" name)
  | Workload_throughput { name } -> kind "workload-throughput" (opt_str "name" name)
  | Workload_maintenance { name } -> kind "workload-maintenance" (opt_str "name" name)
  | Workload_staleness { name } -> kind "workload-staleness" (opt_str "name" name)
  | Workload_delivery { name } -> kind "workload-delivery" (opt_str "name" name)
  | Reliable_broadcast { field; loss } ->
    kind "reliable-broadcast"
      [ ("field", Json.Str (tag_of reliable_fields field)); ("loss", Json.Num loss) ]
  | Toroidal { field } -> kind "toroidal" [ ("field", Json.Str (tag_of toroidal_fields field)) ]
  | Motion { field; speed } ->
    kind "motion" [ ("field", Json.Str (tag_of motion_fields field)); ("speed", Json.Num speed) ]

let to_json s =
  let ints ns = Json.Arr (List.map (fun n -> Json.Num (float_of_int n)) ns) in
  let floats ds = Json.Arr (List.map (fun d -> Json.Num d) ds) in
  (* v1 scenarios keep their exact historical bytes: the version bump is
     paid only by scenarios using the v2 "workload" object. *)
  let emitted_version = match s.workload with None -> 1 | Some _ -> version in
  Json.Obj
    ([
       ("version", Json.Num (float_of_int emitted_version));
       ("name", Json.Str s.name);
     ]
    @ (if s.description = "" then [] else [ ("description", Json.Str s.description) ])
    @ [
        ("seed", Json.Num (float_of_int s.seed));
        ("domains", Json.Num (float_of_int s.domains));
        ( "topology",
          Json.Obj
            [
              ("n", ints s.topology.ns);
              ("degree", floats s.topology.degrees);
              ("width", Json.Num s.topology.width);
              ("height", Json.Num s.topology.height);
            ] );
      ]
    @ (match s.mobility with
      | None -> []
      | Some p ->
        [
          ( "mobility",
            Json.Obj
              [
                ("model", Json.Str (model_tag p.Metric.model));
                ("steps", Json.Num (float_of_int p.Metric.steps));
                ("dt", Json.Num p.Metric.dt);
                ("speed_min", Json.Num p.Metric.speed_min);
                ("speed_max", Json.Num p.Metric.speed_max);
                ("pause_time", Json.Num p.Metric.pause_time);
              ] );
        ])
    @ (match s.loss with None -> [] | Some l -> [ ("loss", Json.Num l) ])
    @ (match s.failures with
      | None -> []
      | Some f ->
        [
          ( "failures",
            Json.Obj
              ([
                 ("kill", Json.Num (float_of_int f.Metric.kill));
                 ("round", Json.Num (float_of_int f.Metric.round));
               ]
              @ (match f.Metric.heal with
                | None -> []
                | Some h -> [ ("heal", Json.Num (float_of_int h)) ])
              @
              if f.Metric.backbone_only then []
              else [ ("scope", Json.Str "any") ]) );
        ])
    @ (match s.workload with
      | None -> []
      | Some w ->
        [
          ( "workload",
            Json.Obj
              ([
                 ("arrival_rate", Json.Num w.Workload.arrival_rate);
                 ("duration", Json.Num w.Workload.duration);
               ]
              @ (if w.Workload.warmup = 0. then [] else [ ("warmup", Json.Num w.Workload.warmup) ])
              @ (if w.Workload.join_rate = 0. then []
                 else [ ("join_rate", Json.Num w.Workload.join_rate) ])
              @ (if w.Workload.leave_rate = 0. then []
                 else [ ("leave_rate", Json.Num w.Workload.leave_rate) ])
              @ (if w.Workload.sources = 0 then []
                 else [ ("sources", Json.Num (float_of_int w.Workload.sources)) ])
              @
              if w.Workload.maintenance_every = 1. then []
              else [ ("maintenance_every", Json.Num w.Workload.maintenance_every) ]) );
        ])
    @ [
        ( "stopping",
          Json.Obj
            [
              ("min_samples", Json.Num (float_of_int s.stopping.min_samples));
              ("max_samples", Json.Num (float_of_int s.stopping.max_samples));
              ("rel_precision", Json.Num s.stopping.rel_precision);
            ] );
        ("metrics", Json.Arr (List.map metric_to_json s.metrics));
      ])

let to_string s = Json.print (to_json s) ^ "\n"

(* Strict decoding: every object traversal checks for unknown fields so
   a typo'd scenario fails loudly instead of silently running defaults. *)

exception Reject of string

let reject fmt = Printf.ksprintf (fun m -> raise (Reject ("scenario: " ^ m))) fmt

let lift v = match v with Ok v -> v | Error m -> raise (Reject ("scenario: " ^ m))

let obj_of ~context j = lift (Json.to_obj ~context j)

let check_fields ~context ~allowed fields =
  List.iter
    (fun (k, _) ->
      if not (List.mem k allowed) then
        reject "unknown field %S in %s (expected one of: %s)" k context
          (String.concat ", " allowed))
    fields

let field fields key = List.assoc_opt key fields

let required ~context fields key =
  match field fields key with
  | Some v -> v
  | None -> reject "missing required field %S in %s" key context

let get_int ~context j = lift (Json.to_int ~context j)
let get_float ~context j = lift (Json.to_float ~context j)
let get_str ~context j = lift (Json.to_string_value ~context j)
let get_list ~context j = lift (Json.to_list ~context j)

let clustering_of_tag ~context = function
  | "lowest-id" -> Lowest_id
  | "highest-degree" -> Highest_degree
  | other -> reject "%s: unknown clustering %S (expected \"lowest-id\" or \"highest-degree\")" context other

let metric_of_json i j =
  let context = Printf.sprintf "metrics[%d]" i in
  let fields = obj_of ~context j in
  let kind = get_str ~context:(context ^ ".kind") (required ~context fields "kind") in
  let protocol ?(key = "protocol") () =
    get_str ~context:(context ^ "." ^ key) (required ~context fields key)
  in
  let name () = Option.map (get_str ~context:(context ^ ".name")) (field fields "name") in
  let loss () = Option.map (get_float ~context:(context ^ ".loss")) (field fields "loss") in
  let clustering () =
    Option.map
      (fun v -> clustering_of_tag ~context (get_str ~context:(context ^ ".clustering") v))
      (field fields "clustering")
  in
  let check allowed = check_fields ~context ~allowed:("kind" :: allowed) fields in
  let req_float key = get_float ~context:(context ^ "." ^ key) (required ~context fields key) in
  let field_of fields_of_kind =
    let tag = get_str ~context:(context ^ ".field") (required ~context fields "field") in
    match List.assoc_opt tag fields_of_kind with
    | Some f -> f
    | None ->
      reject "%s: unknown %s field %S (expected one of: %s)" context kind tag
        (String.concat ", " (List.map fst fields_of_kind))
  in
  match kind with
  | "forwards" ->
    check [ "protocol"; "name"; "loss" ];
    Forwards { protocol = protocol (); name = name (); loss = loss () }
  | "delivery" ->
    check [ "protocol"; "name"; "loss" ];
    Delivery { protocol = protocol (); name = name (); loss = loss () }
  | "structure-size" ->
    check [ "protocol"; "name"; "clustering" ];
    Structure_size { protocol = protocol (); name = name (); clustering = clustering () }
  | "completion-time" ->
    check [ "protocol"; "name" ];
    Completion_time { protocol = protocol (); name = name () }
  | "cluster-count" ->
    check [ "clustering" ];
    Cluster_count { clustering = Option.value (clustering ()) ~default:Lowest_id }
  | "realized-degree" ->
    check [];
    Realized_degree
  | "mcds-size" ->
    check [];
    Mcds_size
  | "mcds-ratio" ->
    check [ "protocol"; "name" ];
    Mcds_ratio { protocol = protocol (); name = name () }
  | "construction-cost" ->
    check [ "field"; "name" ];
    Construction_cost { field = field_of cost_fields; name = name () }
  | "failure-delivery" ->
    check [ "protocol"; "name"; "loss" ];
    Failure_delivery { protocol = protocol (); name = name (); loss = loss () }
  | "reconnection-rounds" ->
    check [ "protocol"; "name" ];
    Reconnection_rounds { protocol = protocol (); name = name () }
  | "redundancy" ->
    check [ "protocol"; "name" ];
    Redundancy { protocol = protocol (); name = name () }
  | "workload-throughput" ->
    check [ "name" ];
    Workload_throughput { name = name () }
  | "workload-maintenance" ->
    check [ "name" ];
    Workload_maintenance { name = name () }
  | "workload-staleness" ->
    check [ "name" ];
    Workload_staleness { name = name () }
  | "workload-delivery" ->
    check [ "name" ];
    Workload_delivery { name = name () }
  | "reliable-broadcast" ->
    check [ "field"; "loss" ];
    Reliable_broadcast { field = field_of reliable_fields; loss = req_float "loss" }
  | "toroidal" ->
    check [ "field" ];
    Toroidal { field = field_of toroidal_fields }
  | "motion" ->
    check [ "field"; "speed" ];
    Motion { field = field_of motion_fields; speed = req_float "speed" }
  | other ->
    reject
      "%s: unknown metric kind %S (expected forwards, delivery, structure-size, completion-time, \
       cluster-count, realized-degree, mcds-size, mcds-ratio, construction-cost, \
       failure-delivery, reconnection-rounds, redundancy, workload-throughput, \
       workload-maintenance, workload-staleness, workload-delivery, reliable-broadcast, \
       toroidal or motion)"
      context other

let topology_of_json j =
  let context = "topology" in
  let fields = obj_of ~context j in
  check_fields ~context ~allowed:[ "n"; "degree"; "width"; "height" ] fields;
  let ns =
    List.map (get_int ~context:"topology.n") (get_list ~context:"topology.n" (required ~context fields "n"))
  in
  let degrees =
    List.map (get_float ~context:"topology.degree")
      (get_list ~context:"topology.degree" (required ~context fields "degree"))
  in
  let dim key default =
    match field fields key with
    | None -> default
    | Some v -> get_float ~context:("topology." ^ key) v
  in
  { ns; degrees; width = dim "width" 100.; height = dim "height" 100. }

let stopping_of_json j =
  let context = "stopping" in
  let fields = obj_of ~context j in
  check_fields ~context ~allowed:[ "min_samples"; "max_samples"; "rel_precision" ] fields;
  {
    min_samples = get_int ~context:"stopping.min_samples" (required ~context fields "min_samples");
    max_samples = get_int ~context:"stopping.max_samples" (required ~context fields "max_samples");
    rel_precision =
      get_float ~context:"stopping.rel_precision" (required ~context fields "rel_precision");
  }

let mobility_of_json j =
  let context = "mobility" in
  let fields = obj_of ~context j in
  check_fields ~context
    ~allowed:[ "model"; "steps"; "dt"; "speed_min"; "speed_max"; "pause_time" ]
    fields;
  let model =
    match get_str ~context:"mobility.model" (required ~context fields "model") with
    | "random-waypoint" -> Mobility.Random_waypoint
    | "random-direction" -> Mobility.Random_direction
    | other ->
      reject
        "mobility.model: unknown model %S (expected \"random-waypoint\" or \"random-direction\")"
        other
  in
  {
    Metric.model;
    steps = get_int ~context:"mobility.steps" (required ~context fields "steps");
    dt = get_float ~context:"mobility.dt" (required ~context fields "dt");
    speed_min = get_float ~context:"mobility.speed_min" (required ~context fields "speed_min");
    speed_max = get_float ~context:"mobility.speed_max" (required ~context fields "speed_max");
    pause_time =
      (match field fields "pause_time" with
      | None -> 0.
      | Some v -> get_float ~context:"mobility.pause_time" v);
  }

let failures_of_json j =
  let context = "failures" in
  let fields = obj_of ~context j in
  check_fields ~context ~allowed:[ "kill"; "round"; "heal"; "scope" ] fields;
  {
    Metric.kill = get_int ~context:"failures.kill" (required ~context fields "kill");
    round = get_int ~context:"failures.round" (required ~context fields "round");
    heal = Option.map (get_int ~context:"failures.heal") (field fields "heal");
    backbone_only =
      (match field fields "scope" with
      | None -> true
      | Some v -> (
        match get_str ~context:"failures.scope" v with
        | "backbone" -> true
        | "any" -> false
        | other ->
          reject "failures.scope: unknown scope %S (expected \"backbone\" or \"any\")" other));
  }

let workload_of_json j =
  let context = "workload" in
  let fields = obj_of ~context j in
  check_fields ~context
    ~allowed:[ "arrival_rate"; "duration"; "warmup"; "join_rate"; "leave_rate"; "sources"; "maintenance_every" ]
    fields;
  let get_f key v = get_float ~context:("workload." ^ key) v in
  let req_f key = get_f key (required ~context fields key) in
  let opt_f key default = match field fields key with None -> default | Some v -> get_f key v in
  let arrival_rate = req_f "arrival_rate" in
  let duration = req_f "duration" in
  let warmup = opt_f "warmup" 0. in
  let join_rate = opt_f "join_rate" 0. in
  let leave_rate = opt_f "leave_rate" 0. in
  let sources =
    match field fields "sources" with
    | None -> 0
    | Some v -> get_int ~context:"workload.sources" v
  in
  let maintenance_every = opt_f "maintenance_every" 1. in
  (* [Workload.make] owns the range checks (positive rates, warmup
     inside the duration, ...); surface its verdict as a parse error. *)
  match
    Workload.make ~warmup ~join_rate ~leave_rate ~sources ~maintenance_every ~arrival_rate
      ~duration ()
  with
  | w -> w
  | exception Invalid_argument m -> reject "%s" m

let of_json j =
  match
    let context = "scenario" in
    let fields = obj_of ~context j in
    check_fields ~context
      ~allowed:
        [
          "version"; "name"; "description"; "seed"; "domains"; "topology"; "mobility"; "loss";
          "failures"; "workload"; "stopping"; "metrics";
        ]
      fields;
    let v = get_int ~context:"version" (required ~context fields "version") in
    if v < 1 || v > version then
      reject "unsupported version %d (this build reads versions 1-%d)" v version;
    if v < 2 && field fields "workload" <> None then
      reject "\"workload\" requires version 2 (this scenario declares version %d)" v;
    let s =
      {
        name = get_str ~context:"name" (required ~context fields "name");
        description =
          (match field fields "description" with
          | None -> ""
          | Some v -> get_str ~context:"description" v);
        seed = get_int ~context:"seed" (required ~context fields "seed");
        domains =
          (match field fields "domains" with
          | None -> 1
          | Some v -> get_int ~context:"domains" v);
        topology = topology_of_json (required ~context fields "topology");
        mobility = Option.map mobility_of_json (field fields "mobility");
        loss = Option.map (get_float ~context:"loss") (field fields "loss");
        failures = Option.map failures_of_json (field fields "failures");
        workload = Option.map workload_of_json (field fields "workload");
        stopping = stopping_of_json (required ~context fields "stopping");
        metrics =
          List.mapi metric_of_json (get_list ~context:"metrics" (required ~context fields "metrics"));
      }
    in
    (match validate s with Ok () -> () | Error m -> raise (Reject m));
    s
  with
  | s -> Ok s
  | exception Reject m -> Error m

let of_string text =
  match Json.parse text with
  | Error m -> Error ("scenario: " ^ m)
  | Ok j -> of_json j
