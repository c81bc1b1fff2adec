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

(* JSON codec.  Every field is declared once, with its key, codec,
   default, range check and projection from the record; encoding, strict
   decoding and [validate] all walk these declarations.  Optional fields
   are omitted at their default, so every builtin keeps its bytes. *)

let num = Json.number_to_string

let finite ok what =
  Json.where (fun x -> Float.is_finite x && ok x) (fun x -> num x ^ " must be finite and " ^ what)
    Json.float

let positive = finite (fun x -> x > 0.) "> 0"

let non_negative = finite (fun x -> x >= 0.) ">= 0"

let at_least lo =
  Json.where (fun i -> i >= lo) (fun i -> Printf.sprintf "must be >= %d (got %d)" lo i) Json.int

let probability =
  Json.where (fun l -> l >= 0. && l <= 1.) (fun l -> num l ^ " outside [0, 1]") Json.float

let non_empty what c = Json.where (fun l -> l <> []) (fun _ -> "must list at least one " ^ what) c

let topology =
  Json.(
    obj (fun ns degrees width height -> { ns; degrees; width; height })
    |> mem
         (req "n"
            (non_empty "network size"
               (where (List.for_all (fun n -> n >= 2))
                  (fun ns ->
                    Printf.sprintf "every size must be >= 2 (got %s)"
                      (String.concat ", " (List.map string_of_int ns)))
                  (list int)))
            (fun t -> t.ns))
    |> mem (req "degree" (non_empty "target degree" (list positive)) (fun t -> t.degrees))
    |> mem (dflt "width" positive 100. (fun t -> t.width))
    |> mem (dflt "height" positive 100. (fun t -> t.height))
    |> seal)

let mobility =
  Json.(
    obj (fun model steps dt speed_min speed_max pause_time ->
        { Metric.model; steps; dt; speed_min; speed_max; pause_time })
    |> mem
         (req "model"
            (enum ~what:"model"
               [
                 ("random-waypoint", Mobility.Random_waypoint);
                 ("random-direction", Random_direction);
               ])
            (fun p -> p.Metric.model))
    |> mem (req "steps" (at_least 0) (fun p -> p.Metric.steps))
    |> mem (req "dt" positive (fun p -> p.Metric.dt))
    |> mem (req "speed_min" non_negative (fun p -> p.Metric.speed_min))
    |> mem (req "speed_max" non_negative (fun p -> p.Metric.speed_max))
    |> mem (dflt "pause_time" non_negative 0. (fun p -> p.Metric.pause_time))
    |> seal ~check:(fun p ->
           if p.Metric.speed_max < p.Metric.speed_min then
             fail ~at:"speed_max"
               (Printf.sprintf "%s must be >= speed_min (%s)" (num p.Metric.speed_max)
                  (num p.Metric.speed_min))))

let failures =
  Json.(
    obj (fun kill round heal backbone_only -> { Metric.kill; round; heal; backbone_only })
    |> mem (req "kill" (at_least 1) (fun f -> f.Metric.kill))
    |> mem (req "round" (at_least 0) (fun f -> f.Metric.round))
    |> mem (opt "heal" int (fun f -> f.Metric.heal))
    |> mem
         (omit "scope"
            (enum ~what:"scope" [ ("backbone", true); ("any", false) ])
            true
            (fun f -> f.Metric.backbone_only))
    |> seal ~check:(fun f ->
           match f.Metric.heal with
           | Some h when h <= f.Metric.round ->
             fail ~at:"heal"
               (Printf.sprintf "%d must be after failures.round (%d)" h f.Metric.round)
           | _ -> ()))

let workload =
  Json.(
    obj (fun arrival_rate duration warmup join_rate leave_rate sources maintenance_every ->
        (* [Workload.make] owns the stream's range checks. *)
        match
          Workload.make ~warmup ~join_rate ~leave_rate ~sources ~maintenance_every ~arrival_rate
            ~duration ()
        with
        | w -> w
        | exception Invalid_argument m ->
          (* Drop the function name: the message names the member. *)
          let i = match String.index_opt m ' ' with Some i -> i + 1 | None -> 0 in
          fail (String.sub m i (String.length m - i)))
    |> mem (req "arrival_rate" float (fun w -> w.Workload.arrival_rate))
    |> mem (req "duration" float (fun w -> w.Workload.duration))
    |> mem (omit "warmup" float 0. (fun w -> w.Workload.warmup))
    |> mem (omit "join_rate" float 0. (fun w -> w.Workload.join_rate))
    |> mem (omit "leave_rate" float 0. (fun w -> w.Workload.leave_rate))
    |> mem (omit "sources" int 0 (fun w -> w.Workload.sources))
    |> mem (omit "maintenance_every" float 1. (fun w -> w.Workload.maintenance_every))
    |> seal)

let stopping =
  Json.(
    obj (fun min_samples max_samples rel_precision -> { min_samples; max_samples; rel_precision })
    |> mem (req "min_samples" (at_least 2) (fun s -> s.min_samples))
    |> mem (req "max_samples" int (fun s -> s.max_samples))
    |> mem (req "rel_precision" positive (fun s -> s.rel_precision))
    |> seal ~check:(fun s ->
           if s.max_samples < s.min_samples then
             fail ~at:"max_samples"
               (Printf.sprintf "%d must be >= stopping.min_samples (%d)" s.max_samples
                  s.min_samples)))

(* Metric members.  A member shared by several kinds is declared once;
   its projection reads it from every kind that carries it. *)

let protocol =
  Json.(
    req "protocol"
      (where
         (fun p -> Option.is_some (Registry.find p))
         (fun p ->
           Printf.sprintf "names unknown protocol %S; registered protocols: %s" p
             (String.concat ", " Registry.names))
         string)
      (function
        | Forwards { protocol; _ } | Delivery { protocol; _ } | Structure_size { protocol; _ }
        | Completion_time { protocol; _ } | Mcds_ratio { protocol; _ }
        | Failure_delivery { protocol; _ } | Reconnection_rounds { protocol; _ }
        | Redundancy { protocol; _ } -> protocol
        | _ -> assert false))

let name =
  Json.opt "name" Json.string (function
    | Forwards { name; _ } | Delivery { name; _ } | Structure_size { name; _ }
    | Completion_time { name; _ } | Mcds_ratio { name; _ } | Construction_cost { name; _ }
    | Failure_delivery { name; _ } | Reconnection_rounds { name; _ } | Redundancy { name; _ }
    | Workload_throughput { name } | Workload_maintenance { name } | Workload_staleness { name }
    | Workload_delivery { name } -> name
    | _ -> assert false)

(* A series' override of the scenario-level loss. *)
let loss_override =
  Json.opt "loss" probability (function
    | Forwards { loss; _ } | Delivery { loss; _ } | Failure_delivery { loss; _ } -> loss
    | _ -> assert false)

let clustering =
  Json.enum ~what:"clustering" [ ("lowest-id", Lowest_id); ("highest-degree", Highest_degree) ]

let field what tags proj = Json.req "field" (Json.enum ~what:(what ^ " field") tags) proj

let metric =
  let open Json in
  let lossy tag make = case tag (obj make |> mem protocol |> mem name |> mem loss_override) in
  let of_protocol tag make = case tag (obj make |> mem protocol |> mem name) in
  let named tag make = case tag (obj make |> mem name) in
  let forwards = lossy "forwards" (fun protocol name loss -> Forwards { protocol; name; loss }) in
  let delivery = lossy "delivery" (fun protocol name loss -> Delivery { protocol; name; loss }) in
  let structure_size =
    case "structure-size"
      (obj (fun protocol name clustering -> Structure_size { protocol; name; clustering })
      |> mem protocol |> mem name
      |> mem
           (opt "clustering" clustering (function
             | Structure_size r -> r.clustering
             | _ -> assert false)))
  in
  let completion_time =
    of_protocol "completion-time" (fun protocol name -> Completion_time { protocol; name })
  in
  let cluster_count =
    case "cluster-count"
      (obj (fun clustering -> Cluster_count { clustering })
      |> mem
           (omit "clustering" clustering Lowest_id (function
             | Cluster_count r -> r.clustering
             | _ -> assert false)))
  in
  let realized_degree = case "realized-degree" (obj Realized_degree) in
  let mcds_size = case "mcds-size" (obj Mcds_size) in
  let mcds_ratio = of_protocol "mcds-ratio" (fun protocol name -> Mcds_ratio { protocol; name }) in
  let construction_cost =
    case "construction-cost"
      (obj (fun field name -> Construction_cost { field; name })
      |> mem
           (field "construction-cost" cost_fields (function
             | Construction_cost r -> r.field
             | _ -> assert false))
      |> mem name)
  in
  let failure_delivery =
    lossy "failure-delivery" (fun protocol name loss -> Failure_delivery { protocol; name; loss })
  in
  let reconnection_rounds =
    of_protocol "reconnection-rounds" (fun protocol name -> Reconnection_rounds { protocol; name })
  in
  let redundancy = of_protocol "redundancy" (fun protocol name -> Redundancy { protocol; name }) in
  let throughput = named "workload-throughput" (fun name -> Workload_throughput { name }) in
  let maintenance = named "workload-maintenance" (fun name -> Workload_maintenance { name }) in
  let staleness = named "workload-staleness" (fun name -> Workload_staleness { name }) in
  let churn_delivery = named "workload-delivery" (fun name -> Workload_delivery { name }) in
  let reliable =
    case "reliable-broadcast"
      (obj (fun field loss -> Reliable_broadcast { field; loss })
      |> mem
           (field "reliable-broadcast" reliable_fields (function
             | Reliable_broadcast r -> r.field
             | _ -> assert false))
      |> mem (req "loss" probability (function Reliable_broadcast r -> r.loss | _ -> assert false)))
  in
  let toroidal =
    case "toroidal"
      (obj (fun field -> Toroidal { field })
      |> mem
           (field "toroidal" toroidal_fields (function Toroidal r -> r.field | _ -> assert false)))
  in
  let motion =
    case "motion"
      (obj (fun field speed -> Motion { field; speed })
      |> mem (field "motion" motion_fields (function Motion r -> r.field | _ -> assert false))
      |> mem (req "speed" non_negative (function Motion r -> r.speed | _ -> assert false)))
  in
  variant ~key:"kind" ~what:"metric kind"
    [
      forwards; delivery; structure_size; completion_time; cluster_count; realized_degree;
      mcds_size; mcds_ratio; construction_cost; failure_delivery; reconnection_rounds;
      redundancy; throughput; maintenance; staleness; churn_delivery; reliable; toroidal; motion;
    ]
    (function
      | Forwards _ -> forwards
      | Delivery _ -> delivery
      | Structure_size _ -> structure_size
      | Completion_time _ -> completion_time
      | Cluster_count _ -> cluster_count
      | Realized_degree -> realized_degree
      | Mcds_size -> mcds_size
      | Mcds_ratio _ -> mcds_ratio
      | Construction_cost _ -> construction_cost
      | Failure_delivery _ -> failure_delivery
      | Reconnection_rounds _ -> reconnection_rounds
      | Redundancy _ -> redundancy
      | Workload_throughput _ -> throughput
      | Workload_maintenance _ -> maintenance
      | Workload_staleness _ -> staleness
      | Workload_delivery _ -> churn_delivery
      | Reliable_broadcast _ -> reliable
      | Toroidal _ -> toroidal
      | Motion _ -> motion)

(* Relations between a series and the rest of the scenario: the failure
   and workload series need their scenario-level object, and labels must
   be distinct.  The path is formatted only on failure. *)

let series_fail i msg = Json.fail ~at:(Printf.sprintf "metrics[%d]" i) msg

let rec check_series s i seen = function
  | [] -> ()
  | m :: rest ->
    let label = metric_name m in
    (match (m, s.failures, s.workload) with
    | (Failure_delivery _ | Reconnection_rounds _), None, _ ->
      series_fail i (Printf.sprintf "%S needs the scenario-level \"failures\" event" label)
    | ( ( Workload_throughput _ | Workload_maintenance _ | Workload_staleness _
        | Workload_delivery _ ),
        _,
        None ) ->
      series_fail i (Printf.sprintf "%S needs the scenario-level \"workload\" object" label)
    | _ -> ());
    if List.mem label seen then
      series_fail i
        (Printf.sprintf
           "has a duplicate series label %S; set a distinct \"name\" on one of the colliding \
            metrics"
           label);
    check_series s (i + 1) (label :: seen) rest

let codec =
  Json.(
    obj
      (fun v name description seed domains topology mobility loss failures workload stopping
           metrics ->
        if v < 1 || v > version then
          fail (Printf.sprintf "unsupported version %d (this build reads versions 1-%d)" v version);
        if v < 2 && Option.is_some workload then
          fail
            (Printf.sprintf "\"workload\" requires version 2 (this scenario declares version %d)" v);
        { name; description; seed; domains; topology; mobility; loss; failures; workload; stopping;
          metrics })
    (* The oldest version expressing the scenario: v1 files keep their
       historical bytes, and only a workload pays for the bump. *)
    |> mem (req "version" int (fun s -> if Option.is_some s.workload then version else 1))
    |> mem
         (req "name" (where (fun n -> n <> "") (fun _ -> "must be non-empty") string) (fun s -> s.name))
    |> mem (omit "description" string "" (fun s -> s.description))
    |> mem (req "seed" int (fun s -> s.seed))
    |> mem (dflt "domains" (at_least 1) 1 (fun s -> s.domains))
    |> mem (req "topology" topology (fun s -> s.topology))
    |> mem (opt "mobility" mobility (fun s -> s.mobility))
    |> mem (opt "loss" probability (fun s -> s.loss))
    |> mem (opt "failures" failures (fun s -> s.failures))
    |> mem (opt "workload" workload (fun s -> s.workload))
    |> mem (req "stopping" stopping (fun s -> s.stopping))
    |> mem (req "metrics" (non_empty "series" (list metric)) (fun s -> s.metrics))
    |> seal ~check:(fun s ->
           (match (s.mobility, s.workload) with
           | Some p, Some w
             when not (Workload.advances ~duration:w.Workload.duration p.Metric.dt) ->
             fail ~at:"mobility.dt"
               (num p.Metric.dt ^ " is too small to advance the workload clock within its duration")
           | _ -> ());
           check_series s 0 [] s.metrics))

let in_scenario = function Ok _ as ok -> ok | Error m -> Error ("scenario: " ^ m)

let validate s = in_scenario (Json.validate codec s)

let to_json s = Json.encode codec s

let to_string s = Json.print (to_json s) ^ "\n"

let of_json j = in_scenario (Json.decode codec j)

let of_string text =
  match Json.parse text with
  | Error m -> Error ("scenario: " ^ m)
  | Ok j -> of_json j

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
  (* [validate] requires the object of every failure or workload series. *)
  let spec () = Option.get s.failures and workload () = Option.get s.workload in
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
