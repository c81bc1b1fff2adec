(** Declarative experiment scenarios.

    A scenario is the experiment layer's unit of {e data}: everything a
    sweep needs — the topology grid (sizes, target degrees, working
    space), an optional mobility regime and loss model, the metric
    series (protocol names resolved through
    {!Manet_protocols.Registry}), the paper's stopping rule, the seed
    and the domain count — as one value with a versioned JSON codec.
    Every builtin figure ({!Figures.builtins}) is such a value; [manet
    run] executes arbitrary scenario files; and new workloads (mobility
    grids, loss grids, any registered protocol) are plain JSON edits,
    not code.

    The codec ({!codec}) declares each field once; encoding, strict
    decoding and {!validate} all walk that declaration.  Unknown or
    repeated fields, unknown protocols, malformed grids, non-finite and
    out-of-range parameters are rejected at parse time with messages
    naming the offending field by its path — a scenario that parses
    runs. *)

(** Which clustering election feeds cluster-based series. *)
type clustering = Lowest_id | Highest_degree

(** One column of {!Manet_backbone.Construction_cost} (the ext-msgs
    figure); [Total_per_hello] is total messages normalized by the hello
    count (= n), the paper's O(n) check. *)
type cost_field = Hello | Clustering_msgs | Ch_hop | Gateway | Total | Total_per_hello

(** One metric series.  [name] overrides the rendered column label
    (default: the protocol name, or the diagnostic's fixed label);
    [loss] overrides the scenario-level loss model for that series. *)
type metric =
  | Forwards of { protocol : string; name : string option; loss : float option }
  | Delivery of { protocol : string; name : string option; loss : float option }
  | Structure_size of { protocol : string; name : string option; clustering : clustering option }
  | Completion_time of { protocol : string; name : string option }
  | Cluster_count of { clustering : clustering }
  | Realized_degree
  | Mcds_size  (** exact minimum CDS size (small n only — exponential) *)
  | Mcds_ratio of { protocol : string; name : string option }
      (** the protocol's structure size over the exact MCDS size *)
  | Construction_cost of { field : cost_field; name : string option }
  | Failure_delivery of { protocol : string; name : string option; loss : float option }
      (** post-failure delivery ratio under the scenario's [failures]
          event (requires one) *)
  | Reconnection_rounds of { protocol : string; name : string option }
      (** rounds the broadcast kept propagating past the kill
          (requires a [failures] event) *)
  | Redundancy of { protocol : string; name : string option }
      (** redundant-coverage factor: mean backbone neighbors over
          non-backbone nodes (structural; no failure event needed) *)
  | Workload_throughput of { name : string option }
      (** sustained broadcasts per simulated time unit of the scenario's
          continuous-traffic stream (requires a [workload] object, like
          every workload series; all of them measure one shared serving
          run per sample — see {!Workload}) *)
  | Workload_maintenance of { name : string option }
      (** incremental-maintenance control messages per churn event *)
  | Workload_staleness of { name : string option }
      (** mean topology events since the last backbone maintenance,
          sampled at each broadcast of the stream *)
  | Workload_delivery of { name : string option }
      (** mean delivery ratio over active nodes under churn *)
  | Reliable_broadcast of { field : Metric.reliable_field; loss : float }
      (** one ack/retransmit reliable broadcast under its own [loss] (the
          scenario-level loss does not apply); labelled
          ["<field>@<loss>"], e.g. ["tree-data@0.1"] *)
  | Toroidal of { field : Metric.toroidal_field }
      (** the placement under the wrap-around metric; labelled
          ["toroidal-degree"] or ["toroidal-backbone"] *)
  | Motion of { field : Metric.motion_field; speed : float }
      (** one random-waypoint walk at [speed] (>= 0); labelled
          ["<field>@<speed>"], e.g. ["valid-time@2"] *)

type topology = {
  ns : int list;  (** network sizes, one sweep point each *)
  degrees : float list;  (** target average degrees, one table each *)
  width : float;
  height : float;
}

type stopping = { min_samples : int; max_samples : int; rel_precision : float }
(** Section 4's stopping rule: repeat until the 99% CI of every metric
    is within [rel_precision] of its mean, within the sample bounds. *)

type t = {
  name : string;
  description : string;
  seed : int;
  domains : int;  (** parallel evaluation domains; excluded from the
                      resume fingerprint (results are domain-invariant) *)
  topology : topology;
  mobility : Metric.perturbation option;
  loss : float option;  (** default per-reception loss for every
                            protocol series (each may override) *)
  failures : Metric.failure_spec option;
      (** the failure event injected by the failure metrics: kill count,
          kill round, optional heal round, victim scope (backbone or any
          node).  Victims are redrawn per sample from the context's
          generator. *)
  workload : Workload.spec option;
      (** the continuous-traffic stream served by the workload metrics
          (v2): Poisson arrivals, join/leave churn and periodic backbone
          maintenance over one long-lived network view per sample.  The
          scenario's [mobility] regime doubles as the stream's
          continuous motion (the walker advances every [dt] on the
          stream clock; [steps] governs only plain metrics). *)
  stopping : stopping;
  metrics : metric list;
}

val version : int
(** The newest codec version this build reads (2).  {!to_json} emits the
    oldest version expressing the scenario — 1 unless the v2 [workload]
    object is present — so pre-workload files and journals keep their
    exact bytes. *)

(** {1 Grids and configs} *)

val paper_ns : int list
(** The paper's size grid, 20..100 in steps of 10. *)

val default_stopping : stopping
(** min 30, max 500, ±5% — the paper's full-precision rule. *)

val quick_stopping : stopping
(** min 5, max 8, ±50% — the smoke-run rule of [--quick]. *)

val make :
  ?description:string ->
  ?seed:int ->
  ?domains:int ->
  ?ns:int list ->
  ?width:float ->
  ?height:float ->
  ?mobility:Metric.perturbation ->
  ?loss:float ->
  ?failures:Metric.failure_spec ->
  ?workload:Workload.spec ->
  ?stopping:stopping ->
  name:string ->
  degrees:float list ->
  metric list ->
  t
(** Programmatic construction with the paper's defaults: seed 42,
    1 domain, {!paper_ns}, the 100x100 working space, no mobility, no
    loss, no failures, {!default_stopping}.  The result is {e not}
    validated — run it through {!validate} (the runner does). *)

val quicken : t -> t
(** The [--quick] transform: seed 7, {!quick_stopping}, and the
    three-point size grid [20; 60; 100] whenever the scenario uses
    {!paper_ns} (bespoke grids — e.g. ext-approx's small-n grid — are
    kept), plus a workload duration clamped to 25 time units (warmup to
    2).  Mirrors the historical quick figure configs exactly. *)

(** {1 Validation and compilation} *)

val metric_name : metric -> string
(** The rendered series label (the CSV/JSON column name). *)

val label_at : string -> float -> string
(** [label_at series x] is ["<series>@<x>"], the label of one value of
    a second axis spread over the columns (["flooding@0.3"]). *)

val validate : t -> (unit, string) result
(** The range checks {!of_json} applies, on a scenario built in OCaml:
    non-empty grids with n >= 2 and finite positive degrees, a finite
    positive working space, a sane stopping rule, losses in [0, 1], a
    finite mobility regime with 0 <= speed_min <= speed_max, a sane
    failure event (kill >= 1, round >= 0, heal after round) present
    whenever a failure series needs one, a [workload] object present
    whenever a workload series needs one, at least one metric, every
    protocol registered, and distinct series labels.  Messages name the
    offending field and, for protocols, list the registered names. *)

val compile : t -> Metric.t list
(** The scenario's series as executable metrics, in order, with the
    scenario-level loss model applied.
    @raise Invalid_argument if {!validate} rejects the scenario. *)

(** {1 Versioned JSON codec} *)

val codec : t Json.codec
(** The scenario document, declared field by field; {!to_json},
    {!of_json} and {!validate} all run it, and a journal header embeds
    it. *)

val to_json : t -> Json.t

val to_string : t -> string
(** Canonical pretty form; [of_string (to_string s) = Ok s]. *)

val of_json : Json.t -> (t, string) result

val of_string : string -> (t, string) result
(** Strict parse: rejects unknown and repeated fields ("scenario:
    duplicate field ..."), a missing or unsupported ["version"], and
    everything {!validate} rejects. *)
