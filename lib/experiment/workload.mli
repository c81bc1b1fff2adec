(** The continuous-traffic serving core.

    Every experiment below this module measures one broadcast per
    freshly drawn topology.  A workload instead holds {e one} network
    open and serves a stream: Poisson broadcast arrivals from many
    sources, node join/leave churn, mobility steps and periodic
    incremental backbone maintenance ({!Manet_backbone.Backbone_maintenance})
    interleave on one deterministic clock ({!Manet_sim.Timeline}), over
    one long-lived broadcast environment whose engine arena and
    prepared structure persist across the whole stream
    ({!Manet_broadcast.Protocol.retarget}).

    The backbone the broadcasts forward over is refreshed only at
    maintenance events — between them the structure serves {e stale}
    over the live topology, which is exactly the cost the paper argues
    about (Section 1: "maintaining such a backbone infrastructure in a
    mobile environment is a costly operation") and what the staleness
    and delivery-under-churn series quantify.

    Determinism: the run is a pure function of its seed generator and
    inputs.  Each event stream draws from its own split, so adding
    traffic never perturbs churn (and vice versa), and every arrival
    of a lossy mode broadcasts under a fresh per-arrival split — the
    property the resumable sweep journals rely on.  A loss-free arrival
    draws nothing: its delivery comes from one traversal of the
    backbone ({!Manet_broadcast.Engine.run_si_count}), or from the
    epoch certificate ({!serve}) with no traversal at all. *)

(** The stream's shape.  Rates are events per unit of simulated time. *)
type spec = private {
  arrival_rate : float;  (** Poisson broadcast arrivals per time unit *)
  duration : float;  (** total simulated time served *)
  warmup : float;  (** events before this time run but are not counted *)
  join_rate : float;  (** Poisson node-join events per time unit *)
  leave_rate : float;  (** Poisson node-leave events per time unit *)
  sources : int;
      (** size of the source pool (the first [sources] node ids);
          [0] means every active node may originate traffic *)
  maintenance_every : float;
      (** period of incremental backbone maintenance; [0.] disables it,
          leaving the initial structure to serve ever staler *)
}

val advances : duration:float -> float -> bool
(** [advances ~duration p] holds iff [p] is a finite positive period
    whose steps move the clock on at every time [t <= duration]
    (equivalently [duration +. p > duration]).  A period failing it
    would re-fire at the same instant forever. *)

val make :
  ?warmup:float ->
  ?join_rate:float ->
  ?leave_rate:float ->
  ?sources:int ->
  ?maintenance_every:float ->
  arrival_rate:float ->
  duration:float ->
  unit ->
  spec
(** Defaults: no warmup, no churn, all sources, maintenance every time
    unit.  @raise Invalid_argument on a non-positive [arrival_rate] or
    [duration], a [warmup] outside [\[0, duration)], a negative rate or
    source count, any non-finite value, or a positive
    [maintenance_every] too small to advance the clock
    ([duration +. maintenance_every = duration]), which would re-fire
    at the same instant forever. *)

(** Continuous node motion: the walker advances every [dt] on the
    workload clock (unlike {!Metric.perturbation}'s fixed pre-measurement
    walk), so the topology drifts {e during} the stream. *)
type motion = {
  model : Manet_topology.Mobility.model;
  dt : float;
  speed_min : float;
  speed_max : float;
  pause_time : float;
}

(** What one serving run measured (post-warmup). *)
type stats = {
  broadcasts : int;  (** broadcasts served *)
  skipped : int;  (** arrivals with an empty active source pool *)
  throughput : float;  (** broadcasts per simulated time unit *)
  churn_events : int;  (** join/leave events applied *)
  maintenance_updates : int;
  maintenance_messages : int;
      (** total control transmissions of the incremental maintenance *)
  messages_per_churn : float;  (** maintenance messages per churn event *)
  mean_staleness : float;
      (** mean topology events since the last maintenance, sampled at
          each broadcast — how stale the serving structure runs *)
  delivery : float;  (** mean per-broadcast delivery over active nodes *)
}

(** One serving run's stats and how many of its counted arrivals ran a
    traversal (the SI traversal or, under loss, the reception loop);
    the rest were answered by the epoch certificate ({!serve}).  Kept
    out of {!stats}, which the benchmark's traced replay builds field
    by field. *)
type served = { stats : stats; traversals : int }

(** A maintenance-time snapshot, offered to {!run}'s [on_maintenance]:
    the check layer's hook for comparing the incrementally maintained
    backbone against a from-scratch rebuild on the live graph. *)
type probe = {
  time : float;
  graph : Manet_graph.Graph.t;
  backbone : Manet_backbone.Static_backbone.t;  (** the live, maintained backbone *)
  stale_events : int;  (** topology events folded into this maintenance *)
  snapshots : int;
      (** unit-disk snapshots made so far in the stream, the initial one
          included: a topology event only marks the snapshot stale, and
          the next maintenance or broadcast builds it (with motion off,
          patches the last one after a few joins and leaves) *)
}

(** The serving loop's node index: which nodes are active, with the
    active and the inactive ids each kept in ascending order, so the
    [k]-th of either and the number of active ids below a bound need no
    scan over all nodes.  A join or a leave costs one binary search and
    one shift of the ids between the two positions. *)
module Roster : sig
  type t

  val create : int -> t
  (** [create n]: nodes [0 .. n-1], all active. *)

  val live : t -> int
  (** Number of active nodes. *)

  val is_active : t -> int -> bool

  val nth_active : t -> int -> int
  (** The [k]-th smallest active id, for [0 <= k < live t]. *)

  val nth_inactive : t -> int -> int
  (** The [k]-th smallest inactive id, for [0 <= k < n - live t]. *)

  val active_below : t -> int -> int
  (** [active_below r b] is the number of active ids [< b]. *)

  val leave : t -> int -> unit
  (** [leave r k] deactivates the [k]-th smallest active id. *)

  val join : t -> int -> unit
  (** [join r k] activates the [k]-th smallest inactive id. *)
end

val serve :
  ?mode:Manet_broadcast.Protocol.mode ->
  ?motion:motion ->
  ?on_maintenance:(probe -> unit) ->
  ?skip_maintenance:int ->
  rng:Manet_rng.Rng.t ->
  points:Manet_geom.Point.t array ->
  radius:float ->
  spec:Manet_topology.Spec.t ->
  spec ->
  served
(** Serve one stream over the initial placement [points] (transmission
    range [radius], field dimensions from [spec]).  Broadcasts run under
    [mode] (default perfect) over the members of the maintained 2.5-hop
    backbone — stale between maintenance events by design.  Left nodes are parked
    outside the field (isolated in every snapshot) and rejoin at their
    walker position, so the node count is invariant; delivery counts
    active nodes only.  Whether [mode] is loss-free
    ({!Manet_broadcast.Protocol.loss_free}) is decided once per run: a
    loss-free arrival is counted by {!Manet_broadcast.Engine.run_si_count}
    over the member bytes, any other by the reception loop.

    The epoch certificate.  An epoch is the span between two changes
    of the snapshot or of the member bytes (a new snapshot after a
    topology event, a refill after a maintenance update that ran; a
    maintenance with no topology event since the last update changes
    nothing).  A loss-free traversal
    whose source is a member {e certifies} the epoch when it delivers
    every live node; every later loss-free arrival of the epoch then
    delivers exactly the live count, with no traversal.  Lemma: parked
    nodes are isolated, so the traversal reaches only active nodes, and
    every member it delivers forwards.  Delivering every live node from
    a member therefore reaches every active member through members (so
    they are connected; the forward count is the number of active
    members) and puts a forwarding member next to every live node (so
    they dominate).  A member source then reaches every live node, and
    a non-member source has a member neighbour that does.  A non-member
    source cannot certify: its own transmission may bridge two member
    components that cannot reach each other, although it delivers every
    live node and forwards at every active member.  Lossy arrivals
    never use the certificate.

    [skip_maintenance k] is the seeded fault: the [k]-th maintenance
    event fires but applies no update — the mutant the
    timeline-vs-rebuild oracle must catch.  [on_maintenance] is called
    at every maintenance event (faulted or not), after any update.
    @raise Invalid_argument on fewer than 2 points, a non-positive
    [radius], a [motion] whose [dt] is not positive or too small to
    advance the clock ([duration +. dt = duration]), or a [Lossy] loss
    outside [\[0, 1\]]. *)

val run :
  ?mode:Manet_broadcast.Protocol.mode ->
  ?motion:motion ->
  ?on_maintenance:(probe -> unit) ->
  ?skip_maintenance:int ->
  rng:Manet_rng.Rng.t ->
  points:Manet_geom.Point.t array ->
  radius:float ->
  spec:Manet_topology.Spec.t ->
  spec ->
  stats
(** [(serve ...).stats]. *)

(** {1 Workload series (the scenario layer's metric kinds)}

    All workload metrics of one scenario measure the {e same} serving
    run: the first one evaluated on a context runs the stream once,
    seeded by one split of the context's generator, and the rest read
    the memoized stats (domain-local; a sweep evaluates all metrics of
    one sample consecutively on one domain). *)

val throughput : ?motion:motion -> spec -> Metric.t
(** Sustained broadcasts per simulated time unit — ["throughput"]. *)

val maintenance_per_churn : ?motion:motion -> spec -> Metric.t
(** Maintenance control messages per churn event — ["maint/churn"]. *)

val staleness : ?motion:motion -> spec -> Metric.t
(** Mean backbone staleness sampled at arrivals — ["staleness"]. *)

val churn_delivery : ?motion:motion -> spec -> Metric.t
(** Mean delivery ratio over active nodes — ["churn-delivery"]. *)
