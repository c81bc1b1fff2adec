(** The measured quantities, one per series in the paper's figures and
    the extension experiments — and the experimental unit they are
    measured on.

    A {!ctx} is one experimental unit: a connected random topology (or a
    mobility-perturbed snapshot of one), its lowest-ID clustering, and a
    uniformly chosen broadcast source.  Every algorithm under comparison
    is evaluated on the {e same} context, mirroring how the paper
    compares algorithms and sharply reducing comparison variance.

    A metric maps a {!ctx} to a number; {!Sweep} averages it over
    contexts under the paper's confidence-interval stopping rule.

    Every broadcast measurement is registry-driven: a metric names a
    protocol from {!Manet_protocols.Registry} and the generic
    constructors below run it through the uniform
    {!Manet_broadcast.Protocol} pipeline — so any newly registered
    protocol immediately gains forward-count, delivery-ratio and
    loss-sweep series with no new code here. *)

type ctx = {
  graph : Manet_graph.Graph.t;
  clustering : Manet_cluster.Clustering.t;
  source : int;
  rng : Manet_rng.Rng.t;
      (** per-sample generator for randomized protocols (backoffs, loss);
          split from the draw generator so metrics cannot perturb the
          topology stream *)
  points : Manet_geom.Point.t array;
      (** the node positions the graph was snapshotted from (post-walk
          under a mobility perturbation) — the geometric seed a workload
          run continues moving from *)
  radius : float;  (** the unit-disk transmission radius of [graph] *)
  spec : Manet_topology.Spec.t;
      (** the structural point this unit was drawn at (field dimensions,
          n, target degree) — what a continuous-traffic run needs to keep
          generating geometry *)
}

(** A mobility regime applied between placement and measurement: the
    initial connected placement walks [steps] steps of [dt] under the
    given model before the unit-disk snapshot is taken — the snapshot
    (possibly disconnected) is what the context's metrics see.  This is
    the scenario layer's mobility axis (adaptive-broadcast-period-style
    workloads) and costs nothing when absent. *)
type perturbation = {
  model : Manet_topology.Mobility.model;
  steps : int;
  dt : float;
  speed_min : float;
  speed_max : float;
  pause_time : float;
}

val draw : ?perturb:perturbation -> Manet_rng.Rng.t -> Manet_topology.Spec.t -> ctx
(** Draw a fresh connected topology (rejection sampling per the paper),
    optionally walk it under [perturb], cluster the result, and pick a
    uniform source.  Without [perturb] the generator consumption is
    identical to the historical [Context.draw], so seeded streams are
    unchanged. *)

type t = { name : string; eval : ctx -> float }

val env_of : ctx -> Manet_broadcast.Protocol.env
(** The context as a protocol environment: its topology, its
    clustering and its per-sample generator.  One environment per
    context: every call with the physically same context returns the
    same environment, held in the calling domain's per-sample store, so
    all series of a sample share its CH_HOP tables
    ({!Manet_broadcast.Protocol.coverage}).  The store holds one context
    at a time; evaluating a metric on another context replaces it, and
    {!clear_sample} empties it. *)

val clear_sample : unit -> unit
(** Empty the calling domain's per-sample store: the environment of
    {!env_of} and every {!per_sample} value.  {!Sweep.run_point} calls it
    after each sample's row, so no sample's tables outlive its row. *)

(** {1 Registry-driven series} *)

val forwards : ?name:string -> ?loss:float -> string -> t
(** [forwards proto] is the forward-node count of one broadcast of the
    registered protocol [proto] from the context's source — the paper's
    key metric (Figures 7 and 8).  [name] defaults to [proto]; with
    [loss], the broadcast runs under the failure-injection engine. *)

val delivery : ?name:string -> ?loss:float -> string -> t
(** [delivery proto] is the delivery ratio of one broadcast; with
    [loss], the broadcast runs under the failure-injection engine with
    that per-reception loss probability (drawn from the context's rng). *)

val structure_size : ?name:string -> ?clustering:(Manet_graph.Graph.t -> Manet_cluster.Clustering.t) -> string -> t
(** [structure_size proto] is the size of the protocol's materialized
    forwarding structure (the CDS) — the quantity of the paper's
    Figure 6.  [clustering] overrides the context's lowest-ID clustering
    (the ext-clustering ablation).
    @raise Invalid_argument at evaluation if the protocol builds no
    materialized structure. *)

val completion_time : ?name:string -> string -> t
(** Hop-time of the last delivery of one broadcast. *)

(** {1 Failure injection (the resilience axis)} *)

(** One failure event per sample: [kill] victims drawn uniformly
    (without replacement, from the context's rng) go down at time
    [round] and stay down — or come back at [heal] (partition-and-heal).
    With [backbone_only] the victims come from the protocol's prepared
    structure (its materialized members, or the forward set of a clean
    run for source-dependent schemes); otherwise any non-source node.
    The source is never a victim: failing it is indistinguishable from
    not broadcasting. *)
type failure_spec = { kill : int; round : int; heal : int option; backbone_only : bool }

val failure_delivery : ?name:string -> ?loss:float -> spec:failure_spec -> string -> t
(** Post-failure delivery ratio: one broadcast with the failure schedule
    installed, on an environment of its own (the schedule must not reach
    the sample's shared one), counted over the nodes alive at the end (victims are
    excluded unless healed — a healed node that missed the broadcast
    counts against delivery).  [name] defaults to [proto ^ "/fail"];
    [loss] layers per-reception loss on top of the failures. *)

val reconnection_rounds : ?name:string -> spec:failure_spec -> string -> t
(** How many rounds past the kill the broadcast kept propagating:
    [max 0 (completion_time - round)] of a perfect-mode broadcast under
    the failure schedule.  Zero means the failure ended the broadcast
    (or it was already over).  [name] defaults to
    [proto ^ "/reconnect"]. *)

val redundancy : ?name:string -> string -> t
(** Redundant-coverage factor of the materialized structure: mean
    number of backbone neighbors over non-backbone nodes (>= m for a
    sound m-dominating backbone on degree-rich graphs); [0.] when the
    structure swallows the whole graph.  [name] defaults to
    [proto ^ "/redund"].
    @raise Invalid_argument at evaluation if the protocol builds no
    materialized structure. *)

(** {1 Diagnostics (not protocol-driven)} *)

val cluster_count : t
(** Number of clusters (clusterheads) — a component of every CDS above. *)

val cluster_count_highest_degree : t

val realized_degree : t
(** Realized average degree of the generated topology (to confirm the
    radius formula hits the paper's d targets). *)

(** {1 Shared per-sample computations} *)

val per_sample : unit -> ctx -> 'k -> (unit -> 'v) -> 'v
(** [let memo = per_sample ()] makes a cache for one computation that
    several series of a sample read: [memo ctx key compute] runs
    [compute] on the first call for this context and [key], and returns
    the stored value afterwards.  Values live in the per-sample store of
    {!env_of}: domain-local, one context at a time, keyed on its
    physical identity — sound because a sweep evaluates all metrics of
    one sample consecutively on one domain — and emptied by
    {!clear_sample}. *)

(** {1 Extension probes}

    Each probe runs one computation per sample that several series read
    — every field of one ack/retransmit run, or of one mobility walk —
    through {!per_sample}.  [name] is the series label. *)

(** What one reliable broadcast costs: Pagani-Rossi ack/retransmit over
    the forwarding tree rooted at the source's clusterhead (non-members
    answer to their clusterhead), then an oracle that repeats whole
    lossy floods (at most 50) until every node has the packet. *)
type reliable_field =
  | Tree_data  (** data transmissions of the tree *)
  | Tree_acks  (** acknowledgement transmissions *)
  | Tree_complete  (** 1 if every node delivered and acked in time, else 0 *)
  | Oracle_flood  (** transmissions of the repeated-flood oracle *)

val reliable_broadcast : name:string -> loss:float -> reliable_field -> t
(** One reliable broadcast from the context's source under
    per-reception [loss]. *)

(** The context's placement under the toroidal (wrap-around) metric —
    the border-effect diagnostic beside {!realized_degree} and the
    static backbone's {!structure_size}. *)
type toroidal_field =
  | Torus_degree  (** realized average degree *)
  | Torus_backbone  (** static 2.5-hop backbone size *)

val toroidal : name:string -> toroidal_field -> t

(** The context's placement under random-waypoint motion at one speed.
    The first four fields read one {e upkeep} walk — 30 steps of
    dt = 1, the static backbone maintained incrementally at each step
    ({!Manet_backbone.Backbone_maintenance}) — as per-step means; the
    last three read one {e lifetime} walk — steps of dt = 0.5 up to
    t = 100 — with a delivery probe on the topology reached at t = 5. *)
type motion_field =
  | Cluster_msgs  (** cluster role-change messages per step *)
  | Head_churn  (** clusterhead changes per step *)
  | Backbone_msgs  (** full backbone upkeep messages per step *)
  | Gateways
      (** gateways an on-demand dynamic broadcast selects, averaged over
          the connected snapshots (0 when none is) *)
  | Valid_time  (** time until the backbone built at t = 0 stops being a CDS *)
  | Stale_delivery  (** delivery over that frozen backbone at the probe *)
  | Dynamic_delivery  (** delivery of an on-demand dynamic broadcast at the probe *)

val motion : name:string -> speed:float -> motion_field -> t
