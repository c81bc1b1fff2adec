(** First-class broadcast protocols.

    The paper's evaluation is a head-to-head comparison of broadcast
    schemes, and every consumer of those schemes — the experiment
    metrics, the figures, the CLI, the examples, the failure-injection
    sweeps — needs to run {e any} protocol through the {e same} motions:
    an optional proactive build phase (the forwarding structure and what
    it cost to construct), then one broadcast per source, under a
    perfect MAC or under per-reception loss, optionally with the
    transmission timeline.

    A {!t} packages exactly that: a stable name, a one-line description,
    a family tag (source-independent / source-dependent / probabilistic),
    and a [prepare] phase returning the {!built} protocol, which
    executes one broadcast two ways: [count] returns only the forward,
    delivery and completion counts, and [run] materializes the
    {!Result.t} and the transmission timeline.  Both read the same
    broadcast, with the same draws, through different epilogues.
    Protocols built from a [decide] predicate (see {!Engine}) run
    {e unchanged} under the perfect and the lossy engine — both modes
    share one event loop ({!Engine.run_core} / {!Engine.run_count}) —
    while protocols with bespoke event loops (the dynamic backbone's
    designation events, the backoff schemes' timers) plug in their
    native loops and fall back to {!frozen_lossy} replay under loss.

    The registry of every protocol in the repository lives one layer up,
    in [Manet_protocols.Registry]; this module only defines the
    abstraction plus {!flooding}, the one protocol expressible with no
    dependency beyond the engine itself. *)

type family =
  | Source_independent
      (** the forward structure does not depend on the source (SI-CDS
          schemes, flooding) *)
  | Source_dependent
      (** forwarding decisions depend on where the packet came from
          (SD-CDS schemes, neighbor-designation schemes) *)
  | Probabilistic
      (** forwarding depends on random backoffs drawn per broadcast *)

val family_tag : family -> string
(** ["SI"], ["SD"] or ["prob"] — the tag used in listings. *)

(** What a protocol may consume, threaded uniformly by every driver:
    the topology, a clustering (forced only by cluster-based schemes),
    a generator (drawn from only by probabilistic schemes and by loss
    injection), the engine arena its broadcasts reuse for scratch
    storage, and the CH_HOP tables of the topology ({!coverage}).

    One environment may serve many protocols: the experiment metrics
    evaluate every series of a sample on one environment, so the
    static and dynamic backbones, MO_CDS, the forwarding tree and the
    k-connected family all read the one CH_HOP1/CH_HOP2 exchange of
    their mode, as the paper's nodes do. *)
type env = {
  mutable graph : Manet_graph.Graph.t;
      (** the live network view; mutable so a long-running workload can
          swap topology snapshots in place (see {!retarget}) while the
          arena and prepared protocols persist across the stream *)
  mutable clustering : Manet_cluster.Clustering.t Lazy.t;
      (** always the clustering {e of [graph]}; {!retarget} replaces it
          together with the graph *)
  mutable rng : Manet_rng.Rng.t;
      (** mutable so a serving loop can install one split generator per
          arrival — adding draws to one broadcast then never perturbs
          the next *)
  arena : Engine.Arena.t;
  mutable down : (time:int -> node:int -> bool) option;
      (** the node-failure schedule ({!Engine.run_core}'s [down]),
          threaded through every broadcast of the uniform pipeline;
          [None] (the default) means no node ever fails.  Mutable
          because failure experiments pick their victims from the
          {e prepared} structure: prepare first, then install the
          schedule, then run. *)
  mutable hop25 : Manet_coverage.Coverage.Cache.t option;
  mutable hop3 : Manet_coverage.Coverage.Cache.t option;
      (** the tables {!coverage} keeps, one per mode; read them only
          through {!coverage}, which checks that they are still those
          of [graph] and [clustering] *)
}

val make_env :
  ?clustering:Manet_cluster.Clustering.t Lazy.t ->
  ?rng:Manet_rng.Rng.t ->
  ?arena:Engine.Arena.t ->
  ?down:(time:int -> node:int -> bool) ->
  Manet_graph.Graph.t ->
  env
(** [clustering] defaults to (lazily) lowest-ID clustering of the graph;
    [rng] defaults to a fresh seed-0 generator; [arena] defaults to the
    calling domain's arena ({!Engine.Arena.get}) — results never depend
    on the choice.  [down] defaults to no failures. *)

val retarget :
  ?graph:Manet_graph.Graph.t ->
  ?clustering:Manet_cluster.Clustering.t Lazy.t ->
  ?rng:Manet_rng.Rng.t ->
  env ->
  unit
(** The live-view entry point: point an existing environment at a new
    topology snapshot (and/or generator) {e in place}, keeping its arena
    — the generation-tagged scratch and event calendar keep
    serving the stream, growing monotonically to the largest graph seen.
    Passing [graph] without [clustering] re-derives the default (lazy
    lowest-ID) clustering of the new graph, so the pair can never fall
    out of step; protocols prepared against the old snapshot are the
    caller's to invalidate (a {e stale} structure over a {e live} view
    is the continuous-traffic measurement, not a bug). *)

val coverage : env -> Manet_coverage.Coverage.mode -> Manet_coverage.Coverage.Cache.t
(** [coverage env mode] is the CH_HOP cache of the environment's graph
    and (forced) clustering in [mode], built on the first call and kept
    in [env] after it, so every protocol prepared on [env] shares one
    table per mode.  A kept table is returned only while its graph and
    clustering are {e physically} the environment's current ones: after
    {!retarget}, or on an [{ env with clustering = ... }] copy, the next
    call builds a fresh table (and keeps it in that record), so a stale
    table is never read and nothing needs invalidating. *)

(** How one broadcast is executed. *)
type mode =
  | Perfect  (** every transmission is received (the paper's MAC model) *)
  | Lossy of float
      (** each reception independently dropped with this probability,
          drawn from the environment's rng in processing order *)

(** A prepared protocol: the outcome of the build phase. *)
type built = {
  members : Manet_graph.Nodeset.t option;
      (** the materialized forwarding structure (the CDS) for
          source-independent schemes with a build phase; [None] when the
          structure is per-source or implicit *)
  run : source:int -> mode:mode -> Result.t * (int * int) list;
      (** one broadcast; the second component is the transmission
          timeline as [(time, node)] pairs in transmission order.  For
          the callers that read more than counts: the CLI, the oracles,
          the failure metrics and the examples *)
  count : source:int -> mode:mode -> Engine.counts;
      (** the same broadcast as [run] — same [decide] calls, same draws
          from [env.rng], so the generator ends in the same state — read
          through a count-only epilogue: its counts equal
          {!Result.forward_count}, {!Result.delivered_count} and
          [completion_time] of [run]'s result, and nothing O(n) is built
          (the frozen replay under loss or failures still materializes
          its clean native run).  {!si} schemes and {!flooding} count a
          {!loss_free} broadcast with {!Engine.run_si_count}'s
          traversal, which draws nothing, as the loop would not.  The
          sweep metrics' entry point *)
}

type t = {
  name : string;  (** stable registry key, e.g. ["dynamic-2.5hop"] *)
  description : string;  (** one line, shown by [manet protocols] *)
  family : family;
  has_build : bool;
      (** whether [prepare] performs a proactive construction phase
          (building a CDS, precomputing MPR sets) as opposed to only
          closing over the environment *)
  prepare : env -> built;
}

(** {1 Constructors} *)

val si :
  name:string ->
  description:string ->
  build:(env -> Manet_graph.Nodeset.t) ->
  t
(** A source-independent CDS scheme: [build] constructs the forwarding
    set once; each broadcast is the SI-CDS rule (members forward their
    first copy).  [run] goes through the uniform decide pipeline.
    [count] takes {!Engine.run_si_count}'s traversal over the members'
    byte indicator when {!loss_free} holds, and {!Engine.run_count}
    otherwise: with no drop and no failure, a member forwards at its
    first reception whatever the copy, so the traversal's counts are
    the reception loop's, while a loss draw or a failure query is tied
    to each reception and needs the loop's order. *)

val with_build : name:string -> description:string -> family:family -> (env -> built) -> t
(** A protocol with a proactive build phase that is not a plain SI-CDS
    (e.g. MPR's per-node relay sets, whose [built] is {!of_pipeline}'s). *)

val of_pipeline :
  env ->
  members:Manet_graph.Nodeset.t option ->
  (source:int -> node:int -> from:int -> bool) ->
  built
(** The [built] of a decide protocol: for each broadcast, [pipeline
    ~source] is the [decide] predicate, run as {!run_decide} describes
    ([run]) or counted through {!Engine.run_count} ([count]: the same
    draws and [decide] calls, nothing O(n) built).  A protocol that
    reads the sender's packet keeps it in the state [pipeline] closes
    over, indexed by sender. *)

val per_broadcast :
  name:string ->
  description:string ->
  family:family ->
  (env -> source:int -> node:int -> from:int -> bool) ->
  t
(** A decide protocol with no proactive phase: its [built] is
    [of_pipeline env ~members:None (pipeline env)]. *)

val native :
  name:string ->
  description:string ->
  family:family ->
  run:(env -> source:int -> Result.t * (int * int) list) ->
  count:(env -> source:int -> Engine.counts) ->
  t
(** A protocol with a bespoke event loop and no proactive phase: [run]
    and [count] are one loss-free broadcast of the loop read through
    {!Engine.Scratch.finish} and {!Engine.Scratch.count}; the prepared
    protocol is {!frozen_lossy}'s. *)

(** {1 Execution helpers (the uniform pipeline)} *)

val run_decide :
  env ->
  source:int ->
  mode:mode ->
  initial:unit ->
  decide:(node:int -> from:int -> payload:unit -> unit option) ->
  Result.t * (int * int) list
(** One broadcast of the uniform pipeline, {!of_pipeline}'s [run], with
    a [decide] in the engine's former packet shape ([Some ()] is
    [true]).  [Perfect] is exactly {!Engine.run_core} with no drops;
    [Lossy loss] drops each reception with probability [loss], drawn
    from [env.rng] once per reception in (time, receiver, sender)
    processing order ([Lossy 0.] draws nothing and equals [Perfect]).
    Either way, the environment's [down] schedule is injected into the
    engine, so node failures reach every decide-style protocol under
    both engines through this one funnel.  The unit [initial] and
    [payload] remain only because the traced replay compiles against
    this shape; they go when ROADMAP item 1 deletes [replay.ml].
    @raise Invalid_argument if a [Lossy] loss is outside [\[0, 1\]]
    (NaN included) or [source] is out of range. *)

val loss_free : env -> mode -> bool
(** No reception of a broadcast in [mode] on [env] can drop and no node
    can fail: [mode] is [Perfect] or [Lossy 0.] (which draws nothing)
    and [env.down] is [None].  Exactly when a source-independent
    broadcast's counts may come from {!Engine.run_si_count}.
    @raise Invalid_argument if a [Lossy] loss is outside [\[0, 1\]]. *)

val frozen_lossy :
  env ->
  run:(source:int -> Result.t * (int * int) list) ->
  count:(source:int -> Engine.counts) ->
  built
(** The [built] of a protocol whose native event loop has no loss or
    failure semantics (the dynamic backbone's designation signals, the
    backoff schemes' timers), given its native [run] and [count].
    Under [Perfect] or [Lossy 0.] with no [down] schedule, a broadcast
    is just the native [run] or [count]; otherwise both freeze the
    forward set from a clean native [run], then replay it as an SI-CDS
    broadcast through {!Engine.run_core} or {!Engine.run_count} — the
    designations are decided loss- and failure-free, only the data
    propagation is unreliable.  This is the sparsest-case treatment the
    lossy-links experiment has always used for the dynamic backbone,
    extended to node failures.  [members] is [None]. *)

(** {1 The engine's own protocol} *)

val flooding : t
(** Blind flooding — every node forwards its first copy.  Defined here
    (rather than in [Manet_baselines]) because it needs nothing beyond
    the engine; [Manet_baselines.Flooding] re-exports it.  Its [count]
    is {!si}'s with every node a member: {!Engine.run_si_count} with
    [~member:None] when {!loss_free} holds. *)
