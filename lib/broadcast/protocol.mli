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
    and a [prepare] phase returning the {!built} protocol whose [run]
    executes one broadcast.  Protocols built from a [decide] callback
    (see {!Engine}) run {e unchanged} under the perfect and the lossy
    engine — both modes share one event loop ({!Engine.run_core}) and
    always return the timeline — while protocols
    with bespoke event loops (the dynamic backbone's designation events,
    the backoff schemes' timers) plug in their native runs and fall back
    to {!frozen_lossy} replay under loss.

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
    injection), and the engine arena its broadcasts reuse for scratch
    storage. *)
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
    — the generation-tagged scratch, heap storage and flatset pool keep
    serving the stream, growing monotonically to the largest graph seen.
    Passing [graph] without [clustering] re-derives the default (lazy
    lowest-ID) clustering of the new graph, so the pair can never fall
    out of step; protocols prepared against the old snapshot are the
    caller's to invalidate (a {e stale} structure over a {e live} view
    is the continuous-traffic measurement, not a bug). *)

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
          timeline as [(time, node)] pairs in transmission order *)
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
    first copy) through the uniform decide pipeline. *)

val with_build : name:string -> description:string -> family:family -> (env -> built) -> t
(** A protocol with a proactive build phase that is not a plain SI-CDS
    (e.g. MPR's per-node relay sets). *)

val per_broadcast :
  name:string ->
  description:string ->
  family:family ->
  (env -> source:int -> mode:mode -> Result.t * (int * int) list) ->
  t
(** A protocol with no proactive phase: all work happens per broadcast. *)

val per_broadcast_prepared :
  name:string ->
  description:string ->
  family:family ->
  (env -> source:int -> mode:mode -> Result.t * (int * int) list) ->
  t
(** Like {!per_broadcast}, but the protocol sees the environment once,
    at prepare time, and returns the per-broadcast closure — the hook
    for caching environment-derived state (e.g. the dynamic backbone's
    CH_HOP tables) across the broadcasts of one prepared instance.
    Still [has_build = false]: preparing must not do significant
    construction work eagerly. *)

(** {1 Execution helpers (the uniform pipeline)} *)

val run_decide :
  env ->
  source:int ->
  mode:mode ->
  initial:'a ->
  decide:(node:int -> from:int -> payload:'a -> 'a option) ->
  Result.t * (int * int) list
(** The uniform per-broadcast pipeline: execute an {!Engine}-style
    [decide] protocol under the requested mode.  [Perfect] is exactly
    {!Engine.run_core} with no drops; [Lossy loss] drops each reception
    with probability [loss], drawn from [env.rng] once per reception in
    (time, receiver, sender) processing order ([Lossy 0.] draws
    nothing and equals [Perfect]).  Either way, the environment's
    [down] schedule is injected into the engine, so node failures reach
    every decide-style protocol under both engines through this one
    funnel.
    @raise Invalid_argument if a [Lossy] loss is outside [\[0, 1\]]
    (NaN included) or [source] is out of range. *)

val frozen_lossy :
  env ->
  run:(source:int -> Result.t * (int * int) list) ->
  source:int ->
  mode:mode ->
  Result.t * (int * int) list
(** For protocols whose native event loop has no loss or failure
    semantics (the dynamic backbone's designation signals, the backoff
    schemes' timers): under [Perfect] or [Lossy 0.] with no [down]
    schedule, just [run]; otherwise freeze the forward set from a
    clean native [run], then replay it as an SI-CDS broadcast through
    the uniform pipeline — the designations are decided loss- and
    failure-free, only the data propagation is unreliable.  This is
    the sparsest-case treatment the lossy-links experiment has always
    used for the dynamic backbone, extended to node failures. *)

(** {1 The engine's own protocol} *)

val flooding : t
(** Blind flooding — every node forwards its first copy.  Defined here
    (rather than in [Manet_baselines]) because it needs nothing beyond
    the engine; [Manet_baselines.Flooding] re-exports it. *)
