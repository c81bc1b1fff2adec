(** The invariant oracles: executable statements of the paper's claims.

    Each oracle checks one structural property on a {!Case.t} and
    returns a {!verdict}.  Oracles come in two scopes:

    - {e structural} oracles depend only on the case (coverage-set
      correctness, SI/SD forward-set sanity, sweep determinism across
      domain counts) and run once per case;
    - {e per-protocol} oracles run once per (case, protocol) pair
      (domination, backbone connectivity, delivery, determinism, loss
      sanity, arena and instance reuse, count agreement, k-connectivity,
      m-domination,
      failure delivery) over whatever protocol list the runner was given —
      normally the whole registry.

    A [Skip] is not a pass: it records that the property does not apply
    (e.g. a domination check on a protocol with no materialized
    structure), so the runner can report skip counts honestly.

    Evaluation goes through a per-case {!ctx} that memoizes the
    lowest-ID clustering and one prepared {!Manet_broadcast.Protocol.built}
    per protocol, so a catalog of oracles touches each expensive build
    once per case. *)

type verdict =
  | Pass
  | Fail of string  (** the property is violated; the message names the witness *)
  | Skip of string  (** the property does not apply to this case/protocol *)

(** Memoizing evaluation context for one case. *)
type ctx

val context : Case.t -> ctx

val case : ctx -> Case.t

val clustering : ctx -> Manet_cluster.Clustering.t
(** The case's lowest-ID clustering (computed once). *)

val built : ctx -> Manet_broadcast.Protocol.t -> Manet_broadcast.Protocol.built
(** The protocol prepared on the case's graph (memoized by name); the
    environment's generator is derived from the case's replay key. *)

type scope =
  | Structural of (ctx -> verdict)
  | Per_protocol of (ctx -> Manet_broadcast.Protocol.t -> verdict)

type t = {
  name : string;  (** stable key for [--oracle] *)
  description : string;
  check : scope;
}

val all : t list
(** The catalog:
    - [coverage]: 2.5-hop and 3-hop coverage sets match an independent
      BFS reference, connector tables are valid paths, and the shared
      {!Manet_coverage.Coverage.Cache} agrees with per-head recomputation;
    - [si-sd-sanity]: the dynamic forward set contains every clusterhead,
      is itself a CDS (Theorem 2, structural form), and its size does not
      exceed the static backbone's broadcast by more than a small slack;
    - [domains-determinism]: a small {!Manet_experiment.Sweep.run_point}
      is bit-identical on 1 and 2 domains;
    - [timeline-vs-rebuild]: at every maintenance event of a short
      churning {!Manet_experiment.Workload} stream, the incrementally
      maintained live backbone equals a from-scratch
      {!Manet_backbone.Static_backbone.build} over the maintained
      clustering on the live graph;
    - [domination]: a materialized backbone dominates the graph;
    - [backbone-connectivity]: a materialized backbone induces a
      connected subgraph;
    - [delivery]: one perfect-mode broadcast delivers to all nodes
      (protocols with guaranteed delivery) and is self-consistent
      (forwarders delivered, timeline = forward set) for the rest;
    - [determinism]: two preparations from equal generator states give
      bit-identical results and timelines;
    - [loss-sanity]: a lossy broadcast stays self-consistent with a
      delivery ratio in [0, 1];
    - [arena-reuse]: broadcasts are bit-identical on a fresh, the
      domain's, and a dirty reused engine arena, under perfect and lossy
      engines;
    - [instance-reuse]: broadcasts run back to back on one reused
      prepared instance are bit-identical to fresh-arena runs per source;
    - [count-agrees-with-run]: [count] equals the counts of [run] and
      leaves the generator in the same state, under [Perfect], [Lossy
      0.], [Lossy 0.3] and a node-failure schedule;
    - [k-connectivity]: a kmcds backbone (k = 2) stays connected after
      the removal of any single member that is not a cut vertex of the
      graph;
    - [m-domination]: every non-backbone node of a kmcds scheme has
      min(m, degree) backbone neighbors;
    - [failure-delivery]: killing any single backbone node of a k = 2
      scheme (the graph staying connected) still delivers to every
      surviving node promised the packet. *)

val names : string list

val find : string -> t option

val find_exn : string -> t
(** @raise Invalid_argument on an unknown name, listing the known ones. *)

val eval : t -> ctx -> proto:Manet_broadcast.Protocol.t option -> verdict
(** Evaluate one oracle.  A structural oracle ignores [proto]; a
    per-protocol oracle returns [Skip] when [proto] is [None]. *)

val timeline_vs_rebuild : ?skip_maintenance:int -> ctx -> verdict
(** The [timeline-vs-rebuild] check with the workload's seeded fault
    exposed: [skip_maintenance k] serves the same stream but drops the
    [k]-th maintenance update, the mutant this oracle exists to catch.
    Without it this is exactly the catalog entry. *)
