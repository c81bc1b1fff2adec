(** Parameter sweeps under the paper's stopping rule.

    A sweep evaluates a list of metrics at each network size n for a fixed
    average degree d, drawing fresh random connected topologies until the
    99% confidence interval of {e every} metric is within the requested
    fraction of its mean (Section 4's stopping rule), bounded by a sample
    floor and cap.

    Samples are drawn in fixed-size {e chunks}, each from a generator
    split off the point generator up front; the chunk is both the unit
    of parallelism (speculative evaluation on OCaml 5 domains) and the
    unit of resumption (the streaming journal of {!Runner} records one
    entry per evaluated chunk and feeds it back through [cached]). *)

type cell = { summary : Manet_stats.Summary.t; converged : bool }

type point = {
  n : int;
  d : float;
  samples : int;
  cells : (string * cell) list;  (** one per metric, in metric order *)
}

type table = { d : float; metrics : string list; points : point list }

type chunk = float array array
(** One evaluated sample chunk: [rows.(i).(j)] is metric [j] on sample
    [i] of the chunk ({!chunk_size} rows; the last chunk of a point may
    be shorter). *)

val chunk_size : int
(** Samples per chunk (8): chunk [c] of a point holds samples
    [c * chunk_size] to [min ((c + 1) * chunk_size) max_samples - 1]. *)

val run_point :
  ?rel_precision:float ->
  ?min_samples:int ->
  ?max_samples:int ->
  ?domains:int ->
  ?perturb:Metric.perturbation ->
  ?cached:(int -> chunk option) ->
  ?on_chunk:(int -> chunk -> unit) ->
  rng:Manet_rng.Rng.t ->
  spec:Manet_topology.Spec.t ->
  Metric.t list ->
  point
(** The stopping rule is {!Manet_stats.Confidence.precise} at the 99%
    quantile, for every metric, checked before each sample once
    [min_samples] are in.  Defaults: rel_precision = 0.05,
    min_samples = 30, max_samples = 500.  The cap trades exactness of
    the stopping rule for bounded bench runtime; cells report
    [converged] individually.
    @raise Invalid_argument if [min_samples < 2] or
    [max_samples < min_samples].

    [domains] (default 1) evaluates samples in parallel on that many
    OCaml 5 domains.  Samples are drawn in fixed-size chunks from
    generators split off the point generator up front, and the stopping
    rule is applied by a sequential fold over chunks in index order, so
    the result is bit-identical for every domain count — only wall-clock
    time changes.  Chunks evaluated speculatively past the stopping
    sample are discarded.

    All metrics of one sample are evaluated on one domain, in list
    order, on one shared environment ({!Metric.env_of}); the domain's
    per-sample store is emptied ({!Metric.clear_sample}) as soon as the
    sample's row is complete.

    [perturb] walks every drawn topology under the given mobility regime
    before measuring (see {!Metric.perturbation}); omitted, generator
    consumption is unchanged.

    [cached c] (resume) substitutes a previously recorded chunk for its
    evaluation; the generator splits still happen, so the chunks it does
    not cover see exactly the streams of an uninterrupted run, and the
    result is bit-identical however the cache is populated.  [on_chunk]
    observes every {e freshly evaluated} chunk the stopping fold
    consumes — cached chunks are not re-reported — in index order, from
    the calling domain, before the chunk's samples enter the summaries. *)

val run :
  ?rel_precision:float ->
  ?min_samples:int ->
  ?max_samples:int ->
  ?domains:int ->
  ?perturb:Metric.perturbation ->
  ?cached:(point:int -> chunk:int -> chunk option) ->
  ?on_chunk:(point:int -> chunk:int -> chunk -> unit) ->
  ?progress:(point -> unit) ->
  ?width:float ->
  ?height:float ->
  rng:Manet_rng.Rng.t ->
  d:float ->
  ns:int list ->
  Metric.t list ->
  table
(** One point per n (paper: n = 20..100), all at average degree [d] in a
    [width] x [height] working space (default: the paper's 100 x 100).

    Points are evaluated in [ns] order; [domains] is passed to
    {!run_point}, which parallelizes over sample chunks within each
    point (better load balance than one domain per point, since sample
    cost grows steeply with n).  Each point draws from its own pre-split
    generator, so results are bit-identical for every domain count.
    [cached]/[on_chunk] are {!run_point}'s hooks with the point index
    ([ns] position) added — the journal coordinates.  [progress] is
    invoked per finished point, in [ns] order, from the calling domain. *)
