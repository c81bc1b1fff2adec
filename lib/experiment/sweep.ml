module Summary = Manet_stats.Summary
module Confidence = Manet_stats.Confidence

type cell = { summary : Summary.t; converged : bool }

type point = { n : int; d : float; samples : int; cells : (string * cell) list }

type table = { d : float; metrics : string list; points : point list }

type chunk = float array array

(* Samples are evaluated in fixed-size chunks, each fed by its own
   generator split off up front.  Workers race to evaluate chunks
   speculatively; the stopping rule is applied by a single sequential
   fold over chunks in index order, so the outcome is a pure function of
   the point generator — bit-identical for every domain count.  Chunks
   evaluated past the stopping sample are simply discarded.

   The chunk is also the unit of resumption: [cached] substitutes a
   previously journaled chunk for its evaluation (the generator splits
   still happen, so uncached chunks see unchanged streams), and
   [on_chunk] observes every freshly evaluated chunk the stopping fold
   actually consumes, in index order, from the calling domain — the
   streaming journal appends exactly those. *)
let chunk_size = 8

let run_point ?(rel_precision = 0.05) ?(min_samples = 30)
    ?(max_samples = 500) ?(domains = 1) ?perturb ?(cached = fun _ -> None)
    ?(on_chunk = fun _ _ -> ()) ~rng ~spec metrics =
  if min_samples < 2 || max_samples < min_samples then invalid_arg "Sweep.run_point: bad bounds";
  let metric_arr = Array.of_list metrics in
  let n_chunks = (max_samples + chunk_size - 1) / chunk_size in
  let chunk_rngs = Array.init n_chunks (fun _ -> Manet_rng.Rng.split rng) in
  let eval_chunk c =
    match cached c with
    | Some rows -> (rows, false)
    | None ->
      let rng = chunk_rngs.(c) in
      let len = min chunk_size (max_samples - (c * chunk_size)) in
      ( Array.init len (fun _ ->
            let ctx = Metric.draw ?perturb rng spec in
            let row = Array.map (fun (m : Metric.t) -> m.eval ctx) metric_arr in
            Metric.clear_sample ();
            row),
        true )
  in
  let summaries = Array.map (fun _ -> Summary.create ()) metric_arr in
  let precise = Confidence.precise ~z:Confidence.z99 ~rel_precision in
  let samples = ref 0 in
  let continue () =
    !samples < max_samples && not (!samples >= min_samples && Array.for_all precise summaries)
  in
  let add_sample row =
    Array.iteri (fun i v -> Summary.add summaries.(i) v) row;
    incr samples
  in
  (* The sequential fold: consume chunks in order, re-checking the
     stopping rule before each sample exactly as the serial loop did.
     Freshly evaluated chunks are reported before their first sample is
     folded in, so a journal truncated by a crash never misses a chunk
     that contributed to the summaries. *)
  let fold next_chunk =
    let c = ref 0 in
    while continue () && !c < n_chunks do
      let rows, fresh = next_chunk !c in
      if fresh then on_chunk !c rows;
      incr c;
      Array.iter (fun row -> if continue () then add_sample row) rows
    done
  in
  if domains <= 1 then fold eval_chunk
  else begin
    let results = Array.make n_chunks None in
    let lock = Mutex.create () in
    let ready = Condition.create () in
    let next = Atomic.make 0 in
    let stop = Atomic.make false in
    let worker () =
      let rec loop () =
        let c = Atomic.fetch_and_add next 1 in
        if c < n_chunks && not (Atomic.get stop) then begin
          let rows = eval_chunk c in
          Mutex.lock lock;
          results.(c) <- Some rows;
          Condition.broadcast ready;
          Mutex.unlock lock;
          loop ()
        end
      in
      loop ()
    in
    let helpers = List.init (min domains n_chunks) (fun _ -> Domain.spawn worker) in
    let wait_chunk c =
      Mutex.lock lock;
      let rec get () =
        match results.(c) with
        | Some rows ->
          Mutex.unlock lock;
          rows
        | None ->
          Condition.wait ready lock;
          get ()
      in
      get ()
    in
    fold wait_chunk;
    Atomic.set stop true;
    List.iter Domain.join helpers
  end;
  {
    n = spec.Manet_topology.Spec.n;
    d = spec.Manet_topology.Spec.avg_degree;
    samples = !samples;
    cells =
      List.mapi
        (fun i (m : Metric.t) ->
          let s = summaries.(i) in
          (m.name, { summary = s; converged = precise s }))
        metrics;
  }

let run ?rel_precision ?min_samples ?max_samples ?(domains = 1) ?perturb ?cached ?on_chunk
    ?(progress = fun _ -> ()) ?width ?height ~rng ~d ~ns metrics =
  (* Generators are split sequentially up front, one per point; each
     point then parallelizes over its own sample chunks, so neither the
     point schedule nor the domain count perturbs the random streams. *)
  let points =
    List.mapi
      (fun i n ->
        let spec = Manet_topology.Spec.make ?width ?height ~n ~avg_degree:d () in
        let rng = Manet_rng.Rng.split rng in
        let cached = Option.map (fun f c -> f ~point:i ~chunk:c) cached in
        let on_chunk = Option.map (fun f c rows -> f ~point:i ~chunk:c rows) on_chunk in
        let p =
          run_point ?rel_precision ?min_samples ?max_samples ~domains ?perturb ?cached
            ?on_chunk ~rng ~spec metrics
        in
        progress p;
        p)
      ns
  in
  { d; metrics = List.map (fun (m : Metric.t) -> m.name) metrics; points }
