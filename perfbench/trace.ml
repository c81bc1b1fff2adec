(* Per-layer spans recorded from outside the program.

   The benchmark never instruments library code: the traced replay
   ([Replay]) wraps each call it makes into a layer's public function in
   [span], which records the call's monotonic duration and the minor
   words it allocated.  Wrapped calls never nest (every one is a leaf
   call made from benchmark code), so a span's duration is its layer's
   self time, and whatever the replay does between spans is the
   harness.  Recording is one slot per call, kept in memory and reduced
   once the run ends; counts and times are reported per traced rep. *)

type layer =
  | Topology  (** [Generator.sample_connected] *)
  | Unit_disk  (** [Unit_disk.build], [Mobility.graph] *)
  | Maint  (** [Backbone_maintenance.create] and [.update] *)
  | Maint_backbone  (** [Backbone_maintenance.backbone] *)
  | Engine  (** [Protocol.run_decide], a prepared protocol's [run] *)
  | Prepare  (** [Protocol.prepare]: coverage, gateways, CDS build *)
  | Cluster  (** [Lowest_id.cluster] *)
  | Journal  (** [Journal.create], [.append] and [.close] *)
  | Mobility  (** [Mobility.create] and [.step] *)
  | Retarget  (** [Protocol.retarget] and [.make_env] *)

let layers =
  [| Topology; Unit_disk; Maint; Maint_backbone; Engine; Prepare; Cluster; Journal; Mobility; Retarget |]

let index = function
  | Topology -> 0
  | Unit_disk -> 1
  | Maint -> 2
  | Maint_backbone -> 3
  | Engine -> 4
  | Prepare -> 5
  | Cluster -> 6
  | Journal -> 7
  | Mobility -> 8
  | Retarget -> 9

let name = function
  | Topology -> "topology"
  | Unit_disk -> "unit_disk"
  | Maint -> "maint"
  | Maint_backbone -> "maint_backbone"
  | Engine -> "engine"
  | Prepare -> "prepare"
  | Cluster -> "cluster"
  | Journal -> "journal"
  | Mobility -> "mobility"
  | Retarget -> "retarget"

(* Counts taken at the same boundaries, so that each layer's ratio of
   useful outcomes to work is measured where the work happens. *)
type counter =
  | Attempts  (** placements drawn by the topology layer *)
  | Updates  (** maintenance updates applied *)
  | Maint_msgs  (** control messages those updates sent *)
  | Refreshed  (** clusterheads that recomputed coverage and gateways *)
  | Heads  (** clusterheads present at those updates *)
  | Broadcasts  (** broadcasts run by the engine *)
  | Forwards  (** nodes that transmitted in them *)
  | Delivered  (** nodes that received them *)
  | Nodes  (** nodes of the graphs they ran on *)
  | Journal_bytes  (** bytes the journal appends wrote *)
  | Appends  (** journal appends *)
  | Events  (** serving-loop timeline events popped *)

let counter_index = function
  | Attempts -> 0
  | Updates -> 1
  | Maint_msgs -> 2
  | Refreshed -> 3
  | Heads -> 4
  | Broadcasts -> 5
  | Forwards -> 6
  | Delivered -> 7
  | Nodes -> 8
  | Journal_bytes -> 9
  | Appends -> 10
  | Events -> 11

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let n_layers = Array.length layers
let calls = Array.make n_layers 0
let self_ns = Array.make n_layers 0
let words = Array.make n_layers 0.
(* Grown on the first span, so that an untraced run holds no buffers. *)
let durations = Array.make n_layers [||]
let counters = Array.make 12 0.

let reset () =
  Array.fill calls 0 n_layers 0;
  Array.fill self_ns 0 n_layers 0;
  Array.fill words 0 n_layers 0.;
  Array.fill counters 0 (Array.length counters) 0.

let count c v =
  let i = counter_index c in
  counters.(i) <- counters.(i) +. v

let span layer f =
  let i = index layer in
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let r = f () in
  let dt = now_ns () - t0 in
  words.(i) <- words.(i) +. (Gc.minor_words () -. w0);
  let k = calls.(i) in
  if k = Array.length durations.(i) then begin
    let bigger = Array.make (max 1024 (2 * k)) 0 in
    Array.blit durations.(i) 0 bigger 0 k;
    durations.(i) <- bigger
  end;
  durations.(i).(k) <- dt;
  calls.(i) <- k + 1;
  self_ns.(i) <- self_ns.(i) + dt;
  r

(* Nearest-rank quantile of the recorded call durations, in µs. *)
let quantile sorted q =
  let n = Array.length sorted in
  let k = max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)) in
  float_of_int sorted.(k) /. 1e3

(* The tail is the highest of p90, p99 and p99.9 that still has at
   least ten calls beyond it; with fewer than a hundred calls it falls
   back to the median, and with fewer than twenty to the maximum. *)
let tail sorted =
  let n = float_of_int (Array.length sorted) in
  let q =
    match List.find_opt (fun q -> n *. (1. -. q) >= 10.) [ 0.999; 0.99; 0.9; 0.5 ] with
    | Some q -> q
    | None -> 1.
  in
  (q, quantile sorted q)

(* Layers every workload exercises get time-valued metrics; the others
   report their time as a share of the traced wall time, so that no
   metric with a time unit reads a constant zero on a workload that never
   calls the layer. *)
let timed = [ Topology; Cluster; Engine ]

let metrics ~wall_ns ~reps ~traced_median_s ~untraced_median_s ~matched =
  let wall = float_of_int (max wall_ns 1) in
  let per_rep x = x /. float_of_int reps in
  let covered = Array.fold_left ( + ) 0 self_ns in
  let ratio a b = if b = 0. then 0. else a /. b in
  let c x = counters.(counter_index x) in
  let per_layer l =
    let i = index l in
    let k = calls.(i) in
    let base =
      [
        (name l ^ ".calls_per_rep", per_rep (float_of_int k), "count");
        (name l ^ ".share", float_of_int self_ns.(i) /. wall, "fraction");
        (name l ^ ".minor_words_per_call", ratio words.(i) (float_of_int k), "words");
      ]
    in
    if not (List.mem l timed) then base
    else begin
      let sorted = Array.sub durations.(i) 0 k in
      Array.sort compare sorted;
      let p50 = if k = 0 then 0. else quantile sorted 0.5 in
      let q, t = if k = 0 then (0., 0.) else tail sorted in
      base
      @ [
          (name l ^ ".self_s_per_rep", per_rep (float_of_int self_ns.(i) /. 1e9), "s");
          (name l ^ ".p50_us", p50, "us");
          (name l ^ ".tail_us", t, "us");
          (name l ^ ".tail_q", q, "fraction");
        ]
    end
  in
  List.concat_map per_layer (Array.to_list layers)
  @ [
      ("harness.share", float_of_int (wall_ns - covered) /. wall, "fraction");
      ("harness.self_s_per_rep", per_rep (float_of_int (wall_ns - covered) /. 1e9), "s");
      ("timeline.events_per_rep", per_rep (c Events), "count");
      ("topology.attempts_per_sample", ratio (c Attempts) (float_of_int calls.(index Topology)), "ratio");
      ("maint.msgs_per_update", ratio (c Maint_msgs) (c Updates), "msgs");
      ("maint.refreshed_frac", ratio (c Refreshed) (c Heads), "fraction");
      ("engine.forwards_per_bcast", ratio (c Forwards) (c Broadcasts), "nodes");
      ("engine.delivered_frac", ratio (c Delivered) (c Nodes), "fraction");
      ("journal.bytes_per_append", ratio (c Journal_bytes) (c Appends), "bytes");
      ("trace.match", (if matched then 1. else 0.), "bool");
      ("trace.coverage", float_of_int covered /. wall, "fraction");
      ("trace.overhead", (traced_median_s /. untraced_median_s) -. 1., "fraction");
      ("trace.wall_s", traced_median_s, "s");
    ]
