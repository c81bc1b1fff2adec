module Nodeset = Manet_graph.Nodeset
module Coverage = Manet_coverage.Coverage

(* The candidate table is a set of parallel arrays indexed by candidate
   slot; candidates (the first-hop connectors) are collected, deduplicated
   and sorted up front, so a slot lookup is one array read.  Targets are
   referred to by their index in the coverage set's sorted C2/C3 key
   arrays, with liveness flags (marked before the selection runs) and
   per-candidate live cover counts maintained incrementally as targets
   get covered — each greedy round is then a linear scan over the
   candidates instead of a set intersection per candidate.

   A target's connectors are its own key range in the coverage set, read
   in place.  A candidate's covers are one offset range per slot, laid
   out like the coverage set's ranges by a counting sort: the covers are
   counted while the candidates are collected, then scattered once.
   The order within a range decides nothing: a coverage set holds at
   most one pair per first hop per C3 key ({!Coverage.of_sorted}
   enforces it), so a selected candidate pulls in the same second hops
   whichever order it walks its covers in, and the output is sorted at
   the end.

   All working storage lives in a [scratch] (domain-local for the
   per-head entry points, private to a {!select_all} call): stamp-tagged
   node maps (reset is a counter bump), the per-slot ranges and an
   output buffer, each grown (and kept) when a selection's sizing pass
   finds it too small.  Once grown, one selection allocates nothing,
   which is what lets the dynamic broadcast call this once per relaying
   clusterhead without feeding the minor heap. *)

type scratch = {
  mutable stamp : int;
  (* node-indexed maps, grown to the largest id seen *)
  mutable cand_tag : int array;  (** node tagged iff collected as candidate *)
  mutable slotv : int array;  (** candidate slot of a tagged node; its cover counts until then *)
  mutable sel_tag : int array;  (** node tagged iff selected *)
  (* slot-indexed *)
  mutable cands : int array;
  mutable live_direct : int array;
  mutable live_indirect : int array;
  mutable d_off : int array;
      (** slot [s]'s direct covers are [d_i.(d_off.(s) .. d_off.(s + 1) - 1)] *)
  mutable i_off : int array;  (** slot [s]'s indirect covers, in [i_i]/[i_w] likewise *)
  (* c2/c3-key-indexed *)
  mutable live2 : bool array;
  mutable live3 : bool array;
  (* per-slot cover ranges *)
  mutable d_i : int array;  (** c2 key index *)
  mutable i_i : int array;  (** c3 key index *)
  mutable i_w : int array;  (** second hop of the slot's pair for that key *)
  (* selected nodes, in selection order *)
  mutable out : int array;
}

let create_scratch n =
  {
    stamp = 0;
    cand_tag = Array.make n (-1);
    slotv = Array.make n 0;
    sel_tag = Array.make n (-1);
    cands = [||];
    live_direct = [||];
    live_indirect = [||];
    d_off = [||];
    i_off = [||];
    live2 = [||];
    live3 = [||];
    d_i = [||];
    i_i = [||];
    i_w = [||];
    out = [||];
  }

let dls = Domain.DLS.new_key (fun () -> create_scratch 0)

let grown a size init =
  if Array.length a >= size then a
  else begin
    let b = Array.make (max size ((2 * Array.length a) + 8)) init in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let grown_bool a size = if Array.length a >= size then a else Array.make (max size 8) false

(* The kernel's steps that touch only the scratch, as top-level
   functions: a local closure over the counters would box them and be
   allocated on every call. *)

(* A candidate's live covers are counted in [slotv] until the slots are
   assigned: direct ones in the low [count_bits] bits, indirect ones
   above.  A count is at most the number of keys of one coverage set. *)
let count_bits = 31

(* Collects [v] as a candidate (once) and adds [inc] to its cover
   counts; returns the new candidate count. *)
let add_cand scr stamp n v inc =
  if scr.cand_tag.(v) = stamp then begin
    scr.slotv.(v) <- scr.slotv.(v) + inc;
    n
  end
  else begin
    scr.cand_tag.(v) <- stamp;
    scr.slotv.(v) <- inc;
    scr.cands.(n) <- v;
    n + 1
  end

(* Selects [v] (once); returns the new output count. *)
let take scr stamp n v =
  if scr.sel_tag.(v) = stamp then n
  else begin
    scr.sel_tag.(v) <- stamp;
    scr.out.(n) <- v;
    n + 1
  end

(* Covers 2-hop target [i] if it is still live, taking one live direct
   cover from each of its connectors; returns 1 if it was live, else 0. *)
let cover2 scr (cov : Coverage.t) i =
  if scr.live2.(i) then begin
    scr.live2.(i) <- false;
    for j = cov.c2_off.(i) to cov.c2_off.(i + 1) - 1 do
      let s = scr.slotv.(cov.c2_via.(j)) in
      scr.live_direct.(s) <- scr.live_direct.(s) - 1
    done;
    1
  end
  else 0

(* Covers 3-hop target [i], taking one live indirect cover from each of
   its pairs' first hops. *)
let cover3 scr (cov : Coverage.t) i =
  scr.live3.(i) <- false;
  for j = cov.c3_off.(i) to cov.c3_off.(i + 1) - 1 do
    let s = scr.slotv.(cov.c3_v.(j)) in
    scr.live_indirect.(s) <- scr.live_indirect.(s) - 1
  done

(* Sizing pass, once the targets are marked: grows every other table to
   fit the live targets' entries and the largest node id they name. *)
let fit scr (cov : Coverage.t) =
  let { Coverage.c2_keys; c2_off; c2_via; c3_keys; c3_off; c3_v; c3_w; _ } = cov in
  let len2 = Array.length c2_keys and len3 = Array.length c3_keys in
  let max_id = ref (-1) in
  let nd = ref 0 and ni = ref 0 in
  for i = 0 to len2 - 1 do
    if scr.live2.(i) then
      for j = c2_off.(i) to c2_off.(i + 1) - 1 do
        incr nd;
        if c2_via.(j) > !max_id then max_id := c2_via.(j)
      done
  done;
  for i = 0 to len3 - 1 do
    if scr.live3.(i) then
      for j = c3_off.(i) to c3_off.(i + 1) - 1 do
        incr ni;
        if c3_v.(j) > !max_id then max_id := c3_v.(j);
        if c3_w.(j) > !max_id then max_id := c3_w.(j)
      done
  done;
  let nd = !nd and ni = !ni in
  scr.cand_tag <- grown scr.cand_tag (!max_id + 1) (-1);
  scr.slotv <- grown scr.slotv (!max_id + 1) 0;
  scr.sel_tag <- grown scr.sel_tag (!max_id + 1) (-1);
  let cap_cands = nd + ni in
  scr.cands <- grown scr.cands cap_cands 0;
  scr.live_direct <- grown scr.live_direct cap_cands 0;
  scr.live_indirect <- grown scr.live_indirect cap_cands 0;
  scr.d_off <- grown scr.d_off (cap_cands + 1) 0;
  scr.i_off <- grown scr.i_off (cap_cands + 1) 0;
  scr.d_i <- grown scr.d_i nd 0;
  scr.i_i <- grown scr.i_i ni 0;
  scr.i_w <- grown scr.i_w ni 0;
  scr.out <- grown scr.out (cap_cands + ni + (2 * len3)) 0

(* Membership in a strictly increasing row. *)
let mem_row (row : int array) x =
  let n = Array.length row in
  let i = Manet_graph.Row_sort.lower_bound row 0 n x in
  i < n && row.(i) = x

(* Membership in C(u), read in place from the two sorted key arrays of
   u's coverage set ([None]: the empty set). *)
let mem_covered (up : Coverage.t option) c =
  match up with None -> false | Some u -> mem_row u.c2_keys c || mem_row u.c3_keys c

let pruned ~upstream ~upstream_cov ~heard c =
  c <> upstream && (not (mem_covered upstream_cov c)) && not (mem_row heard c)

(* Starts a selection over [cov]: a new generation of the node maps, and
   a target flag per key — set unless the key is [upstream], in
   [upstream_cov]'s coverage set or in the sorted row [heard]. *)
let mark scr (cov : Coverage.t) ~upstream ~upstream_cov ~heard =
  scr.stamp <- scr.stamp + 1;
  scr.live2 <- grown_bool scr.live2 (Array.length cov.c2_keys);
  scr.live3 <- grown_bool scr.live3 (Array.length cov.c3_keys);
  for i = 0 to Array.length cov.c2_keys - 1 do
    scr.live2.(i) <- pruned ~upstream ~upstream_cov ~heard cov.c2_keys.(i)
  done;
  for i = 0 to Array.length cov.c3_keys - 1 do
    scr.live3.(i) <- pruned ~upstream ~upstream_cov ~heard cov.c3_keys.(i)
  done

let restrict scr (cov : Coverage.t) targets =
  Array.iteri (fun i c -> if not (Nodeset.mem c targets) then scr.live2.(i) <- false) cov.c2_keys;
  Array.iteri (fun i c -> if not (Nodeset.mem c targets) then scr.live3.(i) <- false) cov.c3_keys

(* One greedy selection over the targets marked in [scr.live2] /
   [scr.live3] (after [mark] and [fit]).  Selected nodes are written to
   [scr.out] in ascending order; returns their count.  Each pass walks
   the key ranges of [cov] in place with plain loops, so the counters
   stay unboxed. *)
let run_select scr (cov : Coverage.t) =
  let stamp = scr.stamp in
  let slotv = scr.slotv
  and cands = scr.cands
  and live_direct = scr.live_direct
  and live_indirect = scr.live_indirect
  and d_off = scr.d_off
  and i_off = scr.i_off
  and live2 = scr.live2
  and live3 = scr.live3 in
  let { Coverage.c2_keys; c2_off; c2_via; c3_keys; c3_off; c3_v; c3_w; _ } = cov in
  let len2 = Array.length c2_keys and len3 = Array.length c3_keys in
  (* The distinct candidates of the live targets, ascending — the greedy
     scan order — and their live cover counts. *)
  let n_cands = ref 0 in
  let n2_live = ref 0 in
  for i = 0 to len2 - 1 do
    if live2.(i) then begin
      incr n2_live;
      for j = c2_off.(i) to c2_off.(i + 1) - 1 do
        n_cands := add_cand scr stamp !n_cands c2_via.(j) 1
      done
    end
  done;
  for i = 0 to len3 - 1 do
    if live3.(i) then
      for j = c3_off.(i) to c3_off.(i + 1) - 1 do
        n_cands := add_cand scr stamp !n_cands c3_v.(j) (1 lsl count_bits)
      done
  done;
  let n_cands = !n_cands in
  Manet_graph.Row_sort.sort_range cands 0 n_cands;
  (* Per-slot cover ranges by counting sort: with the counts known, set
     [off.(s + 1)] to the start of slot [s]'s range, then scatter with
     [off.(s + 1)] as its cursor — which leaves it at the range's end,
     i.e. the start of slot [s + 1]. *)
  d_off.(0) <- 0;
  i_off.(0) <- 0;
  let nd = ref 0 and ni = ref 0 in
  for s = 0 to n_cands - 1 do
    let counts = slotv.(cands.(s)) in
    slotv.(cands.(s)) <- s;
    live_direct.(s) <- counts land ((1 lsl count_bits) - 1);
    live_indirect.(s) <- counts lsr count_bits;
    d_off.(s + 1) <- !nd;
    nd := !nd + live_direct.(s);
    i_off.(s + 1) <- !ni;
    ni := !ni + live_indirect.(s)
  done;
  for i = 0 to len2 - 1 do
    if live2.(i) then
      for j = c2_off.(i) to c2_off.(i + 1) - 1 do
        let s = slotv.(c2_via.(j)) + 1 in
        scr.d_i.(d_off.(s)) <- i;
        d_off.(s) <- d_off.(s) + 1
      done
  done;
  for i = 0 to len3 - 1 do
    if live3.(i) then
      for j = c3_off.(i) to c3_off.(i + 1) - 1 do
        let s = slotv.(c3_v.(j)) + 1 in
        scr.i_i.(i_off.(s)) <- i;
        scr.i_w.(i_off.(s)) <- c3_w.(j);
        i_off.(s) <- i_off.(s) + 1
      done
  done;
  let n_out = ref 0 in
  (* Phase 1: greedy direct coverage of the 2-hop targets.  Scanning in
     ascending id with strict improvement implements the greedy order:
     most direct, then most indirect, then lowest id. *)
  let continue_ = ref true in
  while !n2_live > 0 && !continue_ do
    let best = ref (-1) in
    for s = 0 to n_cands - 1 do
      if
        live_direct.(s) > 0
        && (!best < 0
           || live_direct.(s) > live_direct.(!best)
           || (live_direct.(s) = live_direct.(!best)
              && live_indirect.(s) > live_indirect.(!best)))
      then best := s
    done;
    if !best < 0 then
      (* Cannot happen for well-formed coverage sets: every c2 entry has a
         connector.  Guard against an impossible loop anyway. *)
      continue_ := false
    else begin
      let s = !best in
      n_out := take scr stamp !n_out cands.(s);
      for e = d_off.(s) to d_off.(s + 1) - 1 do
        n2_live := !n2_live - cover2 scr cov scr.d_i.(e)
      done;
      for e = i_off.(s) to i_off.(s + 1) - 1 do
        let i = scr.i_i.(e) in
        if live3.(i) then begin
          cover3 scr cov i;
          n_out := take scr stamp !n_out scr.i_w.(e)
        end
      done
    end
  done;
  (* Phase 2: connect the remaining 3-hop targets with pairs, preferring
     pairs that reuse already-selected gateways, then the smallest first
     hop (a coverage set holds one pair per first hop per target). *)
  let sel_tag = scr.sel_tag in
  for i = 0 to len3 - 1 do
    if live3.(i) then begin
      let bv = ref (-1) and bw = ref (-1) and bs = ref (-1) in
      for j = c3_off.(i) to c3_off.(i + 1) - 1 do
        let v = c3_v.(j) and w = c3_w.(j) in
        let sp =
          (if sel_tag.(v) = stamp then 1 else 0) + if sel_tag.(w) = stamp then 1 else 0
        in
        if !bv < 0 || sp > !bs || (sp = !bs && v < !bv) then begin
          bv := v;
          bw := w;
          bs := sp
        end
      done;
      if !bv >= 0 then begin
        live3.(i) <- false;
        n_out := take scr stamp !n_out !bv;
        n_out := take scr stamp !n_out !bw
      end
    end
  done;
  Manet_graph.Row_sort.sort_range scr.out 0 !n_out;
  !n_out

let select_on scr cov ~upstream ~upstream_cov ~heard =
  mark scr cov ~upstream ~upstream_cov ~heard;
  fit scr cov;
  run_select scr cov

let select ?targets (cov : Coverage.t) =
  let scr = Domain.DLS.get dls in
  mark scr cov ~upstream:(-1) ~upstream_cov:None ~heard:[||];
  Option.iter (restrict scr cov) targets;
  fit scr cov;
  let k = run_select scr cov in
  Nodeset.of_increasing scr.out ~len:k

let select_array (cov : Coverage.t) =
  let scr = Domain.DLS.get dls in
  let k = select_on scr cov ~upstream:(-1) ~upstream_cov:None ~heard:[||] in
  Array.sub scr.out 0 k

let select_pruned cov ~upstream ~upstream_cov ~heard =
  select_on (Domain.DLS.get dls) cov ~upstream ~upstream_cov ~heard

let selection () = (Domain.DLS.get dls).out

(* Every node a selection takes as a first hop is a candidate, collected
   from the live targets' connectors (neighbours of the owner); a second
   hop of a pair is not adjacent to the owner, so it is none. *)
let hops x =
  let scr = Domain.DLS.get dls in
  if scr.cand_tag.(x) = scr.stamp then 1 else 2

(* Batched selection over every clusterhead of a topology: the same
   kernel, head by head, on a scratch private to the call (its node
   maps presized to [n]).  The domain-local one would be grown to the
   largest head's tables for the rest of the domain's life. *)
let select_all coverages ~n =
  let scr = create_scratch n in
  let ind = Array.make n false in
  for h = 0 to Array.length coverages - 1 do
    match coverages.(h) with
    | None -> ()
    | Some cov ->
      let k = select_on scr cov ~upstream:(-1) ~upstream_cov:None ~heard:[||] in
      for i = 0 to k - 1 do
        ind.(scr.out.(i)) <- true
      done
  done;
  Nodeset.of_indicator ind
