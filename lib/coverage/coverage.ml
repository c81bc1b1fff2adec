module Graph = Manet_graph.Graph
module Nodeset = Manet_graph.Nodeset
module Clustering = Manet_cluster.Clustering

type mode = Hop25 | Hop3

let pp_mode fmt = function
  | Hop25 -> Format.pp_print_string fmt "2.5-hop"
  | Hop3 -> Format.pp_print_string fmt "3-hop"

type t = {
  owner : int;
  mode : mode;
  c2_keys : int array;
  c2_off : int array;
  c2_via : int array;
  c3_keys : int array;
  c3_off : int array;
  c3_v : int array;
  c3_w : int array;
}

(* The offsets of an empty key array: shared, never written. *)
let no_keys = [| 0 |]

(* Appends [x] at [len] to the growable buffer [buf], doubling it when
   full; returns the new length. *)
let push buf len x =
  if len = Array.length !buf then begin
    let b = Array.make (2 * len) 0 in
    Array.blit !buf 0 b 0 len;
    buf := b
  end;
  !buf.(len) <- x;
  len + 1

(* CH_HOP1 content as a sorted array: the clusterheads adjacent to [v],
   in one pass through the growable buffer [buf].  Well-defined for
   every node — clusterheads form an independent set, so a clusterhead's
   row is empty, and is returned without a scan. *)
let hop1_row ~buf g cl v =
  if Clustering.is_head cl v then [||]
  else begin
    let { Graph.off; nbr; _ } = g in
    let len = ref 0 in
    for i = off.(v) to off.(v + 1) - 1 do
      let u = Array.unsafe_get nbr i in
      if Clustering.is_head cl u then len := push buf !len u
    done;
    Array.sub !buf 0 !len
  end

(* Bits needed for a node id of a graph with [n] nodes: the packed-row
   encoding places the clusterhead above the via node. *)
let row_shift n =
  let b = ref 1 in
  while 1 lsl !b < n do
    incr b
  done;
  !b

(* CH_HOP2 content of non-clusterhead [v] as a sorted array, deduplicated
   through a shared stamp array ([stamp.(c) = tick] marks clusterhead [c]
   as already recorded for this call).  Scanning neighbors in increasing
   id keeps, per clusterhead, the entry with the smallest via node — the
   first CH_HOP1 the protocol hears.  This is the per-row path behind
   {!ch_hop2} and {!of_head}; the cache builds every row at once in
   [flat_rows].  The row stays packed; consumers decode with
   [unpack_row].  [gen] is bumped per call so the shared stamp array
   resets in O(1) and repeated calls for the same node stay correct. *)
let hop2_row g cl mode ~hop1 ~stamp ~gen ~buf v =
  incr gen;
  let tick = !gen in
  (* Pre-stamping [v]'s own adjacent clusterheads subsumes the
     not-a-neighbor test: a clusterhead is adjacent to [v] iff it is in
     [v]'s CH_HOP1 row. *)
  Array.iter (fun c -> stamp.(c) <- tick) (hop1 v);
  (* Entries accumulate packed as [c lsl shift lor w] in the shared
     growable buffer — with [0 <= w < 2^shift] the integer order is
     exactly the lexicographic (c, w) order, so one int sort replaces
     the pair sort (and the per-entry allocations). *)
  let shift = row_shift (Array.length stamp) in
  let len = ref 0 in
  let { Graph.off; nbr; _ } = g in
  for i = off.(v) to off.(v + 1) - 1 do
    let w = Array.unsafe_get nbr i in
    if not (Clustering.is_head cl w) then begin
      let record c =
        if stamp.(c) <> tick then begin
          stamp.(c) <- tick;
          len := push buf !len ((c lsl shift) lor w)
        end
      in
      match mode with
      | Hop25 -> record (Clustering.head_of cl w)
      | Hop3 -> Array.iter record (hop1 w)
    end
  done;
  let packed = Array.sub !buf 0 !len in
  Array.sort Int.compare packed;
  packed

let ch_hop1 g cl v =
  if Clustering.is_head cl v then invalid_arg "Coverage.ch_hop1: clusterheads do not send CH_HOP1";
  let row = hop1_row ~buf:(ref [| 0 |]) g cl v in
  Nodeset.of_increasing row ~len:(Array.length row)

let unpack_row ~n packed =
  let shift = row_shift n in
  let mask = (1 lsl shift) - 1 in
  Array.map (fun x -> (x lsr shift, x land mask)) packed

let ch_hop2 g cl mode v =
  if Clustering.is_head cl v then invalid_arg "Coverage.ch_hop2: clusterheads do not send CH_HOP2";
  let n = Graph.n g in
  let stamp = Array.make n (-1) in
  let gen = ref 0 in
  let buf = ref (Array.make 64 0) in
  let hop1 = hop1_row ~buf:(ref [| 0 |]) g cl in
  Array.to_list (unpack_row ~n (hop2_row g cl mode ~hop1 ~stamp ~gen ~buf v))

(* Reusable per-graph working storage for {!of_head_from}: the graph's
   CSR rows and packed-row shift, read once here rather than per head,
   and O(n) arrays that a generation tag (derived from the current head
   id) turns into O(1)-reset maps shared across heads. *)
type scratch = {
  goff : int array;
  gnbr : int array;
  shift : int;
  tag : int array;
      (** [tag.(c) = 2u] iff clusterhead [c] is in C2(u), [2u + 1] iff in C3(u) *)
  keys : int array;  (** distinct clusterheads, in first-seen order *)
  cnt : int array;  (** per clusterhead: its connector count, then its write cursor *)
}

let make_scratch g =
  let n = Graph.n g in
  let { Graph.off = goff; nbr = gnbr; _ } = g in
  {
    goff;
    gnbr;
    shift = row_shift n;
    tag = Array.make n (-1);
    keys = Array.make n 0;
    cnt = Array.make n 0;
  }

(* CH_HOP2 rows laid out flat: node [v]'s row is
   [buf.(off.(v)) .. buf.(off.(v + 1) - 1)], packed as [c lsl shift lor w]
   and strictly increasing; nodes without a row have an empty range. *)
type rows = { off : int array; buf : int array }

(* The first [k] entries of [keys], sorted. *)
let sorted_keys keys k =
  let sorted = Array.sub keys 0 k in
  Manet_graph.Row_sort.sort_range sorted 0 k;
  sorted

(* The offset array of [sorted], the connector count of each key [c]
   read from [cnt.(c)] — which becomes [c]'s write cursor into the
   connector buffer. *)
let offsets sorted cnt =
  let k = Array.length sorted in
  if k = 0 then no_keys
  else begin
    let off = Array.make (k + 1) 0 in
    for i = 0 to k - 1 do
      let c = sorted.(i) in
      let m = cnt.(c) in
      cnt.(c) <- off.(i);
      off.(i + 1) <- off.(i) + m
    done;
    off
  end

(* Coverage set of clusterhead [u] from CH_HOP row lookups ([hop1] is
   indexed by node and read only at [u]'s neighbors, as are the [rows]).
   Each of C2 and C3 takes two scans of the same rows: the first
   collects the keys and counts their connectors, the second writes
   each connector at its key's cursor in the exact-sized buffer.
   Because the scans visit the connectors [v] in increasing id and each
   CH_HOP row names a clusterhead at most once, every key's connector
   range comes out sorted — only the keys need sorting. *)
let of_head_from ~hop1 ~rows ~scratch cl mode u =
  if not (Clustering.is_head cl u) then invalid_arg "Coverage.of_head: not a clusterhead";
  let { goff; gnbr; shift; tag; keys; cnt } = scratch in
  let t2 = 2 * u and t3 = (2 * u) + 1 in
  (* C2: all clusterheads named by the neighbors' CH_HOP1 messages, with
     the naming neighbors as direct connectors. *)
  let lo = goff.(u) and hi = goff.(u + 1) - 1 in
  let k2 = ref 0 and e2 = ref 0 in
  for i = lo to hi do
    let r = hop1.(Array.unsafe_get gnbr i) in
    for j = 0 to Array.length r - 1 do
      let c = Array.unsafe_get r j in
      if c <> u then begin
        if tag.(c) <> t2 then begin
          tag.(c) <- t2;
          keys.(!k2) <- c;
          cnt.(c) <- 0;
          incr k2
        end;
        cnt.(c) <- cnt.(c) + 1;
        incr e2
      end
    done
  done;
  let c2_keys = sorted_keys keys !k2 in
  let c2_off = offsets c2_keys cnt in
  let c2_via = Array.make !e2 0 in
  for i = lo to hi do
    let v = Array.unsafe_get gnbr i in
    let r = hop1.(v) in
    for j = 0 to Array.length r - 1 do
      let c = Array.unsafe_get r j in
      if c <> u then begin
        let p = cnt.(c) in
        c2_via.(p) <- v;
        cnt.(c) <- p + 1
      end
    done
  done;
  (* C3: entries of the neighbors' CH_HOP2 messages, dropping clusterheads
     already in C2 (and u itself); each pair (v, w) is split into the
     two parallel buffers. *)
  let mask = (1 lsl shift) - 1 in
  let { off; buf } = rows in
  let k3 = ref 0 and e3 = ref 0 in
  for i = lo to hi do
    let v = Array.unsafe_get gnbr i in
    for j = off.(v) to off.(v + 1) - 1 do
      let c = Array.unsafe_get buf j lsr shift in
      if c <> u && tag.(c) <> t2 then begin
        if tag.(c) <> t3 then begin
          tag.(c) <- t3;
          keys.(!k3) <- c;
          cnt.(c) <- 0;
          incr k3
        end;
        cnt.(c) <- cnt.(c) + 1;
        incr e3
      end
    done
  done;
  let c3_keys = sorted_keys keys !k3 in
  let c3_off = offsets c3_keys cnt in
  let c3_v = Array.make !e3 0 and c3_w = Array.make !e3 0 in
  for i = lo to hi do
    let v = Array.unsafe_get gnbr i in
    for j = off.(v) to off.(v + 1) - 1 do
      let x = Array.unsafe_get buf j in
      let c = x lsr shift in
      if c <> u && tag.(c) = t3 then begin
        let p = cnt.(c) in
        c3_v.(p) <- v;
        c3_w.(p) <- x land mask;
        cnt.(c) <- p + 1
      end
    done
  done;
  { owner = u; mode; c2_keys; c2_off; c2_via; c3_keys; c3_off; c3_v; c3_w }

(* The independent per-head reference: CH_HOP rows are built through the
   per-row path ([hop1_row], [hop2_row]) for [u]'s own neighbors only and
   laid out flat in node order — never a whole-graph row buffer. *)
let of_head g cl mode u =
  if not (Clustering.is_head cl u) then invalid_arg "Coverage.of_head: not a clusterhead";
  let n = Graph.n g in
  let { Graph.off = goff; nbr = gnbr; _ } = g in
  let nbrs = Array.sub gnbr goff.(u) (goff.(u + 1) - goff.(u)) in
  let hop1_row = hop1_row ~buf:(ref [| 0 |]) g cl in
  let hop1 = Array.make n [||] in
  Array.iter (fun v -> hop1.(v) <- hop1_row v) nbrs;
  let stamp = Array.make n (-1) in
  let gen = ref 0 in
  let buf = ref (Array.make 64 0) in
  let own =
    Array.map (fun v -> hop2_row g cl mode ~hop1:hop1_row ~stamp ~gen ~buf v) nbrs
  in
  let off = Array.make (n + 1) 0 in
  Array.iteri (fun k v -> off.(v + 1) <- Array.length own.(k)) nbrs;
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v + 1) + off.(v)
  done;
  let flat = Array.make off.(n) 0 in
  Array.iteri (fun k v -> Array.blit own.(k) 0 flat off.(v) (Array.length own.(k))) nbrs;
  of_head_from ~hop1 ~rows:{ off; buf = flat } ~scratch:(make_scratch g) cl mode u

(* The CH_HOP2 rows of the non-clusterheads [v] with [stamp.(v) = -1]
   (every other row is empty) in one pass over the graph, into one
   growable buffer (starting at one entry per node, doubling when full).
   The stamp then marks the rows' entries, which are clusterheads, so it
   never changes at a non-clusterhead: [stamp.(c) = v] marks clusterhead
   [c] as seen for [v]'s row, and never needs resetting.  Pre-stamping
   [v]'s own adjacent clusterheads subsumes the not-a-neighbor test.
   Scanning neighbors in increasing id keeps, per clusterhead, the
   smallest via node, and each short row is then sorted in place — the
   same rows as [hop2_row], without per-row arrays. *)
let flat_rows g cl mode (hop1 : int array array) ~stamp =
  let n = Graph.n g in
  let shift = row_shift n in
  let off = Array.make (n + 1) 0 in
  let buf = ref (Array.make (max n 16) 0) in
  let len = ref 0 in
  let record v c w =
    if stamp.(c) <> v then begin
      stamp.(c) <- v;
      len := push buf !len ((c lsl shift) lor w)
    end
  in
  let { Graph.off = goff; nbr = gnbr; _ } = g in
  for v = 0 to n - 1 do
    off.(v) <- !len;
    if stamp.(v) = -1 && not (Clustering.is_head cl v) then begin
      let own = hop1.(v) in
      for j = 0 to Array.length own - 1 do
        stamp.(Array.unsafe_get own j) <- v
      done;
      for i = goff.(v) to goff.(v + 1) - 1 do
        let w = Array.unsafe_get gnbr i in
        if not (Clustering.is_head cl w) then begin
          match mode with
          | Hop25 -> record v (Clustering.head_of cl w) w
          | Hop3 ->
            let r = hop1.(w) in
            for j = 0 to Array.length r - 1 do
              record v (Array.unsafe_get r j) w
            done
        end
      done;
      Manet_graph.Row_sort.sort_range !buf off.(v) !len
    end
  done;
  off.(n) <- !len;
  { off; buf = !buf }

(* Shared CH_HOP tables for one (graph, clustering, mode): every CH_HOP1
   and CH_HOP2 row is computed exactly once — one O(sum deg) pass for the
   hop-1 rows and one O(sum deg * deg) pass for the flat hop-2 rows — and
   every consumer (static backbone, dynamic broadcast, forwarding tree,
   gateway protocol, backbone maintenance) reads the same arrays instead
   of recomputing them per clusterhead. *)
module Cache = struct
  type coverage = t

  type nonrec mode = mode

  type t = {
    graph : Graph.t;
    clustering : Clustering.t;
    mode : mode;
    hop1 : int array array;
    mutable hop2 : rows option;
    mutable scratch : scratch option;
    mutable memo : coverage option array;  (** per-head memo; [[||]] until first use *)
    mutable complete : bool;  (** every head of [memo] filled *)
  }

  let of_hop1 g cl mode hop1 =
    {
      graph = g;
      clustering = cl;
      mode;
      hop1;
      hop2 = None;
      scratch = None;
      memo = [||];
      complete = false;
    }

  let create g cl mode =
    let hop1 = Array.init (Graph.n g) (hop1_row ~buf:(ref (Array.make 64 0)) g cl) in
    of_hop1 g cl mode hop1

  (* A non-clusterhead's CH_HOP1 row names at least its own head, so an
     empty slot at a non-clusterhead is one not filled yet.  The stamp
     starts at -2 (no CH_HOP2 row) and is set to -1 (a row) at the
     heads' neighbours. *)
  let create_for g cl mode heads k =
    let n = Graph.n g in
    let hop1 = Array.make n [||] in
    let buf = ref (Array.make 64 0) in
    let fill v =
      if Array.length hop1.(v) = 0 && not (Clustering.is_head cl v) then
        hop1.(v) <- hop1_row ~buf g cl v
    in
    let stamp = Array.make n (-2) in
    let { Graph.off; nbr; _ } = g in
    for i = 0 to k - 1 do
      let h = heads.(i) in
      for a = off.(h) to off.(h + 1) - 1 do
        let v = nbr.(a) in
        fill v;
        stamp.(v) <- -1;
        match mode with
        | Hop25 -> ()
        | Hop3 ->
          for b = off.(v) to off.(v + 1) - 1 do
            fill nbr.(b)
          done
      done
    done;
    let t = of_hop1 g cl mode hop1 in
    t.hop2 <- Some (flat_rows g cl mode hop1 ~stamp);
    t

  (* The hop-1 rows do not depend on the mode: a second mode's table
     reads the same arrays. *)
  let with_mode t mode = of_hop1 t.graph t.clustering mode t.hop1

  let graph t = t.graph
  let clustering t = t.clustering
  let mode t = t.mode
  let ch_hop1 t v = t.hop1.(v)

  let hop2_rows t =
    match t.hop2 with
    | Some r -> r
    | None ->
      let stamp = Array.make (Graph.n t.graph) (-1) in
      let r = flat_rows t.graph t.clustering t.mode t.hop1 ~stamp in
      t.hop2 <- Some r;
      r

  let ch_hop2 t v =
    let { off; buf } = hop2_rows t in
    unpack_row ~n:(Graph.n t.graph) (Array.sub buf off.(v) (off.(v + 1) - off.(v)))

  let scratch t =
    match t.scratch with
    | Some s -> s
    | None ->
      let s = make_scratch t.graph in
      t.scratch <- Some s;
      s

  let compute t v =
    of_head_from ~hop1:t.hop1 ~rows:(hop2_rows t) ~scratch:(scratch t) t.clustering t.mode v

  let memo t =
    if Array.length t.memo = 0 then t.memo <- Array.make (Graph.n t.graph) None;
    t.memo

  let coverage t h =
    if not (Clustering.is_head t.clustering h) then
      invalid_arg "Coverage.Cache.coverage: not a clusterhead";
    let m = memo t in
    match m.(h) with
    | Some c -> c
    | None ->
      let c = compute t h in
      m.(h) <- Some c;
      c

  (* Completes the per-head memo and hands it out as the batch result. *)
  let coverages t =
    let m = memo t in
    if not t.complete then begin
      for v = 0 to Array.length m - 1 do
        if Clustering.is_head t.clustering v && Option.is_none m.(v) then m.(v) <- Some (compute t v)
      done;
      t.complete <- true
    end;
    m
end

let all g cl mode = Cache.coverages (Cache.create g cl mode)

let of_sorted ~owner mode ~c2 ~c3 =
  let rec increasing cmp = function
    | a :: (b :: _ as rest) -> cmp a b < 0 && increasing cmp rest
    | _ -> true
  in
  let table cmp entries =
    increasing (fun (a, _) (b, _) -> Int.compare a b) entries
    && List.for_all (fun (_, l) -> match l with [] -> false | _ -> increasing cmp l) entries
  in
  (* One pair per first hop: the gateway kernel relies on it. *)
  let first_hop (v1, _) (v2, _) = Int.compare v1 v2 in
  if not (table Int.compare c2 && table first_hop c3) then
    invalid_arg "Coverage.of_sorted: keys or connectors not strictly increasing";
  let layout entries =
    let keys = Array.of_list (List.map fst entries) in
    let off = Array.make (Array.length keys + 1) 0 in
    List.iteri (fun i (_, l) -> off.(i + 1) <- off.(i) + List.length l) entries;
    (keys, off)
  in
  let c2_keys, c2_off = layout c2 and c3_keys, c3_off = layout c3 in
  let c2_via = Array.of_list (List.concat_map snd c2) in
  let pairs = List.concat_map snd c3 in
  let c3_v = Array.of_list (List.map fst pairs) and c3_w = Array.of_list (List.map snd pairs) in
  { owner; mode; c2_keys; c2_off; c2_via; c3_keys; c3_off; c3_v; c3_w }

let c2_set t = Nodeset.of_increasing t.c2_keys ~len:(Array.length t.c2_keys)
let c3_set t = Nodeset.of_increasing t.c3_keys ~len:(Array.length t.c3_keys)

let covered t = Nodeset.union (c2_set t) (c3_set t)

let size t = Array.length t.c2_keys + Array.length t.c3_keys

let pp fmt t =
  let pp_ranges fmt keys off pp_entry =
    Array.iteri
      (fun i c ->
        Format.fprintf fmt " %d via {" c;
        for j = off.(i) to off.(i + 1) - 1 do
          if j > off.(i) then Format.pp_print_char fmt ',';
          pp_entry fmt j
        done;
        Format.pp_print_char fmt '}')
      keys
  in
  Format.fprintf fmt "C(%d) [%a]: C2 =" t.owner pp_mode t.mode;
  pp_ranges fmt t.c2_keys t.c2_off (fun fmt j -> Format.pp_print_int fmt t.c2_via.(j));
  Format.fprintf fmt "; C3 =";
  pp_ranges fmt t.c3_keys t.c3_off (fun fmt j -> Format.fprintf fmt "(%d,%d)" t.c3_v.(j) t.c3_w.(j))
