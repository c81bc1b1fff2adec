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
  c2 : (int * int array) list;
  c3 : (int * (int * int) array) list;
}

(* CH_HOP1 content as a sorted array: the clusterheads adjacent to [v].
   Well-defined for every node — clusterheads form an independent set, so
   a clusterhead's row is empty. *)
let hop1_row g cl v =
  let off, nbr = Graph.csr g in
  let lo = off.(v) and hi = off.(v + 1) in
  let k = ref 0 in
  for i = lo to hi - 1 do
    if Clustering.is_head cl (Array.unsafe_get nbr i) then incr k
  done;
  if !k = 0 then [||]
  else begin
    let out = Array.make !k 0 in
    let i = ref 0 in
    for j = lo to hi - 1 do
      let u = Array.unsafe_get nbr j in
      if Clustering.is_head cl u then begin
        out.(!i) <- u;
        incr i
      end
    done;
    out
  end

(* Bits needed for a node id of a graph with [n] nodes: the packed-row
   encoding places the clusterhead above the via node. *)
let row_shift n =
  let rec go b = if 1 lsl b >= n then b else go (b + 1) in
  go 1

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
  let push x =
    if !len = Array.length !buf then begin
      let b = Array.make (2 * Array.length !buf) 0 in
      Array.blit !buf 0 b 0 !len;
      buf := b
    end;
    !buf.(!len) <- x;
    incr len
  in
  let off, nbr = Graph.csr g in
  for i = off.(v) to off.(v + 1) - 1 do
    let w = Array.unsafe_get nbr i in
    if not (Clustering.is_head cl w) then begin
      let record c =
        if stamp.(c) <> tick then begin
          stamp.(c) <- tick;
          push ((c lsl shift) lor w)
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
  Array.fold_left (fun s u -> Nodeset.add u s) Nodeset.empty (hop1_row g cl v)

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
  Array.to_list (unpack_row ~n (hop2_row g cl mode ~hop1:(hop1_row g cl) ~stamp ~gen ~buf v))

(* Reusable per-graph working storage for {!of_head_from}: generation
   tags (the current head id) turn the O(n) arrays into O(1)-reset maps
   shared across heads, and connector entries accumulate in a shared
   buffer chained per key so each CH_HOP row is scanned only once. *)
type scratch = {
  tag2 : int array;  (** [tag2.(c) = u] iff clusterhead [c] is in C2(u) *)
  tag3 : int array;
  slot : int array;  (** index of clusterhead [c] in the key buffer *)
  keys : int array;  (** distinct clusterheads, in first-seen order *)
  cnt : int array;  (** connector count per key *)
  chain : int array;  (** head of the entry chain per key *)
  mutable evals : int array;  (** entry values (packed, for C3) *)
  mutable enext : int array;  (** next entry in the key's chain *)
}

let make_scratch n =
  {
    tag2 = Array.make n (-1);
    tag3 = Array.make n (-1);
    slot = Array.make n 0;
    keys = Array.make n 0;
    cnt = Array.make n 0;
    chain = Array.make n (-1);
    evals = Array.make 256 0;
    enext = Array.make 256 0;
  }

(* CH_HOP2 rows laid out flat: node [v]'s row is
   [buf.(off.(v)) .. buf.(off.(v + 1) - 1)], packed as [c lsl shift lor w]
   and strictly increasing; nodes without a row have an empty range. *)
type rows = { off : int array; buf : int array }

(* Coverage set of clusterhead [u] from CH_HOP row lookups ([hop1] is
   indexed by node and read only at [u]'s neighbors, as are the [rows]).
   Because the outer scan visits the connectors [v] in increasing id and
   each CH_HOP row names a clusterhead at most once, the per-clusterhead
   connector arrays come out already sorted — only the key lists need
   sorting.  Connector entries are prepended to a per-key chain in the
   shared buffer during the single row scan; emitting each chain
   back-to-front restores ascending order in exact-sized arrays. *)
let of_head_from g ~hop1 ~rows ~scratch cl mode u =
  if not (Clustering.is_head cl u) then invalid_arg "Coverage.of_head: not a clusterhead";
  let { tag2; tag3; slot; keys; cnt; chain; _ } = scratch in
  let n_entries = ref 0 in
  let push_entry x s =
    if !n_entries = Array.length scratch.evals then begin
      let size = 2 * Array.length scratch.evals in
      let ev = Array.make size 0 and en = Array.make size 0 in
      Array.blit scratch.evals 0 ev 0 !n_entries;
      Array.blit scratch.enext 0 en 0 !n_entries;
      scratch.evals <- ev;
      scratch.enext <- en
    end;
    scratch.evals.(!n_entries) <- x;
    scratch.enext.(!n_entries) <- chain.(s);
    chain.(s) <- !n_entries;
    incr n_entries
  in
  (* C2: all clusterheads named by the neighbors' CH_HOP1 messages, with
     the naming neighbors as direct connectors. *)
  let goff, gnbr = Graph.csr g in
  let k2 = ref 0 in
  for i = goff.(u) to goff.(u + 1) - 1 do
    let v = Array.unsafe_get gnbr i in
    let r = hop1.(v) in
    for j = 0 to Array.length r - 1 do
      let c = Array.unsafe_get r j in
      if c <> u then begin
        if tag2.(c) <> u then begin
          tag2.(c) <- u;
          slot.(c) <- !k2;
          keys.(!k2) <- c;
          cnt.(!k2) <- 0;
          chain.(!k2) <- -1;
          incr k2
        end;
        let s = slot.(c) in
        cnt.(s) <- cnt.(s) + 1;
        push_entry v s
      end
    done
  done;
  let sorted2 = Array.sub keys 0 !k2 in
  Array.sort Int.compare sorted2;
  let c2 =
    Array.fold_right
      (fun c acc ->
        let s = slot.(c) in
        let m = cnt.(s) in
        let arr = Array.make m 0 in
        let e = ref chain.(s) in
        for i = m - 1 downto 0 do
          arr.(i) <- scratch.evals.(!e);
          e := scratch.enext.(!e)
        done;
        (c, arr) :: acc)
      sorted2 []
  in
  (* C3: entries of the neighbors' CH_HOP2 messages, dropping clusterheads
     already in C2 (and u itself).  [slot], [cnt] and [chain] can be
     reused: C2 only needed them up to this point, and C3 keys are
     disjoint from C2 keys.  Entries repack as [v lsl shift lor w]. *)
  let shift = row_shift (Graph.n g) in
  let mask = (1 lsl shift) - 1 in
  let { off; buf } = rows in
  n_entries := 0;
  let k3 = ref 0 in
  for i = goff.(u) to goff.(u + 1) - 1 do
    let v = Array.unsafe_get gnbr i in
    for j = off.(v) to off.(v + 1) - 1 do
      let x = Array.unsafe_get buf j in
      let c = x lsr shift in
      if c <> u && tag2.(c) <> u then begin
        if tag3.(c) <> u then begin
          tag3.(c) <- u;
          slot.(c) <- !k3;
          keys.(!k3) <- c;
          cnt.(!k3) <- 0;
          chain.(!k3) <- -1;
          incr k3
        end;
        let s = slot.(c) in
        cnt.(s) <- cnt.(s) + 1;
        push_entry ((v lsl shift) lor (x land mask)) s
      end
    done
  done;
  let sorted3 = Array.sub keys 0 !k3 in
  Array.sort Int.compare sorted3;
  let c3 =
    Array.fold_right
      (fun c acc ->
        let s = slot.(c) in
        let m = cnt.(s) in
        let arr = Array.make m (0, 0) in
        let e = ref chain.(s) in
        for i = m - 1 downto 0 do
          let y = scratch.evals.(!e) in
          arr.(i) <- (y lsr shift, y land mask);
          e := scratch.enext.(!e)
        done;
        (c, arr) :: acc)
      sorted3 []
  in
  { owner = u; mode; c2; c3 }

(* The independent per-head reference: CH_HOP rows are built through the
   per-row path ([hop1_row], [hop2_row]) for [u]'s own neighbors only and
   laid out flat in node order — never a whole-graph row buffer. *)
let of_head g cl mode u =
  if not (Clustering.is_head cl u) then invalid_arg "Coverage.of_head: not a clusterhead";
  let n = Graph.n g in
  let goff, gnbr = Graph.csr g in
  let nbrs = Array.sub gnbr goff.(u) (goff.(u + 1) - goff.(u)) in
  let hop1 = Array.make n [||] in
  Array.iter (fun v -> hop1.(v) <- hop1_row g cl v) nbrs;
  let stamp = Array.make n (-1) in
  let gen = ref 0 in
  let buf = ref (Array.make 64 0) in
  let own =
    Array.map (fun v -> hop2_row g cl mode ~hop1:(hop1_row g cl) ~stamp ~gen ~buf v) nbrs
  in
  let off = Array.make (n + 1) 0 in
  Array.iteri (fun k v -> off.(v + 1) <- Array.length own.(k)) nbrs;
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v + 1) + off.(v)
  done;
  let flat = Array.make off.(n) 0 in
  Array.iteri (fun k v -> Array.blit own.(k) 0 flat off.(v) (Array.length own.(k))) nbrs;
  of_head_from g ~hop1 ~rows:{ off; buf = flat } ~scratch:(make_scratch n) cl mode u

(* Every node's CH_HOP2 row in one pass over the graph, into one growable
   buffer (starting at one entry per node, doubling when full).  The
   stamp is the node id ([stamp.(c) = v] marks clusterhead [c] as seen
   for [v]'s row), so it never needs resetting; pre-stamping [v]'s own
   adjacent clusterheads subsumes the not-a-neighbor test.  Scanning
   neighbors in increasing id keeps, per clusterhead, the smallest via
   node, and each short row is then sorted in place — the same rows as
   [hop2_row], without per-row arrays. *)
let flat_rows g cl mode (hop1 : int array array) =
  let n = Graph.n g in
  let shift = row_shift n in
  let off = Array.make (n + 1) 0 in
  let stamp = Array.make n (-1) in
  let buf = ref (Array.make (max n 16) 0) in
  let len = ref 0 in
  let record v c w =
    if stamp.(c) <> v then begin
      stamp.(c) <- v;
      if !len = Array.length !buf then begin
        let b = Array.make (2 * !len) 0 in
        Array.blit !buf 0 b 0 !len;
        buf := b
      end;
      Array.unsafe_set !buf !len ((c lsl shift) lor w);
      incr len
    end
  in
  let goff, gnbr = Graph.csr g in
  for v = 0 to n - 1 do
    off.(v) <- !len;
    if not (Clustering.is_head cl v) then begin
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
    mutable covered_rows : int array option array;  (** [[||]] until first use *)
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
      covered_rows = [||];
    }

  let create g cl mode =
    (* One pass per node through a shared buffer; clusterheads keep the
       empty row directly (they form an independent set, so scanning
       their neighbors would find no head anyway). *)
    let hop1 =
      let off, nbr = Graph.csr g in
      let buf = ref (Array.make 64 0) in
      Array.init (Graph.n g) (fun v ->
          if Clustering.is_head cl v then [||]
          else begin
            let len = ref 0 in
            for i = off.(v) to off.(v + 1) - 1 do
              let u = Array.unsafe_get nbr i in
              if Clustering.is_head cl u then begin
                if !len = Array.length !buf then begin
                  let b = Array.make (2 * Array.length !buf) 0 in
                  Array.blit !buf 0 b 0 !len;
                  buf := b
                end;
                !buf.(!len) <- u;
                incr len
              end
            done;
            Array.sub !buf 0 !len
          end)
    in
    of_hop1 g cl mode hop1

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
      let r = flat_rows t.graph t.clustering t.mode t.hop1 in
      t.hop2 <- Some r;
      r

  let ch_hop2 t v =
    let { off; buf } = hop2_rows t in
    unpack_row ~n:(Graph.n t.graph) (Array.sub buf off.(v) (off.(v + 1) - off.(v)))

  let scratch t =
    match t.scratch with
    | Some s -> s
    | None ->
      let s = make_scratch (Graph.n t.graph) in
      t.scratch <- Some s;
      s

  let compute t v =
    of_head_from t.graph ~hop1:t.hop1 ~rows:(hop2_rows t) ~scratch:(scratch t) t.clustering
      t.mode v

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

  (* C(v) as a flat sorted row — the dynamic broadcast's pruning input.
     The c2 and c3 key lists are each increasing and mutually disjoint,
     so one merge materializes the union; memoised per head ([[||]] for
     non-heads), and callers must not mutate the returned array. *)
  let covered_row t v =
    if Array.length t.covered_rows = 0 then
      t.covered_rows <- Array.make (Graph.n t.graph) None;
    match t.covered_rows.(v) with
    | Some r -> r
    | None ->
      let r =
        match (coverages t).(v) with
        | None -> [||]
        | Some cov ->
          let out = Array.make (List.length cov.c2 + List.length cov.c3) 0 in
          let rec merge k l2 l3 =
            match (l2, l3) with
            | [], [] -> ()
            | (c, _) :: t2, [] ->
              out.(k) <- c;
              merge (k + 1) t2 []
            | [], (c, _) :: t3 ->
              out.(k) <- c;
              merge (k + 1) [] t3
            | (c2, _) :: t2, (c3, _) :: t3 ->
              if c2 < c3 then begin
                out.(k) <- c2;
                merge (k + 1) t2 l3
              end
              else begin
                out.(k) <- c3;
                merge (k + 1) l2 t3
              end
          in
          merge 0 cov.c2 cov.c3;
          out
      in
      t.covered_rows.(v) <- Some r;
      r
end

let all g cl mode = Cache.coverages (Cache.create g cl mode)

let keys l = List.fold_left (fun s (c, _) -> Nodeset.add c s) Nodeset.empty l

let c2_set t = keys t.c2
let c3_set t = keys t.c3
let covered t = Nodeset.union (c2_set t) (c3_set t)
let size t = List.length t.c2 + List.length t.c3

let pp fmt t =
  let pp_pair fmt (v, w) = Format.fprintf fmt "(%d,%d)" v w in
  Format.fprintf fmt "C(%d) [%a]: C2 =" t.owner pp_mode t.mode;
  List.iter
    (fun (c, vs) ->
      Format.fprintf fmt " %d via {%a}" c
        (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ",") Format.pp_print_int)
        (Array.to_list vs))
    t.c2;
  Format.fprintf fmt "; C3 =";
  List.iter
    (fun (c, ps) ->
      Format.fprintf fmt " %d via {%a}" c
        (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ",") pp_pair)
        (Array.to_list ps))
    t.c3
