module Graph = Manet_graph.Graph

(* [memo] is the clustering of the current [head], built on first request
   and dropped by the next update. *)
type t = { mutable graph : Graph.t; head : int array; mutable memo : Clustering.t option }

type events = { reaffiliations : int; new_heads : int; deposed_heads : int; messages : int }

let create g =
  { graph = g; head = Lowest_id.head_array g; memo = None }

(* [of_head_array] validates and copies [head], so the memo is immune to
   later in-place updates. *)
let clustering t =
  match t.memo with
  | Some cl -> cl
  | None ->
    let cl = Clustering.of_head_array t.graph t.head in
    t.memo <- Some cl;
    cl

let update t g =
  let n = Graph.n g in
  if Array.length t.head <> n then invalid_arg "Maintenance.update: node count changed";
  t.memo <- None;
  let old = Array.copy t.head in
  let head = t.head in
  let is_head v = head.(v) = v in
  (* 1. Depose clusterheads that moved next to a smaller-id clusterhead:
     an ascending sweep keeps exactly the greedy independent set among
     the old heads. *)
  for v = 0 to n - 1 do
    if is_head v then begin
      let smaller_kept_head =
        Graph.fold_neighbors g v (fun acc u -> acc || (u < v && is_head u)) false
      in
      if smaller_kept_head then head.(v) <- -1
    end
  done;
  (* 2. Members whose clusterhead is gone or out of range become orphans
     (deposed heads from step 1 are already orphans, head = -1). *)
  for v = 0 to n - 1 do
    let h = head.(v) in
    if h >= 0 && h <> v && not (head.(h) = h && Graph.mem_edge g v h) then head.(v) <- -1
  done;
  (* 3. Orphans re-affiliate with the lowest-id adjacent head, else run a
     local lowest-ID election (the global algorithm restricted to
     orphans). *)
  Clustering.elect ~beats:( < ) g head;
  t.graph <- g;
  let reaffiliations = ref 0 and new_heads = ref 0 and deposed_heads = ref 0 in
  for v = 0 to n - 1 do
    let was_head = old.(v) = v and is_now = head.(v) = v in
    if is_now && not was_head then incr new_heads
    else if was_head && not is_now then incr deposed_heads
    else if (not is_now) && old.(v) <> head.(v) then incr reaffiliations
  done;
  {
    reaffiliations = !reaffiliations;
    new_heads = !new_heads;
    deposed_heads = !deposed_heads;
    messages = !reaffiliations + !new_heads + !deposed_heads;
  }

let head_churn e = e.new_heads + e.deposed_heads

let add a b =
  {
    reaffiliations = a.reaffiliations + b.reaffiliations;
    new_heads = a.new_heads + b.new_heads;
    deposed_heads = a.deposed_heads + b.deposed_heads;
    messages = a.messages + b.messages;
  }
