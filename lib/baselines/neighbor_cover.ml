module Graph = Manet_graph.Graph
module Row_sort = Manet_graph.Row_sort
module Protocol = Manet_broadcast.Protocol

(* One node map tagged per scan.  Relative to the scan's [gen], a node
   below [gen] is untouched, [gen] is excluded (or already covered), and
   [gen + 1] / [gen + 2] is a target still to cover, reached through one
   / several of the node's neighbors. *)
type t = {
  mutable map : int array;
  mutable gen : int;
  mutable remaining : int;  (** targets still marked *)
  mutable out : int array;  (** the selection, in selection order *)
}

let create () = { map = [||]; gen = 0; remaining = 0; out = [||] }

let start t g =
  if Array.length t.map < Graph.n g then begin
    t.map <- Array.make (Graph.n g) 0;
    t.gen <- 0
  end;
  t.gen <- t.gen + 3;
  t.remaining <- 0

let exclude_open t g w =
  let { Graph.off; nbr; _ } = g in
  for i = off.(w) to off.(w + 1) - 1 do
    t.map.(nbr.(i)) <- t.gen
  done

let exclude_closed t g u =
  t.map.(u) <- t.gen;
  exclude_open t g u

(* N(N(v)) - N[v], minus what is already excluded: O(deg²) over the CSR
   rows, counting each target's providers up to two. *)
let mark_targets t g v =
  let { Graph.off; nbr; _ } = g in
  let map = t.map and gen = t.gen in
  if Array.length t.out < off.(v + 1) - off.(v) then t.out <- Array.make (Graph.max_degree g) 0;
  exclude_closed t g v;
  for i = off.(v) to off.(v + 1) - 1 do
    let b = nbr.(i) in
    for j = off.(b) to off.(b + 1) - 1 do
      let w = nbr.(j) in
      let m = map.(w) in
      if m < gen then begin
        map.(w) <- gen + 1;
        t.remaining <- t.remaining + 1
      end
      else if m = gen + 1 then map.(w) <- gen + 2
    done
  done

(* Unmark the targets [b] covers. *)
let take t g b =
  let { Graph.off; nbr; _ } = g in
  for j = off.(b) to off.(b + 1) - 1 do
    let w = nbr.(j) in
    if t.map.(w) > t.gen then begin
      t.map.(w) <- t.gen;
      t.remaining <- t.remaining - 1
    end
  done

(* The greedy after the first [k] picks: the neighbor covering the most
   targets still marked, ties to the lowest id, until none is left.
   Returns the sorted selection. *)
let greedy t g v k =
  let { Graph.off; nbr; _ } = g in
  let map = t.map and gen = t.gen in
  let k = ref k in
  while t.remaining > 0 do
    let best = ref (-1) and best_gain = ref 0 in
    for i = off.(v) to off.(v + 1) - 1 do
      let b = nbr.(i) in
      (* A neighbor of degree at most the best gain cannot beat it. *)
      if off.(b + 1) - off.(b) > !best_gain then begin
        let gain = ref 0 in
        for j = off.(b) to off.(b + 1) - 1 do
          if map.(nbr.(j)) > gen then incr gain
        done;
        if !gain > !best_gain then begin
          best := b;
          best_gain := !gain
        end
      end
    done;
    t.out.(!k) <- !best;
    incr k;
    take t g !best
  done;
  Row_sort.sort_range t.out 0 !k;
  Array.sub t.out 0 !k

let forwards t g ~node =
  mark_targets t g node;
  greedy t g node 0

let mpr t g ~node =
  mark_targets t g node;
  let { Graph.off; nbr; _ } = g in
  (* Mandatory relays: the sole provider of some target, all found before
     any is taken, since taking one unmarks targets. *)
  let k = ref 0 in
  for i = off.(node) to off.(node + 1) - 1 do
    let b = nbr.(i) in
    let j = ref off.(b) in
    while !j < off.(b + 1) && t.map.(nbr.(!j)) <> t.gen + 1 do
      incr j
    done;
    if !j < off.(b + 1) then begin
      t.out.(!k) <- b;
      incr k
    end
  done;
  for i = 0 to !k - 1 do
    take t g t.out.(i)
  done;
  greedy t g node !k

let mem a v =
  let i = Row_sort.lower_bound a 0 (Array.length a) v in
  i < Array.length a && a.(i) = v

(* A transmitter's packet, its forward list, waits in [fwd] at its
   index; copies come only from the current broadcast's transmitters. *)
let protocol ~name ~description exclude =
  Protocol.per_broadcast ~name ~description ~family:Protocol.Source_dependent (fun env ->
      let t = create () and slots = ref [||] in
      fun ~source ->
        let g = env.Protocol.graph in
        if Array.length !slots < Graph.n g then slots := Array.make (Graph.n g) [||];
        let fwd = !slots in
        start t g;
        fwd.(source) <- forwards t g ~node:source;
        fun ~node ~from ->
          let payload = fwd.(from) in
          if mem payload node then begin
            start t g;
            exclude_closed t g from;
            exclude t g ~node ~from ~payload;
            fwd.(node) <- forwards t g ~node;
            true
          end
          else false)
