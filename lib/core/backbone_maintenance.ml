module Graph = Manet_graph.Graph
module Bfs = Manet_graph.Bfs
module Nodeset = Manet_graph.Nodeset
module Clustering = Manet_cluster.Clustering
module Maintenance = Manet_cluster.Maintenance
module Coverage = Manet_coverage.Coverage

(* Coverages and selections are node-indexed and allocated once: an
   update overwrites the refreshed heads' slots in place, clears the
   deposed heads' slots and leaves every other slot (physically)
   untouched.  The per-update working storage — the affected list and
   the one BFS state of the old, then the new 3-hop ball — is reused
   across updates; [head_of] is a fresh snapshot per update. *)
type t = {
  mode : Coverage.mode;
  maint : Maintenance.t;
  mutable graph : Graph.t;
  mutable head_of : int array;  (** head of every node at the last update, for role-diffing *)
  coverages : Coverage.t option array;  (** [Some] exactly at the current heads *)
  selections : int array array;  (** sorted gateways per current head, [[||]] elsewhere *)
  affected : int array;
  ball : Bfs.t;  (** within 3 hops of a change, on the old topology, then the new *)
  mark : int array;  (** [mark.(v) = stamp]: [v] already seen by the current scan *)
  mutable stamp : int;
}

type report = {
  cluster_events : Maintenance.events;
  refreshed_heads : int;
  ch_hop_messages : int;
  gateway_messages : int;
  total_messages : int;
}

(* Recompute head [h]'s coverage and selection from the shared CH_HOP
   cache; returns the GATEWAY messages it costs: one by the head,
   forwarded by each selected 1-hop gateway (TTL 2). *)
let refresh_head t g cache h =
  let cov = Coverage.Cache.coverage cache h in
  let sel = Gateway_selection.select_array cov in
  t.coverages.(h) <- Some cov;
  t.selections.(h) <- sel;
  t.stamp <- t.stamp + 1;
  let s = t.stamp in
  for i = 0 to Array.length sel - 1 do
    t.mark.(sel.(i)) <- s
  done;
  let { Graph.off; nbr; _ } = g in
  let msgs = ref 1 in
  for i = off.(h) to off.(h + 1) - 1 do
    if t.mark.(nbr.(i)) = s then incr msgs
  done;
  !msgs

let create g mode =
  let n = Graph.n g in
  let maint = Maintenance.create g in
  let cl = Maintenance.clustering maint in
  let t =
    {
      mode;
      maint;
      graph = g;
      head_of = Array.init n (Clustering.head_of cl);
      coverages = Array.make n None;
      selections = Array.make n [||];
      affected = Array.make n 0;
      ball = Bfs.create ();
      mark = Array.make n 0;
      stamp = 0;
    }
  in
  let cache = Coverage.Cache.create g cl mode in
  List.iter (fun h -> ignore (refresh_head t g cache h)) (Clustering.heads cl);
  t

(* The nodes within 3 hops of the first [seeds] affected nodes. *)
let ball t g ~seeds =
  Bfs.reset t.ball ~n:(Graph.n g);
  for i = 0 to seeds - 1 do
    Bfs.seed t.ball t.affected.(i)
  done;
  Bfs.expand t.ball g ~limit:3

(* The report of an update that changed nothing. *)
let unchanged =
  {
    cluster_events = { reaffiliations = 0; new_heads = 0; deposed_heads = 0; messages = 0 };
    refreshed_heads = 0;
    ch_hop_messages = 0;
    gateway_messages = 0;
    total_messages = 0;
  }

(* One update onto a snapshot [g] other than [t.graph]. *)
let apply t g =
  let n = Graph.n g in
  let old_graph = t.graph in
  let old_head_of = t.head_of in
  let cluster_events = Maintenance.update t.maint g in
  let cl = Maintenance.clustering t.maint in
  let new_head_of = Array.init n (Clustering.head_of cl) in
  (* Affected nodes: adjacency changed or cluster role changed.  Rows are
     compared in place on the CSR arrays — no per-node copies. *)
  let { Graph.off = ooff; nbr = onbr; _ } = old_graph in
  let { Graph.off = noff; nbr = nnbr; _ } = g in
  let same_row v =
    let lo = ooff.(v) and ln = noff.(v) in
    let d = ooff.(v + 1) - lo in
    d = noff.(v + 1) - ln
    &&
    let i = ref 0 in
    while !i < d && onbr.(lo + !i) = nnbr.(ln + !i) do
      incr i
    done;
    !i = d
  in
  let seeds = ref 0 in
  for v = 0 to n - 1 do
    if (not (same_row v)) || old_head_of.(v) <> new_head_of.(v) then begin
      t.affected.(!seeds) <- v;
      incr seeds
    end
  done;
  let seeds = !seeds in
  let report =
    if seeds = 0 then
      {
        cluster_events;
        refreshed_heads = 0;
        ch_hop_messages = 0;
        gateway_messages = 0;
        total_messages = cluster_events.messages;
      }
    else begin
      (* The old ball is read only at heads: it is flagged in [mark]
         under a stamp of its own before the state is reused for the new
         ball.  A refresh stamps only gateways, never a head, so the
         flags survive the refreshes below. *)
      ball t old_graph ~seeds;
      t.stamp <- t.stamp + 1;
      let in_old_ball = t.stamp in
      for i = 0 to Bfs.reached t.ball - 1 do
        t.mark.(Bfs.nth t.ball i) <- in_old_ball
      done;
      ball t g ~seeds;
      (* Deposed heads drop out (a role change makes them affected). *)
      for i = 0 to seeds - 1 do
        let v = t.affected.(i) in
        if old_head_of.(v) = v && new_head_of.(v) <> v then begin
          t.coverages.(v) <- None;
          t.selections.(v) <- [||]
        end
      done;
      (* Heads keeping an identical, untouched 3-hop ball keep their
         coverage and selection; everyone else — new heads included —
         refreshes.  The seeds are spent, so [affected] now collects the
         heads to refresh, and one CH_HOP cache holding only the rows
         their coverage sets read serves them all. *)
      let refreshed = ref 0 in
      List.iter
        (fun h ->
          if t.mark.(h) = in_old_ball || Bfs.seen t.ball h || Option.is_none t.coverages.(h)
          then begin
            t.affected.(!refreshed) <- h;
            incr refreshed
          end)
        (Clustering.heads cl);
      let refreshed = !refreshed in
      let gateway_messages = ref 0 in
      if refreshed > 0 then begin
        let cache = Coverage.Cache.create_for g cl t.mode t.affected refreshed in
        for i = 0 to refreshed - 1 do
          gateway_messages := !gateway_messages + refresh_head t g cache t.affected.(i)
        done
      end;
      (* CH_HOP refresh: non-heads within 2 hops of a change re-announce
         their CH_HOP1 and CH_HOP2.  They all lie in the new ball. *)
      let ch_hop = ref 0 in
      for i = 0 to Bfs.reached t.ball - 1 do
        let v = Bfs.nth t.ball i in
        if (not (Clustering.is_head cl v)) && Bfs.dist t.ball v <= 2 then ch_hop := !ch_hop + 2
      done;
      {
        cluster_events;
        refreshed_heads = refreshed;
        ch_hop_messages = !ch_hop;
        gateway_messages = !gateway_messages;
        total_messages = cluster_events.messages + !ch_hop + !gateway_messages;
      }
    end
  in
  t.graph <- g;
  t.head_of <- new_head_of;
  report

let update t g =
  if Graph.n g <> Graph.n t.graph then
    invalid_arg "Backbone_maintenance.update: node count changed";
  (* The snapshot already maintained: nothing can have changed. *)
  if g == t.graph then unchanged else apply t g

let graph t = t.graph
let clustering t = Maintenance.clustering t.maint

(* Heads first, then each head's gateways; a gateway selected by several
   heads is reported once, through the stamp. *)
let iter_members t f =
  t.stamp <- t.stamp + 1;
  let s = t.stamp in
  List.iter
    (fun h ->
      f h;
      let sel = t.selections.(h) in
      for i = 0 to Array.length sel - 1 do
        let v = sel.(i) in
        if t.mark.(v) <> s then begin
          t.mark.(v) <- s;
          f v
        end
      done)
    (Clustering.heads (clustering t))

let backbone t =
  let ind = Array.make (Graph.n t.graph) false in
  Array.iter (Array.iter (fun v -> ind.(v) <- true)) t.selections;
  Static_backbone.make ~graph:t.graph ~clustering:(clustering t) ~mode:t.mode
    ~coverages:(Array.copy t.coverages) ~gateways:(Nodeset.of_indicator ind)
