module Graph = Manet_graph.Graph
module Nodeset = Manet_graph.Nodeset
module Clustering = Manet_cluster.Clustering
module Coverage = Manet_coverage.Coverage

type t = { graph : Graph.t; root : int; parent : int array; members : Nodeset.t }

let build ?cache g cl mode ~source =
  let n = Graph.n g in
  let coverages =
    match cache with
    | Some c -> Coverage.Cache.coverages c
    | None -> Coverage.all g cl mode
  in
  let root = Clustering.head_of cl source in
  let parent = Array.make n (-1) in
  let in_tree = Array.make n false in
  in_tree.(root) <- true;
  let queue = Queue.create () in
  Queue.add root queue;
  let attach child p =
    if not in_tree.(child) then begin
      in_tree.(child) <- true;
      parent.(child) <- p
    end
  in
  (* Grow clusterhead by clusterhead: the first tree clusterhead covering
     a cluster adopts it through its lowest connector (or pair). *)
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    match coverages.(u) with
    | None -> failwith "Forwarding_tree.build: tree node is not a clusterhead"
    | Some cov ->
      let { Coverage.c2_keys; c2_off; c2_via; c3_keys; c3_off; c3_v; c3_w; _ } = cov in
      for i = 0 to Array.length c2_keys - 1 do
        let ch = c2_keys.(i) in
        if not in_tree.(ch) then begin
          let v = c2_via.(c2_off.(i)) in
          attach v u;
          attach ch v;
          Queue.add ch queue
        end
      done;
      for i = 0 to Array.length c3_keys - 1 do
        let ch = c3_keys.(i) in
        if not in_tree.(ch) then begin
          let v = c3_v.(c3_off.(i)) and w = c3_w.(c3_off.(i)) in
          attach v u;
          attach w v;
          attach ch w;
          Queue.add ch queue
        end
      done
  done;
  let missing =
    List.filter (fun h -> not in_tree.(h)) (Clustering.heads cl)
  in
  if missing <> [] then failwith "Forwarding_tree.build: some cluster could not join the tree";
  { graph = g; root; parent; members = Nodeset.of_indicator in_tree }

let is_cds t = Manet_graph.Dominating.is_cds t.graph t.members

let size t = Nodeset.cardinal t.members

let depth t =
  let rec depth_of v = if t.parent.(v) < 0 then 0 else 1 + depth_of t.parent.(v) in
  Nodeset.fold (fun v acc -> max acc (depth_of v)) t.members 0

let ack_messages t =
  (* one acknowledgement per tree edge (every member except the root) *)
  Nodeset.cardinal t.members - 1

let protocol =
  Manet_broadcast.Protocol.per_broadcast ~name:"fwd-tree"
    ~description:"Pagani-Rossi cluster-based forwarding tree rooted at the source's clusterhead"
    ~family:Manet_broadcast.Protocol.Source_dependent
    (fun env ~source ->
      let open Manet_broadcast.Protocol in
      let cache = coverage env Coverage.Hop25 in
      let tree = build ~cache env.graph (Coverage.Cache.clustering cache) Coverage.Hop25 ~source in
      fun ~node ~from:_ -> Nodeset.mem node tree.members)
