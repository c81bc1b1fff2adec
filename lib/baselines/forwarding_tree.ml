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
  let members = ref (Nodeset.singleton root) in
  let in_tree = Array.make n false in
  in_tree.(root) <- true;
  let queue = Queue.create () in
  Queue.add root queue;
  let attach child p =
    if not in_tree.(child) then begin
      in_tree.(child) <- true;
      parent.(child) <- p;
      members := Nodeset.add child !members
    end
  in
  (* Grow clusterhead by clusterhead: the first tree clusterhead covering
     a cluster adopts it through its lowest connector (or pair). *)
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    match coverages.(u) with
    | None -> failwith "Forwarding_tree.build: tree node is not a clusterhead"
    | Some cov ->
      List.iter
        (fun (ch, connectors) ->
          if not in_tree.(ch) then begin
            let v = connectors.(0) in
            attach v u;
            attach ch v;
            Queue.add ch queue
          end)
        cov.Coverage.c2;
      List.iter
        (fun (ch, pairs) ->
          if not in_tree.(ch) then begin
            let v, w = pairs.(0) in
            attach v u;
            attach w v;
            attach ch w;
            Queue.add ch queue
          end)
        cov.Coverage.c3
  done;
  let missing =
    List.filter (fun h -> not in_tree.(h)) (Clustering.heads cl)
  in
  if missing <> [] then failwith "Forwarding_tree.build: some cluster could not join the tree";
  { graph = g; root; parent; members = !members }

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
    (fun env ~source ~mode ->
      let open Manet_broadcast.Protocol in
      let tree =
        build env.graph (Lazy.force env.clustering) Manet_coverage.Coverage.Hop25 ~source
      in
      run_decide env ~source ~mode ~initial:()
        ~decide:(fun ~node ~from:_ ~payload:() ->
          if Nodeset.mem node tree.members then Some () else None))
