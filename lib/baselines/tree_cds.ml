module Graph = Manet_graph.Graph
module Nodeset = Manet_graph.Nodeset
module Bfs = Manet_graph.Bfs

type t = {
  graph : Graph.t;
  root : int;
  mis : Nodeset.t;
  connectors : Nodeset.t;
  members : Nodeset.t;
}

let build g =
  let n = Graph.n g in
  if n = 0 then invalid_arg "Tree_cds.build: empty graph";
  if not (Manet_graph.Connectivity.is_connected g) then
    invalid_arg "Tree_cds.build: disconnected graph";
  let root = 0 in
  let level = Bfs.distances g ~source:root in
  (* BFS parent: the smallest-id neighbor one level up. *)
  let parent =
    Array.init n (fun v ->
        if v = root then -1
        else
          Graph.fold_neighbors g v
            (fun acc u -> if level.(u) = level.(v) - 1 && (acc < 0 || u < acc) then u else acc)
            (-1))
  in
  (* Greedy MIS in (level, id) order. *)
  let rank v = (level.(v), v) in
  let order =
    List.init n Fun.id
    |> List.sort (fun a b ->
           let la, ia = rank a and lb, ib = rank b in
           match Int.compare la lb with 0 -> Int.compare ia ib | c -> c)
  in
  let in_mis = Array.make n false in
  List.iter
    (fun v ->
      if not (Graph.fold_neighbors g v (fun acc u -> acc || in_mis.(u)) false) then
        in_mis.(v) <- true)
    order;
  (* Connectors: the BFS parent of each non-root MIS node.  The parent is
     dominated by an MIS node of strictly smaller rank (possibly itself),
     so following parents connects the whole MIS to the root. *)
  let is_connector = Array.make n false in
  for v = 0 to n - 1 do
    if in_mis.(v) && v <> root && not in_mis.(parent.(v)) then is_connector.(parent.(v)) <- true
  done;
  let mis = Nodeset.of_indicator in_mis and connectors = Nodeset.of_indicator is_connector in
  { graph = g; root; mis; connectors; members = Nodeset.union mis connectors }

let size t = Nodeset.cardinal t.members

let is_cds t = Manet_graph.Dominating.is_cds t.graph t.members

let protocol =
  Manet_broadcast.Protocol.si ~name:"tree-cds"
    ~description:"spanning-tree CDS of Alzoubi, Wan and Frieder (HICSS-35): BFS-ranked MIS plus parents"
    ~build:(fun env -> (build env.Manet_broadcast.Protocol.graph).members)
