module Graph = Manet_graph.Graph
module Nodeset = Manet_graph.Nodeset
module Clustering = Manet_cluster.Clustering
module Coverage = Manet_coverage.Coverage

type t = {
  graph : Graph.t;
  clustering : Clustering.t;
  connectors : Nodeset.t;
  members : Nodeset.t;
}

let build ?clustering ?cache g =
  let cache =
    match (cache, clustering) with
    | Some cache, _ -> cache
    | None, Some cl -> Coverage.Cache.create g cl Coverage.Hop3
    | None, None -> Coverage.Cache.create g (Manet_cluster.Lowest_id.cluster g) Coverage.Hop3
  in
  let clustering = Coverage.Cache.clustering cache in
  let coverages = Coverage.Cache.coverages cache in
  let connectors = ref Nodeset.empty in
  List.iter
    (fun h ->
      match coverages.(h) with
      | None -> ()
      | Some cov ->
        (* One connector per 2-hop clusterhead, a pair per 3-hop
           clusterhead; lowest ids, no cross-clusterhead reuse. *)
        List.iter
          (fun (_ch, vs) -> connectors := Nodeset.add vs.(0) !connectors)
          cov.Coverage.c2;
        List.iter
          (fun (_ch, pairs) ->
            let v, w = pairs.(0) in
            connectors := Nodeset.add v (Nodeset.add w !connectors))
          cov.Coverage.c3)
    (Clustering.heads clustering);
  let members = Nodeset.union (Clustering.head_set clustering) !connectors in
  { graph = g; clustering; connectors = !connectors; members }

let size t = Nodeset.cardinal t.members

let is_cds t = Manet_graph.Dominating.is_cds t.graph t.members

let protocol =
  Manet_broadcast.Protocol.si ~name:"mo_cds"
    ~description:"message-optimal CDS of Alzoubi, Wan and Frieder (MobiHoc'02), the paper's comparator"
    ~build:(fun env ->
      let open Manet_broadcast.Protocol in
      (build ~cache:(coverage env Coverage.Hop3) env.graph).members)
