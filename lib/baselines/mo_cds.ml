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
  let heads = Clustering.heads clustering in
  let ind = Array.make (Graph.n g) false in
  List.iter
    (fun h ->
      match coverages.(h) with
      | None -> ()
      | Some cov ->
        (* One connector per 2-hop clusterhead, a pair per 3-hop
           clusterhead; lowest ids, no cross-clusterhead reuse. *)
        for i = 0 to Array.length cov.Coverage.c2_keys - 1 do
          ind.(cov.c2_via.(cov.c2_off.(i))) <- true
        done;
        for i = 0 to Array.length cov.c3_keys - 1 do
          let j = cov.c3_off.(i) in
          ind.(cov.c3_v.(j)) <- true;
          ind.(cov.c3_w.(j)) <- true
        done)
    heads;
  let connectors = Nodeset.of_indicator ind in
  List.iter (fun h -> ind.(h) <- true) heads;
  let members = Nodeset.of_indicator ind in
  { graph = g; clustering; connectors; members }

let size t = Nodeset.cardinal t.members

let is_cds t = Manet_graph.Dominating.is_cds t.graph t.members

let protocol =
  Manet_broadcast.Protocol.si ~name:"mo_cds"
    ~description:"message-optimal CDS of Alzoubi, Wan and Frieder (MobiHoc'02), the paper's comparator"
    ~build:(fun env ->
      let open Manet_broadcast.Protocol in
      (build ~cache:(coverage env Coverage.Hop3) env.graph).members)
