module Graph = Manet_graph.Graph
module Nodeset = Manet_graph.Nodeset
module Dominating = Manet_graph.Dominating
module Clustering = Manet_cluster.Clustering
module Coverage = Manet_coverage.Coverage

type t = {
  graph : Graph.t;
  clustering : Clustering.t;
  mode : Coverage.mode;
  coverages : Coverage.t option array;
  gateways : Nodeset.t;
  members : Nodeset.t;
}

let make ~graph ~clustering ~mode ~coverages ~gateways =
  let members = Nodeset.union (Clustering.head_set clustering) gateways in
  { graph; clustering; mode; coverages; gateways; members }

let build ?clustering ?cache g mode =
  let cache =
    match (cache, clustering) with
    | Some cache, _ -> cache
    | None, Some cl -> Coverage.Cache.create g cl mode
    | None, None -> Coverage.Cache.create g (Manet_cluster.Lowest_id.cluster g) mode
  in
  let clustering = Coverage.Cache.clustering cache in
  let coverages = Coverage.Cache.coverages cache in
  let gateways = Gateway_selection.select_all coverages ~n:(Graph.n g) in
  make ~graph:g ~clustering ~mode ~coverages ~gateways

let size t = Nodeset.cardinal t.members

let in_backbone t v = Nodeset.mem v t.members

let is_cds t = Dominating.is_cds t.graph t.members

let mode_tag = function Manet_coverage.Coverage.Hop25 -> "2.5hop" | Manet_coverage.Coverage.Hop3 -> "3hop"

let protocol mode =
  Manet_broadcast.Protocol.si
    ~name:("static-" ^ mode_tag mode)
    ~description:
      (Printf.sprintf
         "the paper's static backbone: clusterheads plus greedily selected gateways (%s coverage)"
         (match mode with Manet_coverage.Coverage.Hop25 -> "2.5-hop" | Manet_coverage.Coverage.Hop3 -> "3-hop"))
    ~build:(fun env ->
      let open Manet_broadcast.Protocol in
      (build ~cache:(coverage env mode) env.graph mode).members)
