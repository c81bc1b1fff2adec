module Graph = Manet_graph.Graph

type t = {
  hello : int;
  clustering : int;
  clustering_rounds : int;
  ch_hop : int;
  ch_hop_rounds : int;
  gateway : int;
  total : int;
}

let measure g mode =
  let hello = Graph.n g in
  let cl_report = Manet_cluster.Lowest_id_proto.run g in
  let cl = cl_report.clustering in
  let ch_report = Manet_coverage.Ch_hop_proto.run g cl mode in
  let coverages = ch_report.coverages in
  let gw_report = Gateway_proto.run g cl coverages in
  let backbone =
    Static_backbone.make ~graph:g ~clustering:cl ~mode ~coverages ~gateways:gw_report.informed
  in
  ( {
      hello;
      clustering = cl_report.transmissions;
      clustering_rounds = cl_report.rounds;
      ch_hop = ch_report.transmissions;
      ch_hop_rounds = ch_report.rounds;
      gateway = gw_report.transmissions;
      total = hello + cl_report.transmissions + ch_report.transmissions + gw_report.transmissions;
    },
    backbone )

let pp fmt t =
  Format.fprintf fmt
    "hello=%d clustering=%d (%d rounds) ch_hop=%d (%d rounds) gateway=%d total=%d" t.hello
    t.clustering t.clustering_rounds t.ch_hop t.ch_hop_rounds t.gateway t.total
