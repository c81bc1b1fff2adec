module Graph = Manet_graph.Graph
module Nodeset = Manet_graph.Nodeset
module Clustering = Manet_cluster.Clustering
module Coverage = Manet_coverage.Coverage

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
  (* GATEWAY: each head transmits once; each selected 1-hop gateway
     re-broadcasts the message (TTL 2 -> 1), so 2-hop gateways hear it. *)
  let gateway = ref 0 in
  let all_gateways = ref Nodeset.empty in
  List.iter
    (fun h ->
      match coverages.(h) with
      | None -> ()
      | Some cov ->
        let selected = Gateway_selection.select cov in
        all_gateways := Nodeset.union !all_gateways selected;
        let one_hop =
          Graph.fold_neighbors g h
            (fun acc u -> if Nodeset.mem u selected then acc + 1 else acc)
            0
        in
        gateway := !gateway + 1 + one_hop)
    (Clustering.heads cl);
  let backbone =
    Static_backbone.make ~graph:g ~clustering:cl ~mode ~coverages ~gateways:!all_gateways
  in
  let cost =
    {
      hello;
      clustering = cl_report.transmissions;
      clustering_rounds = cl_report.rounds;
      ch_hop = ch_report.transmissions;
      ch_hop_rounds = ch_report.rounds;
      gateway = !gateway;
      total = hello + cl_report.transmissions + ch_report.transmissions + !gateway;
    }
  in
  (cost, backbone)

let pp fmt t =
  Format.fprintf fmt
    "hello=%d clustering=%d (%d rounds) ch_hop=%d (%d rounds) gateway=%d total=%d" t.hello
    t.clustering t.clustering_rounds t.ch_hop t.ch_hop_rounds t.gateway t.total
