(* Quickstart: generate a random MANET, build both backbones, broadcast.

   Run with:  dune exec examples/quickstart.exe *)

module Rng = Manet_rng.Rng
module Spec = Manet_topology.Spec
module Generator = Manet_topology.Generator
module Graph = Manet_graph.Graph
module Nodeset = Manet_graph.Nodeset
module Clustering = Manet_cluster.Clustering
module Coverage = Manet_coverage.Coverage
module Static = Manet_backbone.Static_backbone
module Result = Manet_broadcast.Result
module Protocol = Manet_broadcast.Protocol
module Registry = Manet_protocols.Registry

let () =
  (* 1. A random connected network: 60 hosts, average degree 6, in the
     paper's 100 x 100 working space. *)
  let rng = Rng.create ~seed:2026 in
  let spec = Spec.make ~n:60 ~avg_degree:6. () in
  let sample = Generator.sample_connected rng spec in
  let g = sample.graph in
  Printf.printf "network: %d nodes, %d links, avg degree %.2f (range %.1f)\n" (Graph.n g)
    (Graph.m g) (Graph.avg_degree g) sample.radius;

  (* 2. Lowest-ID clustering. *)
  let cl = Manet_cluster.Lowest_id.cluster g in
  Printf.printf "clusters: %d clusterheads\n" (Clustering.num_clusters cl);

  (* 3. Static backbone (source-independent CDS), 2.5-hop coverage. *)
  let backbone = Static.build ~clustering:cl g Coverage.Hop25 in
  Printf.printf "static backbone: %d nodes (%d gateways), CDS verified: %b\n"
    (Static.size backbone)
    (Nodeset.cardinal backbone.gateways)
    (Static.is_cds backbone);

  (* 4. Broadcast over the static backbone from node 0.  Every scheme
     runs through the protocol registry: prepare it on an environment
     (topology plus clustering), then broadcast. *)
  let env = Protocol.make_env ~clustering:(lazy cl) g in
  let broadcast name =
    fst (((Registry.find_exn name).prepare env).run ~source:0 ~mode:Protocol.Perfect)
  in
  let r_static = broadcast "static-2.5hop" in
  Printf.printf "static broadcast:  %d forwards, delivered %d/%d, %d hops\n"
    (Result.forward_count r_static) (Result.delivered_count r_static) (Graph.n g)
    r_static.completion_time;

  (* 5. The same broadcast with the dynamic backbone (source-dependent
     CDS built on the fly with coverage-set pruning). *)
  let r_dynamic = broadcast "dynamic-2.5hop" in
  Printf.printf "dynamic broadcast: %d forwards, delivered %d/%d, %d hops\n"
    (Result.forward_count r_dynamic)
    (Result.delivered_count r_dynamic)
    (Graph.n g) r_dynamic.completion_time;

  Printf.printf "saved transmissions vs static: %d\n"
    (Result.forward_count r_static - Result.forward_count r_dynamic);

  (* 6. Export the topology with the backbone highlighted (Graphviz). *)
  let dot =
    Manet_graph.Export.to_dot ~name:"quickstart" ~highlight:(Clustering.head_set cl)
      ~secondary:backbone.gateways ~positions:sample.points g
  in
  let path = Filename.temp_file "quickstart" ".dot" in
  let oc = open_out path in
  output_string oc dot;
  close_out oc;
  Printf.printf "topology written to %s (render with: neato -n2 -Tpng)\n" path
