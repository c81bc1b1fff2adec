(* The paper's running example, end to end.

   Reconstructs the 10-node network of Figure 3 (0-indexed: paper node k
   is node k-1 here), walks through clustering, the CH_HOP1/CH_HOP2
   exchange, gateway selection, the cluster graphs of Figure 4, and both
   broadcasts of the Section 3 illustration.

   Run with:  dune exec examples/paper_figure3.exe *)

module Graph = Manet_graph.Graph
module Nodeset = Manet_graph.Nodeset
module Clustering = Manet_cluster.Clustering
module Coverage = Manet_coverage.Coverage
module Static = Manet_backbone.Static_backbone
module Cluster_graph = Manet_backbone.Cluster_graph
module Result = Manet_broadcast.Result
module Protocol = Manet_broadcast.Protocol
module Registry = Manet_protocols.Registry

let print_set name s = Format.printf "%s = %a@." name Nodeset.pp s

let () =
  let g =
    Graph.of_edges ~n:10
      [ (0, 4); (0, 5); (0, 6); (1, 5); (1, 7); (2, 6); (2, 7); (2, 8); (2, 9); (3, 8); (3, 9); (4, 8) ]
  in
  Format.printf "Figure 3 network (paper node k = node k-1 here):@.%a@." Graph.pp g;

  (* Clustering: paper Figure 3 (b). *)
  let cl = Manet_cluster.Lowest_id.cluster g in
  Format.printf "--- lowest-ID clustering ---@.%a@." Clustering.pp cl;

  (* CH_HOP messages quoted in the paper (0-indexed here):
     CH_HOP1(9) = {3*, 4} -> ch_hop1(8) = {2, 3}
     CH_HOP2(9) = {1[5]}  -> ch_hop2(8) = [(0, 4)]
     CH_HOP2(5) = {3[9]}  -> ch_hop2(4) = [(2, 8)] *)
  Format.printf "--- CH_HOP messages (paper's examples) ---@.";
  print_set "CH_HOP1(8)" (Coverage.ch_hop1 g cl 8);
  Format.printf "CH_HOP2(8) = %s@."
    (String.concat ", "
       (List.map
          (fun (c, w) -> Printf.sprintf "%d[via %d]" c w)
          (Coverage.ch_hop2 g cl Coverage.Hop25 8)));

  (* Coverage sets: C(1)={2,3}, C(2)={1,3}, C(3)={1,2,4},
     C(4)={3} U {1} in paper numbering. *)
  Format.printf "--- 2.5-hop coverage sets ---@.";
  List.iter
    (fun h -> Format.printf "%a@." Coverage.pp (Coverage.of_head g cl Coverage.Hop25 h))
    (Clustering.heads cl);

  (* Static backbone: Figure 3 (c) — gateways {5,6,7,8,9} in paper
     numbering, {4,5,6,7,8} here. *)
  let bb = Static.build ~clustering:cl g Coverage.Hop25 in
  Format.printf "--- static backbone (Theorem 1) ---@.";
  print_set "gateways" bb.gateways;
  print_set "backbone" bb.members;
  Format.printf "is a CDS: %b@." (Static.is_cds bb);

  (* Cluster graphs: Figure 4.  2.5-hop: asymmetric (3 -> 0 only);
     3-hop: symmetric. *)
  let cg25 = Cluster_graph.build g cl Coverage.Hop25 in
  let cg3 = Cluster_graph.build g cl Coverage.Hop3 in
  Format.printf "--- cluster graphs (Figure 4) ---@.";
  Format.printf "2.5-hop: %d vertices, %d links, strongly connected %b, symmetric %b@."
    (Cluster_graph.num_vertices cg25) (Cluster_graph.num_links cg25)
    (Cluster_graph.is_strongly_connected cg25)
    (Cluster_graph.is_symmetric cg25);
  Format.printf "3-hop:   %d vertices, %d links, strongly connected %b, symmetric %b@."
    (Cluster_graph.num_vertices cg3) (Cluster_graph.num_links cg3)
    (Cluster_graph.is_strongly_connected cg3) (Cluster_graph.is_symmetric cg3);

  (* The Section 3 illustration: static broadcast uses all 9 backbone
     nodes; the dynamic broadcast uses 7. *)
  Format.printf "--- broadcasts from node 0 (paper node 1) ---@.";
  let env = Protocol.make_env ~clustering:(lazy cl) g in
  let broadcast name =
    fst (((Registry.find_exn name).prepare env).run ~source:0 ~mode:Protocol.Perfect)
  in
  let r_static = broadcast "static-2.5hop" in
  Format.printf "static:  %d forward nodes %a@."
    (Result.forward_count r_static)
    Nodeset.pp r_static.forwarders;
  let r_dyn = broadcast "dynamic-2.5hop" in
  Format.printf "dynamic: %d forward nodes %a@." (Result.forward_count r_dyn) Nodeset.pp
    r_dyn.forwarders;
  assert (Result.forward_count r_static = 9);
  assert (Result.forward_count r_dyn = 7);
  Format.printf "matches the paper: static 9, dynamic 7@."
