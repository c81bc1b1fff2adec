(* Reliable broadcast over the cluster-based forwarding tree.

   Pagani and Rossi (Section 2 of the paper) use the cluster structure
   for *reliable* broadcast: a forwarding tree rooted at the source's
   clusterhead, with acknowledgements flowing back up.  This example
   builds the tree on a random network, then injects packet loss and
   shows the retransmission machinery certifying full delivery — and
   what that certainty costs compared to fire-and-forget flooding.

   Run with:  dune exec examples/reliable_broadcast.exe *)

module Rng = Manet_rng.Rng
module Spec = Manet_topology.Spec
module Generator = Manet_topology.Generator
module Graph = Manet_graph.Graph
module Nodeset = Manet_graph.Nodeset
module Coverage = Manet_coverage.Coverage
module Reliable = Manet_broadcast.Reliable
module Protocol = Manet_broadcast.Protocol
module Result = Manet_broadcast.Result

let () =
  let rng = Rng.create ~seed:99 in
  let spec = Spec.make ~n:80 ~avg_degree:8. () in
  let sample = Generator.sample_connected rng spec in
  let g = sample.graph in
  let cl = Manet_cluster.Lowest_id.cluster g in
  let source = 5 in
  let tree = Manet_baselines.Forwarding_tree.build g cl Coverage.Hop25 ~source in
  Printf.printf
    "forwarding tree: root %d (clusterhead of %d), %d members, depth %d, %d acks per wave\n"
    tree.root source
    (Manet_baselines.Forwarding_tree.size tree)
    (Manet_baselines.Forwarding_tree.depth tree)
    (Manet_baselines.Forwarding_tree.ack_messages tree);
  (* Attach every non-member to its clusterhead for acknowledgements. *)
  let parent =
    Array.init (Graph.n g) (fun v ->
        if v = tree.root then -1
        else if Nodeset.mem v tree.members then tree.parent.(v)
        else Manet_cluster.Clustering.head_of cl v)
  in
  Printf.printf "\n%8s %12s %12s %10s %12s %16s\n" "loss" "data tx" "ack tx" "rounds" "complete"
    "1-flood delivery";
  List.iter
    (fun loss ->
      let o = Reliable.run g ~rng:(Rng.split rng) ~loss ~root:tree.root ~parent in
      let flood =
        let env = Protocol.make_env ~rng:(Rng.split rng) g in
        let r, _ = (Protocol.flooding.prepare env).run ~source ~mode:(Protocol.Lossy loss) in
        Result.delivery_ratio r
      in
      Printf.printf "%8.2f %12d %12d %10d %12b %16.3f\n" loss o.data_transmissions
        o.ack_transmissions o.rounds o.complete flood)
    [ 0.; 0.1; 0.2; 0.3; 0.4 ];
  print_newline ();
  print_endline
    "The tree certifies delivery to all 80 nodes at every loss rate (acks +\n\
     retransmissions), while a single flood fades silently as links get\n\
     lossier — the reliability/overhead trade-off the paper discusses when\n\
     it points out that such trees are hard to maintain in MANETs."
