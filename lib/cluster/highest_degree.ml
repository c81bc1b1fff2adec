module Graph = Manet_graph.Graph

(* [Clustering.elect] with the (degree, id) order replacing the id order:
   higher degree wins, lower id breaks ties. *)
let cluster g =
  let beats u v =
    let du = Graph.degree g u and dv = Graph.degree g v in
    du > dv || (du = dv && u < v)
  in
  let head = Array.make (Graph.n g) (-1) in
  Clustering.elect ~beats g head;
  Clustering.of_head_array g head
