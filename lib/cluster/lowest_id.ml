module Graph = Manet_graph.Graph

(* The head set is the greedy-by-id maximal independent set regardless of
   timing, but {e membership} is timing-dependent: a candidate joins the
   earliest head it hears, which with synchronous rounds is the smallest
   head among those declared in the same pass — not necessarily the
   smallest adjacent head overall.  [Clustering.elect] keeps declare and
   join as separate simultaneous steps, so this computes exactly the
   fixpoint the message-passing protocol in {!Lowest_id_proto} reaches. *)
let head_array g =
  let head = Array.make (Graph.n g) (-1) in
  Clustering.elect ~beats:( < ) g head;
  head

let cluster g = Clustering.of_head_array g (head_array g)
