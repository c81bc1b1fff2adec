(** The cluster structure of a network.

    A clustering partitions the nodes into clusters, each with one
    clusterhead dominating its members; two clusterheads are never
    neighbors (Section 1).  This type is the output of the lowest-ID
    algorithm and the input of every backbone construction. *)

type t

val of_head_array : Manet_graph.Graph.t -> int array -> t
(** [of_head_array g head_of] where [head_of.(v)] is the clusterhead of
    [v]'s cluster ([head_of.(h) = h] exactly for clusterheads).  Validates
    the cluster structure:
    - every head is its own head;
    - every member is adjacent to its head;
    - heads form an independent set.
    @raise Invalid_argument if any property fails. *)

val elect : beats:(int -> int -> bool) -> Manet_graph.Graph.t -> int array -> unit
(** [elect ~beats g head] runs the synchronous declare/join election of
    Section 2 in place.  [head.(v) < 0] marks a candidate; any other
    entry is kept, and a node with [head.(h) = h] is a head candidates
    can join.  Each pass, until nothing changes:
    - every candidate joins its best adjacent head, the one that [beats]
      all others;
    - then every candidate that no candidate neighbour [beats] declares
      itself head, all at once.

    [beats u v] must be a strict total order (lowest-ID clustering uses
    [(<)]).  Started from all candidates, the first join finds no head
    and the result is the classic declare-then-join fixpoint; on a
    partial assignment ({!Maintenance}) orphans join the heads they
    already see before any of them declares.  Every candidate ends
    assigned.
    @raise Invalid_argument if [head] is not of length [Graph.n g]. *)

val head_of : t -> int -> int
(** The clusterhead of the node's cluster (itself, for a head). *)

val is_head : t -> int -> bool

val heads : t -> int list
(** All clusterheads, increasing. *)

val head_set : t -> Manet_graph.Nodeset.t

val num_clusters : t -> int

val members : t -> int -> int list
(** [members t h] is the cluster of head [h], including [h], increasing.
    @raise Invalid_argument if [h] is not a head. *)

val classic_gateways : t -> Manet_graph.Graph.t -> Manet_graph.Nodeset.t
(** The textbook gateway definition (Section 1): non-clusterheads with at
    least one neighbor in another cluster.  The paper's backbones select a
    {e subset} of these; this full set is the baseline "cluster backbone =
    all heads + all gateways". *)

val pp : Format.formatter -> t -> unit
