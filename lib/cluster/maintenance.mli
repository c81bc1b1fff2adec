(** Incremental cluster maintenance under topology change.

    The paper's case for the dynamic backbone is that "maintaining such a
    backbone infrastructure in a mobile environment is a costly
    operation" (Section 1).  This module implements the standard
    least-cluster-change style maintenance of a lowest-ID clustering so
    the cost can be measured rather than asserted (experiment
    ext-maintenance):

    - when motion brings two clusterheads into contact, the higher-id
      one is deposed;
    - a member that lost the link to its clusterhead re-affiliates with
      the lowest-id adjacent clusterhead if any;
    - remaining orphans run a local lowest-ID election.

    The last two steps are one {!Clustering.elect} with [beats = (<)] on
    the partial head array, orphans marked as candidates.

    Every role change costs one control transmission (the node announces
    its new state), which is what {!events.messages} counts; rebuilding
    from scratch would cost n transmissions per topology change. *)

type t

val create : Manet_graph.Graph.t -> t
(** Start from the lowest-ID clustering of the initial topology. *)

type events = {
  reaffiliations : int;  (** members that switched clusters *)
  new_heads : int;  (** nodes promoted to clusterhead *)
  deposed_heads : int;  (** clusterheads that lost their role *)
  messages : int;  (** control transmissions = total role changes *)
}

val update : t -> Manet_graph.Graph.t -> events
(** Adapt the clustering to a new snapshot of the topology (same node
    count).  @raise Invalid_argument on a node-count mismatch. *)

val clustering : t -> Clustering.t
(** The current cluster structure (always satisfies the cluster
    invariants for the last updated topology).  Built and validated once
    per {!update}: repeated calls return the same value until the next
    update. *)

val head_churn : events -> int
(** [new_heads + deposed_heads] — the backbone-relevant churn: each event
    forces the affected neighborhood to refresh coverage sets and
    gateways. *)

val add : events -> events -> events
(** Field-wise sum: fold the per-update tallies of a serving run into the
    stream's total maintenance cost. *)
