(** Highest-connectivity clustering (Gerla and Tsai).

    The classic alternative to lowest-ID election: a candidate becomes
    clusterhead when it has the largest degree among its candidate
    neighbors (ties broken by lowest id); candidates join the
    largest-degree declaring neighbor.  Produces fewer, larger clusters
    on dense networks.

    The paper builds on lowest-ID clustering; this module exists for the
    ext-clustering ablation — every backbone construction accepts any
    {!Clustering.t}, so the effect of the election rule on backbone size
    can be isolated.  The election is {!Clustering.elect} with the
    (degree, id) order; the registry's ["kmcds-k2m2/stable"] scheme also
    builds on it. *)

val cluster : Manet_graph.Graph.t -> Clustering.t
