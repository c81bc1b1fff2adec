(** Multi-point relays (Qayyum, Viennot and Laouiti, HICSS'02) — the
    OLSR-style source-dependent baseline surveyed in Section 2.

    Every node precomputes its MPR set: a small subset of neighbors whose
    united neighborhoods cover its strict 2-hop neighborhood (greedy,
    after first taking neighbors that are the sole access to some 2-hop
    node).  A node relays a broadcast iff it is an MPR of the neighbor
    from which it received the packet. *)

val mpr_sets : Manet_graph.Graph.t -> int array array
(** MPR sets of every node, each strictly increasing
    ({!Neighbor_cover.mpr} on one scan state). *)

val protocol : Manet_broadcast.Protocol.t
(** [mpr] in the protocol registry: {!mpr_sets} as the (proactive) build
    phase, computed once per prepared instance and shared by its
    broadcasts; relay-iff-designated as the per-broadcast decide
    pipeline. *)
