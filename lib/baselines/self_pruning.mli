(** Backoff-based self-pruning (neighbor-coverage scheme).

    Section 3 of the paper describes this alternative to piggybacking for
    reducing transmission redundancy: "When a node receives a broadcast
    packet, if it can back-off a short period of time before it relays
    the packet, it may receive more copies of the same packet from its
    other neighbors.  If all of its neighbors can be covered by these
    already received broadcast copies, it can resign its role of
    re-broadcast operation."  This is Lim & Kim's self-pruning / the
    neighbor-coverage variant of the broadcast-storm counter schemes.

    Each node draws a random backoff of 1..4 time units at its first
    copy; while waiting it records the senders of every copy it
    hears; at expiry it rebroadcasts unless its whole neighborhood lies
    in the union of the heard senders' closed neighborhoods.

    The trade-off the paper points out is visible in the results: fewer
    forwards than flooding, but completion times stretched by the
    backoff. *)

val protocol : Manet_broadcast.Protocol.t
(** [self-pruning] in the protocol registry.  Backoffs are drawn from
    the environment's rng; under loss the forward set is frozen from a
    loss-free run and replayed ({!Manet_broadcast.Protocol.frozen_lossy}),
    since the backoff timers have no loss semantics of their own.
    Broadcasting from a source outside the graph raises
    [Invalid_argument]. *)
