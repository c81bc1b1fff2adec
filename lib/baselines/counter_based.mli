(** The counter-based scheme of Ni et al. (MOBICOM'99) — the classic
    remedy from the broadcast storm paper that motivates Section 1.

    Each node backs off a random 1..4 time units at its first copy and
    counts the duplicates it overhears (one per neighbor that
    transmitted before the expiry); at expiry it rebroadcasts only if it
    heard fewer than C = 3 copies (the paper's sweet spot).  The timers
    run on {!Backoff.run}, on the broadcast engine's calendar.  Unlike
    {!Self_pruning} it needs no neighborhood knowledge at all, but the
    counter is a heuristic: delivery is not guaranteed (sparse networks
    can strand nodes), which the tests and the ext-baselines discussion
    quantify. *)

val protocol : Manet_broadcast.Protocol.t
(** [counter] in the protocol registry; frozen-replay semantics under
    loss, like [self-pruning].  Broadcasting from a source outside the
    graph raises [Invalid_argument]. *)
