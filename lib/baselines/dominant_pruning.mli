(** Dominant pruning (Lim and Kim, Computer Communications 2001) — a
    source-dependent CDS baseline surveyed in Section 2.

    Each forwarding node v, having received the packet from u with u's
    forward list piggybacked, selects F(v) from N(v) - {u} to greedily
    cover U(v) = N(N(v)) - N(u) - N(v): the 2-hop neighbors not already
    reached by u's or v's own transmission.  Only designated nodes
    forward. *)

val protocol : Manet_broadcast.Protocol.t
(** This scheme in the protocol registry: no build phase, the
    designation pipeline runs per broadcast through the uniform engine
    (and natively under loss). *)
