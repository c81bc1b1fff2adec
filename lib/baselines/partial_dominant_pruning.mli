(** Partial dominant pruning (Lou and Wu, IEEE TMC 2002) — the authors'
    own earlier source-dependent baseline, surveyed in Section 2.

    Extends dominant pruning: the neighbors of the {e common} neighbors
    of sender u and receiver v lie inside N(N(u)), whose coverage u's own
    forward selection already guarantees, so v can drop them too.  The
    universe shrinks to
    U(v) = N(N(v)) - N(u) - N(v) - N(N(u) inter N(v)). *)

val protocol : Manet_broadcast.Protocol.t
(** This scheme in the protocol registry: no build phase, the
    designation pipeline runs per broadcast through the uniform engine
    (and natively under loss). *)
