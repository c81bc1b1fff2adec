(** AHBP — the Ad Hoc Broadcast Protocol (Peng and Lu), the last of the
    source-dependent schemes surveyed in Section 2 of the paper.

    Like dominant pruning, a sender designates a set of 1-hop neighbors
    (its {e broadcast relay gateways}, BRGs) whose neighborhoods cover
    its 2-hop neighborhood, and only BRGs forward.  AHBP additionally
    exploits that every BRG of the upstream sender u {e will} forward:
    when BRG v selects its own BRGs it excludes not only N(u) and N(v)
    but also the neighborhoods of u's whole BRG set, shrinking the
    cover universe further than DP or PDP. *)

val protocol : Manet_broadcast.Protocol.t
(** This scheme in the protocol registry: no build phase, the
    designation pipeline runs per broadcast through the uniform engine
    (and natively under loss). *)
