(** Blind flooding: every node forwards the packet on first receipt.

    The baseline that triggers the broadcast storm problem (Ni et al.,
    MOBICOM'99) motivating the paper — its forward-node set is the whole
    network, which the extension experiments use as the upper reference
    line. *)

val protocol : Manet_broadcast.Protocol.t
(** [flooding] in the protocol registry (re-exported
    {!Manet_broadcast.Protocol.flooding}). *)
