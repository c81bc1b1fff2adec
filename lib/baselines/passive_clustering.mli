(** Passive clustering (Kwon and Gerla), surveyed in Section 2.

    The cluster structure is built {e during} data propagation, with no
    initial clustering phase, no neighborhood tables and no maintenance
    traffic.  Each node decides its role the moment it would forward:

    - "first declaration wins": a node that has heard no neighboring
      clusterhead declares itself clusterhead and forwards;
    - a node adjacent to two or more clusterheads becomes a gateway and
      forwards, {e unless} gateways it already heard announced a
      clusterhead set covering its own (the gateway-suppression rule —
      every transmission piggybacks the sender's role and the
      clusterhead neighbors it had heard when it transmitted);
    - everything else stays ordinary and silent (it may still upgrade if
      later copies reveal new clusterheads).

    The paper credits passive clustering with zero setup cost but notes
    it "suffers poor delivery rate": suppressed gateways can leave
    cluster pairs unbridged, so the forward set need not be a CDS.  Both
    effects are measured in ext-baselines. *)

type role = Clusterhead | Gateway | Ordinary

type t = {
  result : Manet_broadcast.Result.t;
  roles : role array;  (** roles at the end of the flood *)
}

val run : rng:Manet_rng.Rng.t -> Manet_graph.Graph.t -> source:int -> t * (int * int) list
(** One flood with passive clustering forming along the way — the
    scheme's native event loop ({!Backoff.run}, on the broadcast
    engine's calendar), exposed for the roles it leaves behind; under a
    perfect MAC, {!protocol}'s broadcast is exactly this run.  The
    source declares itself clusterhead.  Each node defers its role decision by a random backoff
    of 1..4 time units, modelling the MAC serialization the suppression
    rule depends on: without it, same-layer nodes decide simultaneously
    and nobody ever hears a suppressing declaration in time.  The second
    component is the transmission timeline as [(time, node)] pairs in
    transmission order.
    @raise Invalid_argument if the source is out of range. *)

val heads : t -> Manet_graph.Nodeset.t

val gateways : t -> Manet_graph.Nodeset.t

val protocol : Manet_broadcast.Protocol.t
(** [passive] in the protocol registry; frozen-replay semantics under
    loss, like [self-pruning]. *)
