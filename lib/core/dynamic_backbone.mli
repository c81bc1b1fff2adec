(** The dynamic backbone: the paper's cluster-based source-dependent CDS.

    Gateways are selected per broadcast, while the packet traverses the
    network (Section 3):

    {ol
    {- A non-clusterhead source sends the packet to its clusterhead (all
       neighbors overhear it).}
    {- A clusterhead receiving the packet for the first time selects
       forward gateways covering its coverage set {e pruned} by upstream
       history, transmits with its coverage set and forward-node set
       piggybacked, then ignores duplicates.}
    {- A non-clusterhead relays iff it was selected as a forward node,
       exactly once.}}

    Relaying is driven by {e designation events}: a gateway selected by
    clusterhead h relays at h's transmission time plus its hop distance
    from h.  This resolves a race the paper's accounting leaves implicit —
    a gateway serving two clusterheads transmits once, yet both
    clusterheads' 2/3-hop chains complete, because the packet data already
    reached the chain physically and only the 2-hop designation signal is
    outstanding.  Full delivery on connected graphs is therefore
    guaranteed, matching Theorem 2 (and asserted by the test suite).

    The pruning level controls how much upstream history is used, so the
    ext-pruning ablation can separate the contributions:

    - [Sender_only]: a clusterhead only excludes its upstream clusterhead
      sender from its coverage set.
    - [Coverage_piggyback]: also excludes every clusterhead in the
      upstream sender's piggybacked coverage set — the paper's core rule
      C(v) := C(v) - C(u) - {u}.
    - [Coverage_and_relay] (default, the full paper rule): additionally
      excludes clusterheads adjacent to the last relaying node r, which
      overheard r's transmission — C(v) := C(v) - C(u) - {u} - N(r). *)

type pruning = Sender_only | Coverage_piggyback | Coverage_and_relay

val protocol : ?pruning:pruning -> Manet_coverage.Coverage.mode -> Manet_broadcast.Protocol.t
(** [dynamic-2.5hop] / [dynamic-3hop] (plus [/sender] and [/coverage]
    ablation entries) in the protocol registry; [pruning] defaults to
    [Coverage_and_relay].  No build phase — the SD-CDS forms while the
    packet propagates, and a broadcast's forward set is that SD-CDS:
    its size is the quantity of the paper's Figures 7 and 8 (dynamic
    backbone).  Every broadcast reads the CH_HOP tables and coverage
    sets the environment keeps ({!Manet_broadcast.Protocol.coverage}),
    built on the first broadcast and shared with every other protocol
    on that environment, and runs its event loop and flat coverage sets
    in the environment's arena.  Under loss the forward set is frozen from a
    loss-free run and replayed ({!Manet_broadcast.Protocol.frozen_lossy}):
    designations are control signals with no loss model, only data
    propagation is unreliable.  Broadcasting from a source outside the
    graph raises [Invalid_argument]. *)
