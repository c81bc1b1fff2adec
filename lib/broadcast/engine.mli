(** Generic broadcast-propagation engine.

    Models the shared assumptions of every protocol in the paper: wireless
    local broadcast (one transmission reaches all 1-hop neighbors one time
    unit later), each node reacts only to its {e first} copy of the
    packet, and collisions are handled below the network layer
    (Section 4: "We assume that all the transmission collision and
    contention are taken care of at the underground physical and MAC
    layers").

    A protocol is a [decide] predicate: offered each received copy of
    the packet, named by its receiver and its sender, the node either
    stays silent ([false]) or transmits ([true]).  A node transmits at
    most once, and once it has transmitted it is never asked again.
    Offering {e every} copy until transmission matters for
    source-dependent protocols: a node's forward-node designation can
    arrive in a later copy than its first.  The engine carries no packet:
    a protocol that reads the sender's (dominant pruning's forward list)
    keeps it itself, indexed by the sender.  The SI-CDS broadcast,
    flooding, dominant pruning, PDP, AHBP and MPR are all instances
    (the dynamic backbone's designation events and the backoff
    schemes' timers use {!Scratch}, on the same calendar).

    Determinism: receptions are processed in (time, receiver, sender)
    order, so when several copies arrive in the same time unit the
    receiver sees the one from the smallest sender id. *)

module Arena : sig
  type t
  (** Reusable engine scratch: generation-tagged delivered/transmitted
      maps, the frontier calendar of pending receptions and the
      transmission timeline.  Reusing an arena across broadcasts makes
      the engine's own steady-state allocation O(1) and never changes
      results — runs are bit-identical whether
      the arena is fresh or reused.  What a run builds on top
      is its epilogue's: {!run_core} materializes the caller-owned
      {!Result.t} and timeline (O(n) per run), {!run_count} only a
      three-field {!counts} record.

      The calendar holds one time unit (a {e level}) at a time: the
      receptions for time [t + 1] are appended to a buffer while level
      [t] is processed, and sorted once, by a stable LSD radix sort on
      the packed (receiver, sender) key, when level [t + 1] opens.

      Ownership: an arena is single-threaded state.  One arena must not
      be shared between concurrently running domains; keep one arena per
      worker (that is what {!get} provides).  Reentrancy is safe: a
      broadcast started from inside another broadcast's [decide] finds
      the arena mid-run and silently falls back to a private fresh
      one. *)

  val create : unit -> t
  (** A fresh, empty arena.  Buffers grow to fit the largest graph it
      serves and are retained between runs. *)

  val get : unit -> t
  (** The calling domain's own arena (domain-local storage): what
      {!Protocol.make_env} takes when given none, so per-domain reuse
      needs no explicit threading. *)

  val reserve : t -> n:int -> unit
  (** Pre-size the node-indexed buffers (maps and timeline) for an
      [n]-node graph.  Runs do this on demand; a long-lived
      serving loop calls it once up front so that no broadcast of the
      stream grows the arena mid-run.  Idempotent; never shrinks. *)
end

(** What a count-only epilogue returns: the broadcast's counts, equal to
    {!Result.forward_count}, {!Result.delivered_count} and
    [completion_time] of the materialized result. *)
type counts = {
  forwards : int;  (** nodes that transmitted, the source included *)
  delivered : int;  (** nodes that received the packet, the source included *)
  completion_time : int;  (** time of the last first delivery *)
}

(** The arena opened up for protocols with bespoke event loops (the
    dynamic backbone's designation events and the backoff schemes'
    timers, which {!run_core}'s decide-callback shape cannot express):
    the same generation-tagged delivered/transmitted maps and the same
    frontier calendar.  An event is one int: its payload, a small
    non-negative int, rides in the key's low bits, so a bespoke loop
    pushes and reads events without allocating.  An event is scheduled
    one to four time units after the open level (a data copy, a
    designation travelling up to two hops, or a backoff expiry); the
    levels beyond the next one wait in a small ring of future levels.
    Events are read in exactly {!run_core}'s order — (time, node, sender) lexicographic; events
    carrying {e equal} (time, node, sender) keys are all read, in push
    order. *)
module Scratch : sig
  type t

  val with_scratch : arena:Arena.t -> n:int -> payload_bound:int -> (t -> 'a) -> 'a
  (** Acquire scratch for one broadcast over an [n]-node graph whose
      event payloads lie in [\[0, payload_bound)]: the same busy-flag
      acquisition and silent fresh-arena fallback as {!run_core}, one
      generation bump
      resetting the node maps, calendar and trace.  The
      clock starts at time 0.  The scratch value must not escape the
      callback.
      @raise Invalid_argument if [payload_bound < 1], or if the packed
      (node, sender, payload) key does not fit an int. *)

  val delivered : t -> int -> bool

  val mark_delivered : t -> int -> bool
  (** Marks the node delivered; [true] iff it was not already. *)

  val transmitted : t -> int -> bool
  val mark_transmitted : t -> int -> unit

  val trace : t -> time:int -> node:int -> unit
  (** Append to the transmission timeline: call exactly once per
      transmitting node, in processing order. *)

  val push : t -> time:int -> node:int -> sender:int -> payload:int -> unit
  (** Schedule an event at [time], which must be one to four units
      after the current event's time (after time 0 before the first
      {!advance}).
      @raise Invalid_argument if [time] is outside that window or
      [payload] outside [\[0, payload_bound)]. *)

  val advance : t -> bool
  (** Move to the next pending event, opening the next level when the
      current one is exhausted; [false] once none remain.  The event's
      fields are then read with {!time}, {!node}, {!sender} and
      {!payload} — field-wise access keeps the loop free of tuple
      allocation. *)

  val time : t -> int
  val node : t -> int
  val sender : t -> int
  val payload : t -> int

  type 'r epilogue = t -> source:int -> completion:int -> 'r
  (** How a bespoke loop reads its finished broadcast, inside
      {!with_scratch}: a loop is written once, parametrised by its
      epilogue, and run with {!finish} or {!count}. *)

  val finish : (Result.t * (int * int) list) epilogue
  (** The caller-owned result and timeline, materialized from the
      generation tags — the same epilogue {!run_core} uses. *)

  val count : counts epilogue
  (** The count-only epilogue, {!run_count}'s: the timeline's length
      (every transmitter is traced once), the number of
      {!mark_delivered} calls that returned [true], and [completion].
      It reads three fields and allocates only the record, so a loop
      run through it builds nothing that grows with [n].  Equal to the
      counts of {!finish}'s result when [completion] is. *)
end

val run_core :
  ?drop:(unit -> bool) ->
  ?down:(time:int -> node:int -> bool) ->
  arena:Arena.t ->
  Manet_graph.Graph.t ->
  source:int ->
  decide:(node:int -> from:int -> bool) ->
  Result.t * (int * int) list
(** The one event loop behind every decide-style broadcast (the uniform
    pipeline of {!Protocol}'s decide constructors).  The source
    transmits at time 0 (the source always transmits and is counted as
    a forwarder; [decide] is not called for it).  Each transmission by
    [v] at time [t] delivers to every neighbor at [t + 1]; deliveries
    invoke [decide ~node ~from] until the node transmits, and [true]
    schedules the node's own transmission at its delivery time.  Runs
    until no transmission is in flight, and returns the result together
    with the transmission timeline as [(time, node)] pairs in
    transmission order.

    [drop] is consulted once per reception event, in (time, receiver,
    sender) processing order; a [true] verdict discards that reception
    before the node sees it.  Absent, nothing drops (the perfect MAC);
    under [Lossy], {!Protocol}'s pipeline passes a closure that draws
    from the environment's generator, so one code path serves the perfect and the
    lossy engine.  Without [drop], a copy addressed to a node that has
    already transmitted is never scheduled: that node is delivered and
    is never offered a copy again, so the reception could change
    nothing.  With [drop] (even one that never fires) every copy is
    scheduled and consulted, so the loss draws keep their order; both
    give identical results, timelines and [decide] calls.

    [down ~time ~node] injects {e node} failures on the same loop: a
    node down at a reception's delivery time neither receives nor
    (since receive and forward share the event) transmits, so a kill
    silences the node for as long as the predicate holds.  Evaluated
    after [drop], so enabling failures never perturbs the loss
    stream.  Defaults to no node ever being down.  The source's initial
    time-0 transmission is unconditional — failing the source is
    indistinguishable from not broadcasting.

    [arena] supplies the run's scratch storage, reset by a generation
    bump instead of reallocation, so repeated broadcasts on one arena
    reuse storage ({!Arena.get} is the calling domain's).  A required
    argument: an optional one would allocate its [Some] on every
    broadcast.  Results and timelines are bit-identical for any
    arena state — see {!Arena}.
    @raise Invalid_argument if [source] is out of range. *)

val run_count :
  ?drop:(unit -> bool) ->
  ?down:(time:int -> node:int -> bool) ->
  arena:Arena.t ->
  Manet_graph.Graph.t ->
  source:int ->
  decide:(node:int -> from:int -> bool) ->
  counts
(** {!run_core}'s broadcast read through a count-only epilogue: the same
    event loop, [decide] calls, [drop] draws and [down] queries, and
    counts equal to {!Result.forward_count}, {!Result.delivered_count}
    and [completion_time] of {!run_core}'s result.  It builds neither
    the delivered array, the forwarder set nor the timeline, so a run
    allocates nothing that grows with [n].  Every caller that reads
    only counts goes through it: the serving loop's arrivals and, via
    {!Protocol.built}'s [count], the sweep metrics.
    @raise Invalid_argument if [source] is out of range. *)

val run_si_count :
  arena:Arena.t -> Manet_graph.Graph.t -> source:int -> member:Bytes.t option -> counts
(** The counts of a source-independent broadcast with no loss and no
    failed node, from one traversal instead of the reception loop:
    [member] is the forwarding set as a byte indicator (node [v]
    forwards iff [v < Bytes.length b] and byte [v] is non-zero), and
    [None] makes every node forward (flooding).  The source always
    transmits.

    Equal to {!run_count}'s counts with the decide that answers
    [true] exactly at members: without [drop] or [down], that decide
    makes a member transmit at its first reception, whatever the copy,
    so a node's first delivery is one unit after the earliest
    transmission among its neighbours.  A FIFO of transmitters, kept in
    the arena's timeline buffers, visits them in non-decreasing time;
    first deliveries are marked on the arena's generation-tagged map.
    The forwards are the FIFO's length, the delivered count the marked
    nodes and the completion time that of the last first delivery.
    There is no level sort, no packed key and no call per reception.
    Same arena contract as {!run_core}: results do not depend on the
    arena's state, and a busy arena is replaced by a fresh one.
    @raise Invalid_argument if [source] is out of range. *)
