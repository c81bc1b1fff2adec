(** A deterministic continuous-time event timeline.

    Where the broadcast engine drives round-based propagation on integer
    unit times, a timeline orders {e workload} events — Poisson traffic
    arrivals, node churn, mobility steps, periodic maintenance — on one
    shared float-valued clock.  Ties are broken first by an explicit
    integer [rank] (lower fires first: a topology change at time t is
    visible to a broadcast arriving at the same t when its rank says so)
    and then by scheduling order, so a run is a pure function of the
    schedule — the determinism contract the resumable serving runs rely
    on.  The queue is a binary min-heap; [schedule] and [pop] take
    O(log k) for k pending events. *)

type 'a t

val create : unit -> 'a t

val schedule : 'a t -> time:float -> rank:int -> 'a -> unit
(** Enqueue an event.  [time] may equal the current minimum (events are
    popped, not swept), but must be finite.
    @raise Invalid_argument on a NaN or infinite [time]. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the earliest event: smallest [time], then smallest
    [rank], then first scheduled. *)
