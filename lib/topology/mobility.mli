(** Node mobility models.

    The paper motivates the dynamic backbone by the cost of maintaining a
    static one "in a mobile environment" (Section 1); the ext-mobility
    experiment quantifies that cost.  Two classic models are provided:

    - {b Random waypoint}: each node picks a uniform destination and speed,
      travels there in a straight line, pauses, repeats.
    - {b Random direction}: each node picks a heading and speed, travels
      until it hits the boundary, then picks a fresh heading. *)

type model = Random_waypoint | Random_direction

type t

val create :
  ?pause_time:float ->
  model:model ->
  speed_min:float ->
  speed_max:float ->
  rng:Manet_rng.Rng.t ->
  spec:Spec.t ->
  Manet_geom.Point.t array ->
  t
(** [create ~model ~speed_min ~speed_max ~rng ~spec points] starts a
    mobility process from the given initial placement.  Speeds are uniform
    in [\[speed_min, speed_max\]]; [pause_time] (default 0) applies to the
    waypoint model at each arrival.  The initial array is copied.
    @raise Invalid_argument if speeds are negative or inverted. *)

val positions : t -> Manet_geom.Point.t array
(** Current positions (a defensive copy). *)

val unsafe_positions : t -> Manet_geom.Point.t array
(** The live internal position array — no copy.  Read-only: mutating it
    corrupts the walk, and {!step} updates it in place, so the contents
    are only valid until the next step.  This is the per-step hot-path
    accessor behind {!graph}. *)

val step : t -> dt:float -> unit
(** Advance every node by [dt] time units, handling waypoint arrivals,
    pauses and boundary reflections inside the interval. *)

val graph : t -> radius:float -> Manet_graph.Graph.t
(** Unit-disk snapshot of the current positions. *)
