(** Random distributions on top of {!Rng}. *)

val uniform : Rng.t -> lo:float -> hi:float -> float
(** [uniform g ~lo ~hi] is uniform in [\[lo, hi)].
    @raise Invalid_argument if [hi < lo]. *)
