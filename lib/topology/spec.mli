(** Workload specification for random MANET topologies.

    Mirrors the paper's simulation environment (Section 4): a confined
    100 x 100 working space, uniform random placement, identical
    transmission ranges, a target average node degree, and rejection of
    disconnected topologies. *)

type t = {
  n : int;  (** number of hosts *)
  avg_degree : float;  (** target average node degree (paper: 6 or 18) *)
  width : float;
  height : float;
}

val make : ?width:float -> ?height:float -> n:int -> avg_degree:float -> unit -> t
(** Defaults: the paper's 100 x 100 working space.
    @raise Invalid_argument if [n < 2], [avg_degree] is not positive
    (NaN included), or a dimension is non-positive. *)

val radius : t -> float
(** Transmission range realizing the target average degree (border effects
    ignored; the realized degree is measured separately by the harness). *)

val pp : Format.formatter -> t -> unit
