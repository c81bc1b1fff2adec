(** The paper's experiment stopping rule.

    Section 4: "We repeat the simulation until the 99% confidential
    interval of the result is within +-5%."  {!precise} is that test on
    the observations so far; [Sweep.run_point] applies it before every
    sample, between a floor (so a lucky start cannot stop the run early)
    and a cap (so a zero-variance-then-noisy stream cannot run
    forever). *)

val z99 : float
(** Two-sided 99% normal quantile, 2.576. *)

val precise : z:float -> rel_precision:float -> Summary.t -> bool
(** [precise ~z ~rel_precision s] holds when the confidence interval's
    half-width [Summary.ci_half_width s ~z] is at most
    [rel_precision *. |mean s|]; when the mean is 0 it holds only for a
    zero half-width. *)
