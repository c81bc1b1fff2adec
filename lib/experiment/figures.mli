(** The paper's figures and this repository's extension experiments.

    Every figure is {e data}: a {!Scenario.t} in
    {!builtins}, executed by {!Runner.run} (and from the command line as
    [manet run <name>]).  The scenario's [description] records the
    expected shape of its curves; EXPERIMENTS.md records
    paper-vs-measured values.  An experiment with a second axis beyond n
    (loss rate, speed) spreads it over the columns: one series per
    value, labelled ["<series>@<value>"].

    All experiments share the evaluation setup of Section 4: a 100 x 100
    space, uniform placement, rejection of disconnected topologies,
    d in {6, 18}, n = 20..100, and the repeat-until-99%-CI-within-±5%
    stopping rule (bounded by [max_samples]). *)

val builtins : (string * Scenario.t) list
(** Every figure, keyed by scenario name:

    - [fig6] — average CDS size: static backbone (2.5-hop, 3-hop) vs
      MO_CDS.  Expected: curves nearly coincide, static slightly below.
    - [fig7] — forward-node-set size: dynamic backbone vs MO_CDS.
      Expected: dynamic well below MO_CDS.
    - [fig8] — forward set, static vs dynamic backbone (both modes).
      Expected: dynamic below static, modes nearly equal.
    - [ext-baselines] — forward counts across every baseline protocol.
    - [ext-si-cds] — CDS sizes across the source-independent algorithms.
    - [ext-clustering] — lowest-ID vs highest-connectivity ablation.
    - [ext-msgs] — construction message complexity (O(n) check).
    - [ext-delivery] — delivery ratios of the SD protocols (≈ 1.0).
    - [ext-pruning] — dynamic-backbone pruning levels.
    - [ext-resilience] — delivery after a backbone node dies.
    - [ext-traffic] — a continuous broadcast stream under churn.
    - [ext-lossy] — delivery under per-reception loss (n = 100, d = 8).
    - [ext-border] — confined vs toroidal metric on the same placements.
    - [ext-reliable] — ack/retransmit over the forwarding tree vs
      flooding, per loss rate (n = 100, d = 8).
    - [ext-maintenance] — clustering and backbone upkeep per step under
      motion vs on-demand gateway selection, per speed (n = 100, d = 6).
    - [ext-mobility] — lifetime of a frozen static backbone under
      motion and stale vs dynamic delivery, per speed (n = 100, d = 6).
    - [ext-approx] — |CDS| / |MCDS| on small n against branch and bound.

    All run at the paper's full precision; apply {!Scenario.quicken} for
    a smoke run. *)

val builtin_exn : string -> Scenario.t
(** Look up a builtin by name.
    @raise Invalid_argument on unknown names, listing the valid ones. *)
