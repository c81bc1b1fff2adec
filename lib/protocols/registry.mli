(** The protocol registry: every broadcast scheme in the repository as a
    first-class {!Manet_broadcast.Protocol.t}, keyed by a stable name.

    This is the only public way to run a broadcast, and the single point
    the experiment metrics, the figures, the [manet] CLI, the bench, the
    examples and the failure-injection sweeps dispatch through: adding a
    protocol here (one registration) makes it appear in all of them —
    forward-count sweeps, delivery-ratio and loss sweeps, transmission
    timelines, [manet protocols] and [manet broadcast --proto NAME] —
    with no per-consumer wiring.

    Registered names:
    - [static-2.5hop], [static-3hop] — the paper's static backbone;
    - [dynamic-2.5hop], [dynamic-3hop] — the paper's dynamic backbone,
      plus the pruning ablations [dynamic-2.5hop/sender] and
      [dynamic-2.5hop/coverage];
    - [mo_cds], [wu-li], [tree-cds], [greedy-cds] — SI-CDS comparators;
    - [dp], [pdp], [ahbp], [mpr], [fwd-tree] — source-dependent schemes;
    - [flooding], [self-pruning], [counter], [passive] — flooding and
      the broadcast-storm remedies. *)

val all : Manet_broadcast.Protocol.t list
(** Every registered protocol, in presentation order (the paper's
    backbones first).  Names are unique (checked at load time). *)

val names : string list
(** The registered names, in {!all} order. *)

val find : string -> Manet_broadcast.Protocol.t option

val find_exn : string -> Manet_broadcast.Protocol.t
(** @raise Invalid_argument on an unknown name, listing the known ones. *)

val backbones : Manet_broadcast.Protocol.t list
(** The source-independent protocols with a build phase — exactly those
    whose prepared {!Manet_broadcast.Protocol.built} carries a
    materialized CDS ([members <> None]), usable as standalone backbone
    constructions (the [manet backbone] choices). *)
