(** Deliberately broken protocol variants — the harness's own smoke
    test.

    A correctness harness is only trustworthy if it demonstrably catches
    the bug class it was built for.  This module registers mutants with
    a seeded fault in exactly the machinery the paper's theorems depend
    on; running [manet check --mutate] (or the mutation test in the test
    suite) asserts the oracles flag them quickly and that the shrinker
    reduces the witness to a few nodes.

    Mutant names carry a [!] so they can never collide with (or be
    mistaken for) a real registry entry. *)

val drop_coverage_entry : Manet_broadcast.Protocol.t
(** [static-2.5hop!drop-coverage]: the static backbone with each
    clusterhead's gateway selection ignoring the highest clusterhead of
    its coverage set — the classic one-entry-short gateway-selection bug
    that leaves the backbone disconnected on sparse shapes. *)

val drop_connector : Manet_broadcast.Protocol.t
(** [kmcds-k2m2!drop-connector]: the k=2 m=2 backbone with one node the
    biconnectivity pass added removed again — a single-point-of-failure
    bug the [k-connectivity] and [failure-delivery] oracles exist to
    catch.  A no-op (identical to the genuine scheme) on graphs where
    the m-dominating connected base is already biconnected. *)

val under_dominate : Manet_broadcast.Protocol.t
(** [kmcds-k2m2!under-dominate]: the k=2 m=2 backbone minus one member
    that an outside node needs for its second dominator — the
    redundant-coverage bug the [m-domination] oracle exists to catch.
    A no-op when every outside node is slack-dominated. *)

val stale_window : Manet_broadcast.Protocol.t
(** [dynamic-2.5hop!stale-window]: the dynamic broadcast minus as many
    leading forwarders (never the source) as the previous broadcast of
    the same prepared instance had — the stale-state-reuse bug class the
    [instance-reuse] oracle exists to catch.  Clean on the first
    broadcast of every prepared instance; corrupts from the second
    broadcast on. *)

val all : Manet_broadcast.Protocol.t list
