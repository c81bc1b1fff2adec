(** The streaming sweep journal: an append-only JSONL file recording
    every evaluated sample chunk with its RNG coordinates.

    Line 1 is a header carrying the full scenario (so a journal is
    self-describing and a resume can refuse a mismatched one); every
    following line is one chunk:

    {v
    {"journal": "manet-sweep", "version": 1, "scenario": {...}}
    {"degree": 0, "point": 0, "chunk": 0, "rows": [[...], ...]}
    v}

    [degree]/[point]/[chunk] are the RNG coordinates — the indices of
    the degree table, the size point within it, and the sample chunk
    within the point (the degree and size themselves are not
    repeated).  Together with the scenario seed they pin the
    generator that produced the rows, so feeding the entries back
    through {!Sweep}'s [cached] hook replays a killed sweep
    bit-identically: recorded chunks are trusted, missing ones are
    recomputed from the re-derived generator splits.  Floats are written
    in shortest-exact form ({!Json.number_to_string}), so a round trip
    loses nothing.

    Both kinds of line are decoded by {!Json}'s strict codec, the header
    with {!Scenario.codec}: unknown or repeated members, a non-integer
    coordinate or version, and a foreign [journal] tag are errors.  A
    trailing line without a terminating newline (the footprint of a kill
    mid-append) is ignored on load; any other malformation is an error
    naming the line. *)

type entry = {
  degree : int;  (** index into the scenario's degree grid *)
  point : int;  (** index into the scenario's size grid *)
  chunk : int;  (** sample-chunk index within the point *)
  rows : Sweep.chunk;
}

type writer

val create : path:string -> Scenario.t -> writer
(** Truncate [path] and write the header for the given scenario. *)

val append : writer -> entry -> unit
(** Append one chunk line and flush it (so a kill loses at most the
    line being written). *)

val reopen : path:string -> writer
(** Open an existing journal for appending (after {!load}). *)

val close : writer -> unit

val load : path:string -> (Scenario.t * entry list, string) result
(** Parse a journal back: the scenario of its header plus every complete
    entry, in file order.  Tolerates exactly one truncated trailing
    line.  Each entry must fit the header's scenario: [degree] and
    [point] inside its grids, [chunk] one that [max_samples] draws, with
    as many rows as {!Sweep} puts in that chunk ({!Sweep.chunk_size},
    the last one shorter) and one value per series in every row; an
    entry that does not is an error naming its line
    (["journal line K: ..."]). *)

val matches : Scenario.t -> Scenario.t -> bool
(** Whether a journal written under the first scenario may resume the
    second: equal up to [domains] (results are domain-invariant, so the
    domain count may change between runs). *)
