(** A minimal JSON tree, parser and printer.

    The container image carries no JSON library, and the scenario codec
    and the sweep journal need one that round-trips floats exactly — so
    this module implements the small subset the experiment layer uses:
    objects, arrays, strings, booleans, null and IEEE doubles.

    Numbers are printed with the shortest decimal representation that
    parses back to the identical bit pattern (["%.15g"] when it
    round-trips, ["%.17g"] otherwise), so [parse (print v) = Ok v] holds
    bit-for-bit — the property the resumable sweep journal relies on.
    As an extension over strict JSON, the parser also accepts [nan],
    [inf] and [-inf] number tokens, which the printer emits for
    non-finite floats (our own files are the only input). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result
(** [Error msg] carries the byte offset and a description of the
    violation. *)

val print : ?compact:bool -> t -> string
(** Two-space indented by default; [~compact:true] is single-line (the
    journal's one-entry-per-line format). *)

val escape_string : string -> string
(** The JSON string escaping used by {!print}, without the surrounding
    quotes — shared with every other textual writer that needs to embed
    arbitrary metric names (see {!Render}). *)

val number_to_string : float -> string
(** The exact round-tripping float syntax used by {!print}: integers
    without a fractional part, everything else via shortest-exact
    decimal; [nan]/[inf]/[-inf] for non-finite values. *)

(** {1 Typed accessors}

    Each returns [Error] naming the expected shape; [context] prefixes
    the message (e.g. ["stopping.min_samples"]) so codec errors point at
    the offending field. *)

val to_float : context:string -> t -> (float, string) result
val to_int : context:string -> t -> (int, string) result
val to_string_value : context:string -> t -> (string, string) result
val to_list : context:string -> t -> (t list, string) result
val to_obj : context:string -> t -> ((string * t) list, string) result
