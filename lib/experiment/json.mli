(** A minimal JSON tree, parser, printer and declarative codec.

    The build carries no JSON library, and the scenario codec and the
    sweep journal need one that round-trips floats exactly — so this
    module implements the small subset the experiment layer uses:
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

(** {1 Codecs}

    A codec declares a document once; encoding, strict decoding and
    {!validate} all walk that one declaration.  An object is declared
    member by member ({!obj}, {!mem}, {!seal}): each member names its
    key, codec, default and projection from the record, and range checks
    attach to codecs with {!where}.

    Decoding rejects undeclared and repeated members, missing required
    ones, values of the wrong shape, unknown enum or variant tags and
    failed range checks.  Errors name the member by its path: a range
    error reads ["failures.kill must be >= 1 (got 0)"], a shape error
    ["metrics[2].loss: expected a number, found a string"].  Paths and
    messages are built only on failure. *)

type 'a codec

val float : float codec
(** Any number, the non-finite ones included. *)

val int : int codec
(** An integral number of magnitude at most 1e15 ([1.5] is rejected). *)

val string : string codec

val enum : what:string -> (string * 'a) list -> 'a codec
(** A string naming one of the listed values ("unknown <what> ..."). *)

val list : 'a codec -> 'a list codec

val array : 'a codec -> 'a array codec

val where : ('a -> bool) -> ('a -> string) -> 'a codec -> 'a codec
(** [where ok msg c] accepts the values [v] of [c] with [ok v]; any other
    is rejected with [msg v] after its path, by {!decode} and {!validate}. *)

val fail : ?at:string -> string -> 'a
(** A range error from a {!seal} check or an {!obj} constructor, at the
    path [at] below the object (default: the object itself). *)

type ('r, 'a) field
(** One member of an object of OCaml type ['r]. *)

val req : string -> 'a codec -> ('r -> 'a) -> ('r, 'a) field
(** [req key codec proj]: required, always written. *)

val dflt : string -> 'a codec -> 'a -> ('r -> 'a) -> ('r, 'a) field
(** Defaults when absent, always written. *)

val omit : string -> 'a codec -> 'a -> ('r -> 'a) -> ('r, 'a) field
(** Defaults when absent, not written when equal to the default. *)

val opt : string -> 'a codec -> ('r -> 'a option) -> ('r, 'a option) field
(** [None] when absent, not written when [None]. *)

type ('r, 'f) obj
(** An object being declared; its constructor still takes ['f]. *)

val obj : 'f -> ('r, 'f) obj
(** [obj make]: the decoder applies [make] to the members in order. *)

val mem : ('r, 'a) field -> ('r, 'a -> 'f) obj -> ('r, 'f) obj
(** The next member, written in declaration order. *)

val seal : ?check:('r -> unit) -> ('r, 'r) obj -> 'r codec
(** [check] relates members; it runs after them and rejects with {!fail}. *)

type 'r case

val case : string -> ('r, 'r) obj -> 'r case

val variant : key:string -> what:string -> 'r case list -> ('r -> 'r case) -> 'r codec
(** Objects told apart by the string member [key], written first;
    [case_of] picks a value's case without scanning the list. *)

val encode : 'a codec -> 'a -> t

val decode : 'a codec -> t -> ('a, string) result

val validate : 'a codec -> 'a -> (unit, string) result
(** The range checks of {!decode}, on a value built in OCaml. *)
