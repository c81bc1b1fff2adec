type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* Printing *)

let number_to_string f =
  if Float.is_nan f then "nan"
  else if f = Float.infinity then "inf"
  else if f = Float.neg_infinity then "-inf"
  else if Float.is_integer f && Float.abs f < 1e16 then Printf.sprintf "%.0f" f
  else
    (* Shortest decimal that parses back to the same double: journal
       resume depends on this being exact. *)
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let escape_string s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let print ?(compact = false) v =
  let buf = Buffer.create 256 in
  let newline indent =
    if not compact then begin
      Buffer.add_char buf '\n';
      for _ = 1 to indent do
        Buffer.add_string buf "  "
      done
    end
  in
  let rec go indent = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num f -> Buffer.add_string buf (number_to_string f)
    | Str s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape_string s);
      Buffer.add_char buf '"'
    | Arr [] -> Buffer.add_string buf "[]"
    | Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buf (if compact then ", " else ",");
          newline (indent + 1);
          go (indent + 1) item)
        items;
      newline indent;
      Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf (if compact then ", " else ",");
          newline (indent + 1);
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape_string k);
          Buffer.add_string buf "\": ";
          go (indent + 1) v)
        fields;
      newline indent;
      Buffer.add_char buf '}'
  in
  go 0 v;
  Buffer.contents buf

(* Parsing: a plain recursive-descent parser over the input string. *)

exception Parse_error of int * string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let error msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> error (Printf.sprintf "expected %C, found %C" c c')
    | None -> error (Printf.sprintf "expected %C, found end of input" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else error (Printf.sprintf "invalid token (expected %s)" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then error "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
          advance ();
          (if !pos >= n then error "unterminated escape"
           else
             match s.[!pos] with
             | '"' -> Buffer.add_char buf '"'; advance ()
             | '\\' -> Buffer.add_char buf '\\'; advance ()
             | '/' -> Buffer.add_char buf '/'; advance ()
             | 'n' -> Buffer.add_char buf '\n'; advance ()
             | 'r' -> Buffer.add_char buf '\r'; advance ()
             | 't' -> Buffer.add_char buf '\t'; advance ()
             | 'b' -> Buffer.add_char buf '\b'; advance ()
             | 'f' -> Buffer.add_char buf '\012'; advance ()
             | 'u' ->
               advance ();
               if !pos + 4 > n then error "truncated \\u escape";
               let hex = String.sub s !pos 4 in
               let code =
                 match int_of_string_opt ("0x" ^ hex) with
                 | Some c -> c
                 | None -> error (Printf.sprintf "invalid \\u escape %S" hex)
               in
               pos := !pos + 4;
               (* Code points above 0xff only appear in our own ASCII
                  files by accident; store as UTF-8. *)
               if code < 0x80 then Buffer.add_char buf (Char.chr code)
               else if code < 0x800 then begin
                 Buffer.add_char buf (Char.chr (0xc0 lor (code lsr 6)));
                 Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
               end
               else begin
                 Buffer.add_char buf (Char.chr (0xe0 lor (code lsr 12)));
                 Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
                 Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
               end
             | c -> error (Printf.sprintf "invalid escape \\%C" c));
          loop ()
        | c ->
          Buffer.add_char buf c;
          advance ();
          loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    (* Non-standard tokens the printer emits for non-finite floats. *)
    if !pos + 3 <= n && String.sub s !pos 3 = "inf" then begin
      pos := !pos + 3;
      float_of_string (String.sub s start (!pos - start))
    end
    else if !pos + 3 <= n && String.sub s !pos 3 = "nan" then begin
      pos := !pos + 3;
      Float.nan
    end
    else begin
      let num_char c =
        match c with '0' .. '9' | '.' | 'e' | 'E' | '+' | '-' -> true | _ -> false
      in
      while !pos < n && num_char s.[!pos] do
        advance ()
      done;
      let text = String.sub s start (!pos - start) in
      match float_of_string_opt text with
      | Some f -> f
      | None -> error (Printf.sprintf "invalid number %S" text)
    end
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> error "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec fields_loop () =
          skip_ws ();
          let key = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          fields := (key, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); fields_loop ()
          | Some '}' -> advance ()
          | _ -> error "expected ',' or '}' in object"
        in
        fields_loop ();
        Obj (List.rev !fields)
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let items = ref [] in
        let rec items_loop () =
          let v = parse_value () in
          items := v :: !items;
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); items_loop ()
          | Some ']' -> advance ()
          | _ -> error "expected ',' or ']' in array"
        in
        items_loop ();
        Arr (List.rev !items)
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' ->
      if !pos + 3 <= n && String.sub s !pos 3 = "nan" then Num (parse_number ())
      else literal "null" Null
    | Some ('-' | '0' .. '9' | 'i') -> Num (parse_number ())
    | Some c -> error (Printf.sprintf "unexpected character %C" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then error "trailing garbage after JSON value";
    v
  with
  | v -> Ok v
  | exception Parse_error (at, msg) -> Error (Printf.sprintf "JSON error at byte %d: %s" at msg)

(* Codecs.  A failure raises [Invalid] with the path below the failing
   level; each object or list level re-raises it with its own segment
   prepended, so no path or message is built while decoding or checking
   succeeds.  A range error prints "path message", a shape error
   "path: message". *)

type error = { path : string; range : bool; msg : string }

exception Invalid of error

let shape msg = raise (Invalid { path = ""; range = false; msg })

let fail ?(at = "") msg = raise (Invalid { path = at; range = true; msg })

let within seg e =
  let sep = if e.path = "" || e.path.[0] = '[' then "" else "." in
  Invalid { e with path = seg ^ sep ^ e.path }

let mismatch expected got =
  let tag =
    match got with
    | Null -> "null"
    | Bool _ -> "a boolean"
    | Num _ -> "a number"
    | Str _ -> "a string"
    | Arr _ -> "an array"
    | Obj _ -> "an object"
  in
  shape (Printf.sprintf "expected %s, found %s" expected tag)

(* [checked] is false when [check] has nothing to check, so validation
   skips the value without walking it. *)
type 'a codec = { enc : 'a -> t; dec : t -> 'a; check : 'a -> unit; checked : bool }

let no_check _ = ()

let plain enc dec = { enc; dec; check = no_check; checked = false }

let float = plain (fun f -> Num f) (function Num f -> f | v -> mismatch "a number" v)

let int =
  plain
    (fun i -> Num (float_of_int i))
    (function
      | Num f when Float.is_integer f && Float.abs f <= 1e15 -> int_of_float f
      | Num f -> shape ("expected an integer, found " ^ number_to_string f)
      | v -> mismatch "an integer" v)

let string = plain (fun s -> Str s) (function Str s -> s | v -> mismatch "a string" v)

let rec member key = function
  | [] -> None
  | (k, j) :: rest -> if String.equal k key then Some j else member key rest

let unknown what tag tags =
  shape (Printf.sprintf "unknown %s %S (expected one of: %s)" what tag (String.concat ", " tags))

let enum ~what tags =
  let rec tag_of v = function
    | (tag, v') :: rest -> if v' = v then tag else tag_of v rest
    | [] -> invalid_arg ("Json.enum: untagged " ^ what)
  in
  plain
    (fun v -> Str (tag_of v tags))
    (function
      | Str s -> (
        match member s tags with Some v -> v | None -> unknown what s (List.map fst tags))
      | v -> mismatch "a string" v)

let where ok msg c =
  let verify v = if not (ok v) then fail (msg v) in
  let check = if c.checked then fun v -> (c.check v; verify v) else verify in
  { c with dec = (fun j -> let v = c.dec j in verify v; v); check; checked = true }

let list c =
  let at i e = within ("[" ^ string_of_int i ^ "]") e in
  let rec dec i = function
    | [] -> []
    | x :: rest ->
      let v = try c.dec x with Invalid e -> raise (at i e) in
      v :: dec (i + 1) rest
  in
  let rec check i = function
    | [] -> ()
    | x :: rest ->
      (try c.check x with Invalid e -> raise (at i e));
      check (i + 1) rest
  in
  {
    enc = (fun l -> Arr (List.map c.enc l));
    dec = (function Arr items -> dec 0 items | v -> mismatch "an array" v);
    check = check 0;
    checked = c.checked;
  }

let array c =
  let l = list c in
  let rec enc a i acc = if i < 0 then acc else enc a (i - 1) (c.enc a.(i) :: acc) in
  {
    enc = (fun a -> Arr (enc a (Array.length a - 1) []));
    dec = (fun j -> Array.of_list (l.dec j));
    check = (fun a -> l.check (Array.to_list a));
    checked = c.checked;
  }

(* Objects *)

type 'a presence = Required | Default of 'a | Omit of 'a

type ('r, 'a) field = { key : string; codec : 'a codec; presence : 'a presence; proj : 'r -> 'a }

let req key codec proj = { key; codec; presence = Required; proj }

let dflt key codec d proj = { key; codec; presence = Default d; proj }

let omit key codec d proj = { key; codec; presence = Omit d; proj }

let opt key c proj =
  let enc = function Some v -> c.enc v | None -> Null in
  let check = function Some v -> c.check v | None -> () in
  omit key { enc; dec = (fun j -> Some (c.dec j)); check; checked = c.checked } None proj

type 'r mem = Mem : ('r, 'a) field -> 'r mem

type ('r, 'f) obj = { mems : 'r mem list; build : (string * t) list -> 'f }

let obj f = { mems = []; build = (fun _ -> f) }

let get f members =
  match member f.key members with
  | Some j -> ( try f.codec.dec j with Invalid e -> raise (within f.key e))
  | None -> (
    match f.presence with
    | Default d | Omit d -> d
    | Required -> shape (Printf.sprintf "missing required field %S" f.key))

let mem f o =
  { mems = Mem f :: o.mems; build = (fun members -> let k = o.build members in k (get f members)) }

let rec encode_members r = function
  | [] -> []
  | Mem f :: rest -> (
    let v = f.proj r in
    match f.presence with
    | Omit d when v = d -> encode_members r rest
    | Required | Default _ | Omit _ -> (f.key, f.codec.enc v) :: encode_members r rest)

let rec check_members r = function
  | [] -> ()
  | Mem f :: rest ->
    (try f.codec.check (f.proj r) with Invalid e -> raise (within f.key e));
    check_members r rest

let rec declared k = function [] -> false | key :: rest -> String.equal k key || declared k rest

let rec known keys = function
  | [] -> ()
  | (k, _) :: rest ->
    if not (declared k keys) then
      shape (Printf.sprintf "unknown field %S (expected one of: %s)" k (String.concat ", " keys));
    if Option.is_some (member k rest) then shape (Printf.sprintf "duplicate field %S" k);
    known keys rest

let seal ?check o =
  let fields = List.rev o.mems in
  let keys = List.map (fun (Mem f) -> f.key) fields in
  (* [validate] visits only the members that have something to check. *)
  let checks = List.filter (fun (Mem f) -> f.codec.checked) fields in
  let whole = Option.value check ~default:no_check in
  let dec members =
    known keys members;
    let r = o.build members in
    whole r;
    r
  in
  {
    enc = (fun r -> Obj (encode_members r fields));
    dec = (function Obj members -> dec members | v -> mismatch "an object" v);
    check = (fun r -> check_members r checks; whole r);
    checked = checks <> [] || Option.is_some check;
  }

(* Variants: objects told apart by one string member, written first. *)

type 'r case = string * 'r codec

let case tag o = (tag, seal o)

let variant ~key ~what cases case_of =
  let tag_field = req key string Fun.id in
  let untagged (k, _) = not (String.equal k key) in
  let dec members =
    let tag = get tag_field members in
    let rest = List.filter untagged members in
    if List.length members - List.length rest > 1 then
      shape (Printf.sprintf "duplicate field %S" key);
    match member tag cases with
    | Some c -> c.dec (Obj rest)
    | None -> ( try unknown what tag (List.map fst cases) with Invalid e -> raise (within key e))
  in
  {
    enc =
      (fun r ->
        let tag, c = case_of r in
        match c.enc r with Obj members -> Obj ((key, Str tag) :: members) | j -> j);
    dec = (function Obj members -> dec members | v -> mismatch "an object" v);
    check = (fun r -> (snd (case_of r)).check r);
    checked = true;
  }

let encode c v = c.enc v

let message e = if e.path = "" then e.msg else e.path ^ (if e.range then " " else ": ") ^ e.msg

let decode c j = match c.dec j with v -> Ok v | exception Invalid e -> Error (message e)

let validate c v = match c.check v with () -> Ok () | exception Invalid e -> Error (message e)
