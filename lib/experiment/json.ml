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

(* Typed accessors *)

let shape_error context expected got =
  let tag =
    match got with
    | Null -> "null"
    | Bool _ -> "a boolean"
    | Num _ -> "a number"
    | Str _ -> "a string"
    | Arr _ -> "an array"
    | Obj _ -> "an object"
  in
  Error (Printf.sprintf "%s: expected %s, found %s" context expected tag)

let to_float ~context = function
  | Num f -> Ok f
  | v -> shape_error context "a number" v

let to_int ~context = function
  | Num f when Float.is_integer f && Float.abs f <= 1e15 -> Ok (int_of_float f)
  | Num f -> Error (Printf.sprintf "%s: expected an integer, found %s" context (number_to_string f))
  | v -> shape_error context "an integer" v

let to_string_value ~context = function
  | Str s -> Ok s
  | v -> shape_error context "a string" v

let to_list ~context = function
  | Arr items -> Ok items
  | v -> shape_error context "an array" v

let to_obj ~context = function
  | Obj fields -> Ok fields
  | v -> shape_error context "an object" v
