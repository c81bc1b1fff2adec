type entry = { degree : int; point : int; chunk : int; rows : Sweep.chunk }

type writer = out_channel

let magic = "manet-sweep"

let format_version = 1

(* The header carries the whole scenario; [journal] and [version] are
   constants of this format, checked on load. *)
let header =
  Json.(
    obj (fun _ _ scenario -> scenario)
    |> mem
         (req "journal"
            (where (String.equal magic) (fun m -> Printf.sprintf "%S is not %S" m magic) string)
            (fun _ -> magic))
    |> mem
         (req "version"
            (where (Int.equal format_version)
               (fun v ->
                 Printf.sprintf "%d is not supported (this build reads format version %d)" v
                   format_version)
               int)
            (fun _ -> format_version))
    |> mem (req "scenario" Scenario.codec Fun.id)
    |> seal)

(* One chunk per line: its RNG coordinates and its rows. *)
let entry =
  Json.(
    obj (fun degree point chunk rows -> { degree; point; chunk; rows })
    |> mem (req "degree" int (fun e -> e.degree))
    |> mem (req "point" int (fun e -> e.point))
    |> mem (req "chunk" int (fun e -> e.chunk))
    |> mem (req "rows" (array (array float)) (fun e -> e.rows))
    |> seal)

let create ~path scenario =
  let oc = open_out path in
  output_string oc (Json.print ~compact:true (Json.encode header scenario));
  output_char oc '\n';
  flush oc;
  oc

(* A crash can leave a final line without its newline: an incomplete
   append, which loading drops and reopening cuts off (appending after
   it would corrupt the journal). *)
let complete_prefix path =
  let ic = open_in_bin path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match String.rindex_opt text '\n' with None -> "" | Some i -> String.sub text 0 (i + 1)

let reopen ~path =
  let complete = complete_prefix path in
  let oc = open_out_gen [ Open_wronly; Open_creat; Open_trunc ] 0o644 path in
  output_string oc complete;
  flush oc;
  oc

let append oc e =
  output_string oc (Json.print ~compact:true (Json.encode entry e));
  output_char oc '\n';
  flush oc

let close = close_out

(* Loading *)

(* The codec checks each entry's types; its shape depends on the
   header's scenario: coordinates inside the grids, a chunk that
   [max_samples] draws, as many rows as [Sweep] puts in that chunk, and
   one value per series in every row. *)
let fits (s : Scenario.t) e =
  let max_samples = s.stopping.max_samples in
  let inside what i count =
    if i >= 0 && i < count then Ok ()
    else Error (Printf.sprintf "%s %d is outside 0..%d" what i (count - 1))
  in
  let ( let* ) = Result.bind in
  let* () = inside "degree" e.degree (List.length s.topology.degrees) in
  let* () = inside "point" e.point (List.length s.topology.ns) in
  let* () =
    inside "chunk" e.chunk ((max_samples + Sweep.chunk_size - 1) / Sweep.chunk_size)
  in
  let rows = min Sweep.chunk_size (max_samples - (e.chunk * Sweep.chunk_size)) in
  let series = List.length s.metrics in
  if Array.length e.rows <> rows then
    Error
      (Printf.sprintf "chunk %d has %d rows, where max_samples %d gives it %d" e.chunk
         (Array.length e.rows) max_samples rows)
  else
    match Array.find_index (fun r -> Array.length r <> series) e.rows with
    | None -> Ok e
    | Some i ->
      Error
        (Printf.sprintf "row %d has %d values for %d series" i (Array.length e.rows.(i)) series)

let load ~path =
  match String.split_on_char '\n' (complete_prefix path) with
  | exception Sys_error m -> Error (Printf.sprintf "journal: cannot read %s: %s" path m)
  | [] | [ "" ] -> Error (Printf.sprintf "journal: %s has no complete header line" path)
  | first :: rest -> (
    match Result.bind (Json.parse first) (Json.decode header) with
    | Error m -> Error (Printf.sprintf "journal: %s header: %s" path m)
    | Ok scenario ->
      let rec go line acc = function
        | [] | [ "" ] -> Ok (scenario, List.rev acc)
        | text :: rest -> (
          match
            Result.bind (Result.bind (Json.parse text) (Json.decode entry)) (fits scenario)
          with
          | Ok e -> go (line + 1) (e :: acc) rest
          | Error m -> Error (Printf.sprintf "journal line %d: %s" line m))
      in
      go 2 [] rest)

let matches recorded requested =
  Scenario.to_string { recorded with Scenario.domains = 1 }
  = Scenario.to_string { requested with Scenario.domains = 1 }
