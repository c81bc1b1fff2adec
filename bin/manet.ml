(* The `manet` command-line tool: generate topologies, build backbones,
   run broadcasts and regenerate the paper's figures without writing any
   OCaml. *)

open Cmdliner

module Graph = Manet_graph.Graph
module Nodeset = Manet_graph.Nodeset
module Export = Manet_graph.Export
module Spec = Manet_topology.Spec
module Generator = Manet_topology.Generator
module Coverage = Manet_coverage.Coverage
module Result = Manet_broadcast.Result
module Protocol = Manet_broadcast.Protocol
module Registry = Manet_protocols.Registry

(* Shared topology arguments *)

let n_arg =
  Arg.(value & opt int 60 & info [ "n" ] ~docv:"N" ~doc:"Number of hosts to generate.")

let degree_arg =
  Arg.(
    value
    & opt float 6.
    & info [ "d"; "degree" ] ~docv:"D" ~doc:"Target average node degree (paper: 6 or 18).")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let edges_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "edges" ] ~docv:"FILE"
        ~doc:"Load the topology from an edge CSV (as written by $(b,generate --format csv)) \
              instead of generating one.")

let source_arg =
  Arg.(value & opt int 0 & info [ "source" ] ~docv:"NODE" ~doc:"Broadcast source node.")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write to FILE instead of standard output.")

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_out out text =
  match out with
  | None -> print_string text
  | Some path ->
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text);
    Printf.printf "wrote %s\n" path

(* Returns the graph plus positions when generated (positions pin DOT
   layouts; absent for loaded edge lists). *)
let topology edges n degree seed =
  match edges with
  | Some path -> (Export.of_edge_csv (read_file path), None)
  | None ->
    let rng = Manet_rng.Rng.create ~seed in
    let sample = Generator.sample_connected rng (Spec.make ~n ~avg_degree:degree ()) in
    (sample.graph, Some sample.points)

(* generate *)

let generate_cmd =
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("dot", `Dot); ("csv", `Csv); ("adjacency", `Adjacency) ]) `Csv
      & info [ "format" ] ~docv:"FMT" ~doc:"Output format: $(b,csv), $(b,dot) or $(b,adjacency).")
  in
  let run n degree seed format out =
    let g, positions = topology None n degree seed in
    let text =
      match format with
      | `Csv -> Export.to_edge_csv g
      | `Adjacency -> Export.to_adjacency_lines g
      | `Dot -> Export.to_dot ?positions g
    in
    write_out out text;
    Printf.eprintf "generated: n=%d m=%d avg degree %.2f\n" (Graph.n g) (Graph.m g)
      (Graph.avg_degree g)
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a random connected MANET topology (paper Section 4 setup).")
    Term.(const run $ n_arg $ degree_arg $ seed_arg $ format_arg $ out_arg)

(* backbone *)

let backbone_cmd =
  let algo_arg =
    let choices = List.map (fun p -> (p.Protocol.name, p)) Registry.backbones in
    Arg.(
      value
      & opt (enum choices) (Registry.find_exn "static-2.5hop")
      & info [ "algo" ] ~docv:"ALGO"
          ~doc:
            (Printf.sprintf "CDS construction, any registered backbone protocol: %s."
               (String.concat ", "
                  (List.map (fun (name, _) -> Printf.sprintf "$(b,%s)" name) choices))))
  in
  let dot_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"FILE" ~doc:"Also write a Graphviz rendering with the CDS filled.")
  in
  let run edges n degree seed proto dot =
    let g, positions = topology edges n degree seed in
    let members =
      match (proto.Protocol.prepare (Protocol.make_env g)).Protocol.members with
      | Some members -> members
      | None -> assert false (* Registry.backbones only lists materialized structures *)
    in
    Format.printf "%s: %d of %d nodes@." proto.Protocol.name (Nodeset.cardinal members)
      (Graph.n g);
    Format.printf "members = %a@." Nodeset.pp members;
    Format.printf "verified CDS: %b@." (Manet_graph.Dominating.is_cds g members);
    match dot with
    | None -> ()
    | Some path ->
      write_out (Some path) (Export.to_dot ~highlight:members ?positions g)
  in
  Cmd.v
    (Cmd.info "backbone" ~doc:"Build a CDS backbone and verify it.")
    Term.(const run $ edges_arg $ n_arg $ degree_arg $ seed_arg $ algo_arg $ dot_arg)

(* broadcast *)

let broadcast_cmd =
  let proto_arg =
    let choices = List.map (fun p -> (p.Protocol.name, p)) Registry.all in
    Arg.(
      value
      & opt (enum choices) (Registry.find_exn "dynamic-2.5hop")
      & info [ "proto" ] ~docv:"PROTO"
          ~doc:"Broadcast protocol, any registered name (see $(b,manet protocols)).")
  in
  let loss_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "loss" ] ~docv:"P"
          ~doc:"Drop each reception independently with probability P (failure injection).")
  in
  let trace_arg =
    Arg.(
      value & flag
      & info [ "trace" ] ~doc:"Print the transmission timeline (time: nodes).")
  in
  let run edges n degree seed proto source loss trace =
    let g, _ = topology edges n degree seed in
    if source < 0 || source >= Graph.n g then
      invalid_arg (Printf.sprintf "source %d out of range (n=%d)" source (Graph.n g));
    let env = Protocol.make_env ~rng:(Manet_rng.Rng.create ~seed) g in
    let mode = match loss with None -> Protocol.Perfect | Some l -> Protocol.Lossy l in
    let r, timeline = (proto.Protocol.prepare env).Protocol.run ~source ~mode in
    Format.printf "%a@." Result.pp r;
    Format.printf "forwarders = %a@." Nodeset.pp r.forwarders;
    if trace then begin
      let by_time = Hashtbl.create 16 in
      List.iter
        (fun (t, v) ->
          Hashtbl.replace by_time t (v :: Option.value ~default:[] (Hashtbl.find_opt by_time t)))
        timeline;
      let times = Hashtbl.fold (fun t _ acc -> t :: acc) by_time [] |> List.sort compare in
      List.iter
        (fun t ->
          Format.printf "t=%d:" t;
          List.iter (Format.printf " %d") (List.rev (Hashtbl.find by_time t));
          Format.printf "@.")
        times
    end
  in
  Cmd.v
    (Cmd.info "broadcast" ~doc:"Run one broadcast and report the forward-node set.")
    Term.(
      const run $ edges_arg $ n_arg $ degree_arg $ seed_arg $ proto_arg $ source_arg $ loss_arg
      $ trace_arg)

(* protocols *)

let protocols_cmd =
  let run () =
    let width =
      List.fold_left (fun acc p -> max acc (String.length p.Protocol.name)) 0 Registry.all
    in
    List.iter
      (fun p ->
        Printf.printf "%-*s  %-4s  %-5s  %s\n" width p.Protocol.name
          (Protocol.family_tag p.Protocol.family)
          (if p.Protocol.has_build then "build" else "-")
          p.Protocol.description)
      Registry.all
  in
  Cmd.v
    (Cmd.info "protocols"
       ~doc:
         "List every registered broadcast protocol (name, family: SI/SD/prob, whether it has a \
          proactive build phase, description).")
    Term.(const run $ const ())

(* check *)

let check_cmd =
  let module Runner = Manet_check.Runner in
  let module Oracle = Manet_check.Oracle in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Harness seed (replay key).")
  in
  let cases_arg =
    Arg.(value & opt int 200 & info [ "cases" ] ~docv:"N" ~doc:"Number of random cases to draw.")
  in
  let proto_arg =
    Arg.(
      value
      & opt_all string []
      & info [ "proto" ] ~docv:"PROTO"
          ~doc:
            "Restrict per-protocol oracles to PROTO (repeatable; default: every registered \
             protocol).")
  in
  let oracle_arg =
    Arg.(
      value
      & opt_all string []
      & info [ "oracle" ] ~docv:"ORACLE"
          ~doc:
            (Printf.sprintf "Run only ORACLE (repeatable; default: the full catalog: %s)."
               (String.concat ", " Oracle.names)))
  in
  let mutate_arg =
    Arg.(
      value & flag
      & info [ "mutate" ]
          ~doc:
            "Also check the deliberately broken mutant protocols (harness self-test; expected to \
             fail).")
  in
  let list_arg =
    Arg.(value & flag & info [ "list" ] ~doc:"List the oracle catalog and exit.")
  in
  let resolve_proto name =
    match Registry.find name with
    | Some p -> p
    | None ->
      (match
         List.find_opt
           (fun p -> String.equal p.Protocol.name name)
           Manet_check.Mutate.all
       with
      | Some p -> p
      | None -> Registry.find_exn name (* raises, listing the known names *))
  in
  let run seed cases protos oracles mutate list out =
    if list then begin
      let width =
        List.fold_left (fun acc o -> max acc (String.length o.Oracle.name)) 0 Oracle.all
      in
      List.iter
        (fun o ->
          Printf.printf "%-*s  %-12s  %s\n" width o.Oracle.name
            (match o.Oracle.check with
            | Oracle.Structural _ -> "structural"
            | Oracle.Per_protocol _ -> "per-protocol")
            o.Oracle.description)
        Oracle.all;
      `Ok ()
    end
    else begin
      let protos =
        (match protos with [] -> Registry.all | names -> List.map resolve_proto names)
        @ (if mutate then Manet_check.Mutate.all else [])
      in
      let oracles =
        match oracles with [] -> Oracle.all | names -> List.map Oracle.find_exn names
      in
      let config = Runner.config ~seed ~cases ~protos ~oracles () in
      Printf.printf "check: seed=%d cases=%d protocols=%d oracles=%d\n%!" seed cases
        (List.length protos) (List.length oracles);
      let outcome = Runner.run config in
      match outcome.Runner.failure with
      | None ->
        Printf.printf "OK: %d cases, %d checks passed, %d skipped\n" outcome.Runner.cases_run
          outcome.Runner.checks outcome.Runner.skips;
        `Ok ()
      | Some f ->
        print_string
          (Manet_check.Report.summary ~oracle:f.Runner.oracle.Oracle.name ~proto:f.Runner.proto
             ~original:f.Runner.case ~shrunk:f.Runner.shrunk ~message:f.Runner.message);
        (match out with
        | Some _ -> write_out out f.Runner.reproducer
        | None -> print_string f.Runner.reproducer);
        flush stdout;
        `Error (false, "invariant violated")
    end
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Run the randomized invariant-oracle harness: generate seeded random topologies, check \
          every oracle (coverage sets, domination, backbone connectivity, delivery, determinism) \
          against every protocol, and shrink the first counterexample to a minimal reproducer.")
    Term.(
      ret
        (const run $ seed_arg $ cases_arg $ proto_arg $ oracle_arg $ mutate_arg $ list_arg
       $ out_arg))

(* cluster *)

let cluster_cmd =
  let algo_arg =
    Arg.(
      value
      & opt (enum [ ("lowest-id", `Lowest_id); ("highest-degree", `Highest_degree) ]) `Lowest_id
      & info [ "algo" ] ~docv:"ALGO" ~doc:"Election rule: $(b,lowest-id) or $(b,highest-degree).")
  in
  let run edges n degree seed algo =
    let g, _ = topology edges n degree seed in
    let cl =
      match algo with
      | `Lowest_id -> Manet_cluster.Lowest_id.cluster g
      | `Highest_degree -> Manet_cluster.Highest_degree.cluster g
    in
    Format.printf "%a" Manet_cluster.Clustering.pp cl;
    Format.printf "%d clusters over %d nodes@." (Manet_cluster.Clustering.num_clusters cl)
      (Graph.n g);
    let cg = Manet_backbone.Cluster_graph.build g cl Coverage.Hop25 in
    Format.printf "cluster graph (2.5-hop): %d links, strongly connected: %b@."
      (Manet_backbone.Cluster_graph.num_links cg)
      (Manet_backbone.Cluster_graph.is_strongly_connected cg)
  in
  Cmd.v
    (Cmd.info "cluster" ~doc:"Cluster a topology and inspect the cluster graph.")
    Term.(const run $ edges_arg $ n_arg $ degree_arg $ seed_arg $ algo_arg)

(* run *)

let run_cmd =
  let module Scenario = Manet_experiment.Scenario in
  let module Figures = Manet_experiment.Figures in
  let module Runner = Manet_experiment.Runner in
  let module Render = Manet_experiment.Render in
  let scenario_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"SCENARIO"
          ~doc:
            "A scenario JSON file, or the name of a builtin figure (see $(b,--list)).  Builtin \
             names win over file names.")
  in
  let quick_arg =
    Arg.(
      value & flag
      & info [ "quick" ] ~doc:"Few samples, three network sizes (smoke run; see --list).")
  in
  let domains_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"N"
          ~doc:"Evaluate sweep points on N parallel domains (results identical).")
  in
  let journal_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Stream every evaluated sample chunk to FILE (JSONL).  A killed run restarted with \
             $(b,--resume) continues from it bit-identically.")
  in
  let resume_arg =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Trust the chunks already recorded in $(b,--journal) and evaluate only the missing \
             ones.  A missing journal file starts a fresh run.")
  in
  let out_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"DIR"
          ~doc:
            "Write one CSV and one JSON table per target degree into DIR instead of printing \
             text tables.")
  in
  let list_arg =
    Arg.(value & flag & info [ "list" ] ~doc:"List the builtin scenarios and exit.")
  in
  let run which quick domains journal resume out list =
    if list then begin
      let width =
        List.fold_left (fun acc (name, _) -> max acc (String.length name)) 0 Figures.builtins
      in
      List.iter
        (fun (name, (s : Scenario.t)) -> Printf.printf "%-*s %s\n" width name s.description)
        Figures.builtins;
      `Ok ()
    end
    else
      match which with
      | None ->
        `Error (true, "expected a scenario file or builtin name (use --list to see the builtins)")
      | Some which -> (
        let load () =
          match List.assoc_opt which Figures.builtins with
          | Some s -> Ok s
          | None ->
            if Sys.file_exists which then Scenario.of_string (read_file which)
            else
              Error
                (Printf.sprintf
                   "%s is neither a builtin scenario (see manet run --list) nor a file" which)
        in
        match load () with
        | Error m -> `Error (false, m)
        | Ok scenario -> (
          let scenario = if quick then Scenario.quicken scenario else scenario in
          let scenario =
            match domains with None -> scenario | Some d -> { scenario with Scenario.domains = d }
          in
          if resume && journal = None then `Error (true, "--resume requires --journal FILE")
          else
            let progress (p : Runner.progress) =
              Printf.eprintf "[%d/%d] n=%d d=%g: %d samples\n%!" p.points_done p.points_total
                p.point.Manet_experiment.Sweep.n p.point.Manet_experiment.Sweep.d
                p.point.Manet_experiment.Sweep.samples
            in
            match Runner.run ?journal ~resume ~progress scenario with
            | exception (Failure m | Invalid_argument m) -> `Error (false, m)
            | tables ->
              let degrees = scenario.Scenario.topology.Scenario.degrees in
              List.iter2
                (fun d table ->
                  match out with
                  | None ->
                    print_string (Render.to_text ~title:scenario.Scenario.name table)
                  | Some dir ->
                    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
                    let base =
                      if List.length degrees = 1 then scenario.Scenario.name
                      else Printf.sprintf "%s_d%g" scenario.Scenario.name d
                    in
                    let csv = Filename.concat dir (base ^ ".csv") in
                    let json = Filename.concat dir (base ^ ".json") in
                    Render.write_csv ~path:csv table;
                    Render.write_json ~path:json table;
                    Printf.printf "wrote %s\n" csv;
                    Printf.printf "wrote %s\n" json)
                degrees tables;
              `Ok ()))
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run an experiment scenario: a builtin figure by name, or any scenario JSON file.  With \
          $(b,--journal) the run streams its results and can be killed and resumed \
          bit-identically with $(b,--resume).")
    Term.(
      ret
        (const run $ scenario_arg $ quick_arg $ domains_arg $ journal_arg $ resume_arg
       $ out_dir_arg $ list_arg))

let () =
  let info =
    Cmd.info "manet" ~version:Version.v
      ~doc:"Cluster-based backbone infrastructure for broadcasting in MANETs (Lou & Wu, IPPS'03)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            generate_cmd;
            cluster_cmd;
            backbone_cmd;
            broadcast_cmd;
            protocols_cmd;
            check_cmd;
            run_cmd;
          ]))
