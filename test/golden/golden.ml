(* Golden outputs of every registered protocol: for each registry name
   and each of 30 fixed connected unit-disk cases, one line per
   broadcast under a perfect MAC and under 20% reception loss.  The
   environment's generator is seeded from the case, so the lines pin the
   forward sets, the probabilistic schemes' backoff draws and the
   per-reception loss draw order.  Compared against protocols.expected
   by [dune runtest]; regenerate with [dune promote]. *)

module Rng = Manet_rng.Rng
module Graph = Manet_graph.Graph
module Nodeset = Manet_graph.Nodeset
module Protocol = Manet_broadcast.Protocol
module Result = Manet_broadcast.Result

let modes = [ Protocol.Perfect; Protocol.Lossy 0.2 ]

let pp_mode = function
  | Protocol.Perfect -> "Perfect"
  | Protocol.Lossy l -> Printf.sprintf "Lossy %g" l

let () =
  let samples = Cases.samples () in
  List.iter
    (fun (p : Protocol.t) ->
      List.iter
        (fun ((seed, n, d), g) ->
          let source = seed mod n in
          List.iter
            (fun mode ->
              let env = Protocol.make_env ~rng:(Rng.create ~seed) g in
              let r, _ = (p.prepare env).run ~source ~mode in
              Printf.printf "%s %d %d %g %d %s fwd=[%s] delivered=%d completion=%d\n" p.name seed
                n d source (pp_mode mode)
                (String.concat "," (List.map string_of_int (Nodeset.elements r.Result.forwarders)))
                (Result.delivered_count r) r.Result.completion_time)
            modes)
        samples)
    Manet_protocols.Registry.all
