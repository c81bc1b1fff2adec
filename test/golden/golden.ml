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
module Spec = Manet_topology.Spec
module Generator = Manet_topology.Generator
module Protocol = Manet_broadcast.Protocol
module Result = Manet_broadcast.Result

let degrees = [| 4.; 6.; 10.; 18. |]

(* (seed, n, d) with n in 8..60 and d in {4, 6, 10, 18}; a degree too
   high for a small n falls back to the largest one below n - 1. *)
let cases =
  List.init 30 (fun i ->
      let n = 8 + (i * 17 mod 53) in
      let fits d = d <= float_of_int (n - 2) in
      let d = degrees.(i mod 4) in
      let d =
        if fits d then d else Array.fold_left (fun a x -> if fits x then x else a) 4. degrees
      in
      (1000 + (7919 * i), n, d))

let modes = [ Protocol.Perfect; Protocol.Lossy 0.2 ]

let pp_mode = function
  | Protocol.Perfect -> "Perfect"
  | Protocol.Lossy l -> Printf.sprintf "Lossy %g" l

let () =
  let samples =
    List.map
      (fun (seed, n, d) ->
        let s = Generator.sample_connected (Rng.create ~seed) (Spec.make ~n ~avg_degree:d ()) in
        ((seed, n, d), s.Generator.graph))
      cases
  in
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
