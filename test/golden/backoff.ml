(* Golden transmission timelines of the three backoff schemes: for each
   of the 30 fixed cases of golden.ml, under a perfect MAC, the full
   [(time, node)] timeline of self-pruning, counter and passive, and
   passive clustering's final roles (H clusterhead, G gateway,
   O ordinary, one letter per node).  protocols.expected pins only the
   forward set, delivered count and completion time; this file also
   pins the order of transmissions within a time unit.  Compared
   against backoff.expected by [dune runtest]; regenerate with
   [dune promote]. *)

module Rng = Manet_rng.Rng
module Protocol = Manet_broadcast.Protocol
module Passive = Manet_baselines.Passive_clustering

let schemes = [ "self-pruning"; "counter"; "passive" ]

let role_char = function
  | Passive.Clusterhead -> 'H'
  | Passive.Gateway -> 'G'
  | Passive.Ordinary -> 'O'

let () =
  let samples = Cases.samples () in
  List.iter
    (fun name ->
      let p = Manet_protocols.Registry.find_exn name in
      List.iter
        (fun ((seed, n, d), g) ->
          let source = seed mod n in
          let env = Protocol.make_env ~rng:(Rng.create ~seed) g in
          let _, timeline = (p.prepare env).run ~source ~mode:Protocol.Perfect in
          Printf.printf "%s %d %d %g %d timeline=[%s]\n" name seed n d source
            (String.concat "," (List.map (fun (t, v) -> Printf.sprintf "%d:%d" t v) timeline)))
        samples)
    schemes;
  List.iter
    (fun ((seed, n, d), g) ->
      let source = seed mod n in
      let p, _ = Passive.run ~rng:(Rng.create ~seed) g ~source in
      Printf.printf "passive %d %d %g %d roles=%s\n" seed n d source
        (String.init n (fun v -> role_char p.Passive.roles.(v))))
    samples
