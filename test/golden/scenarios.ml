(* Golden codec output: [Scenario.to_string] of every builtin figure, in
   table order.  Compared against scenarios.expected by [dune runtest], so
   an encoder that reorders, drops or re-spells a field shows as a diff
   even where a decode/encode round trip would still hold. *)

let () =
  List.iter
    (fun (name, s) ->
      Printf.printf "== %s\n%s" name (Manet_experiment.Scenario.to_string s))
    Manet_experiment.Figures.builtins
