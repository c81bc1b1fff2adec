(* The 30 fixed golden cases shared by golden.ml, backoff.ml and
   test_protocols. *)

module Rng = Manet_rng.Rng
module Spec = Manet_topology.Spec
module Generator = Manet_topology.Generator

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

(* Each case's connected unit-disk sample, drawn from its own seed. *)
let samples () =
  List.map
    (fun (seed, n, d) ->
      let s = Generator.sample_connected (Rng.create ~seed) (Spec.make ~n ~avg_degree:d ()) in
      ((seed, n, d), s.Generator.graph))
    cases
