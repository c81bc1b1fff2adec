module Summary = Manet_stats.Summary
module Confidence = Manet_stats.Confidence
module Sweep = Manet_experiment.Sweep
module Metric = Manet_experiment.Metric

let feq = Alcotest.float 1e-9
let feq6 = Alcotest.float 1e-6

let test_empty () =
  let s = Summary.create () in
  Alcotest.(check int) "count" 0 (Summary.count s);
  Alcotest.check feq "mean" 0. (Summary.mean s);
  Alcotest.check feq "variance" 0. (Summary.variance s);
  Alcotest.check feq "ci" 0. (Summary.ci_half_width s ~z:2.576)

let test_single () =
  let s = Summary.create () in
  Summary.add s 42.;
  Alcotest.check feq "mean" 42. (Summary.mean s);
  Alcotest.check feq "variance with one obs" 0. (Summary.variance s);
  Alcotest.check feq "min" 42. (Summary.min_value s);
  Alcotest.check feq "max" 42. (Summary.max_value s)

let test_known_values () =
  let s = Summary.create () in
  List.iter (Summary.add s) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  Alcotest.check feq "mean" 5. (Summary.mean s);
  (* sample variance with n-1 = 32 / 7 *)
  Alcotest.check feq6 "variance" (32. /. 7.) (Summary.variance s);
  Alcotest.check feq "min" 2. (Summary.min_value s);
  Alcotest.check feq "max" 9. (Summary.max_value s)

let test_matches_naive_two_pass () =
  let rng = Manet_rng.Rng.create ~seed:3 in
  let xs = Array.init 1000 (fun _ -> Manet_rng.Rng.float rng 100. -. 50.) in
  let s = Summary.create () in
  Array.iter (Summary.add s) xs;
  let n = float_of_int (Array.length xs) in
  let mean = Array.fold_left ( +. ) 0. xs /. n in
  let var = Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.)) 0. xs /. (n -. 1.) in
  Alcotest.(check (float 1e-6)) "mean matches" mean (Summary.mean s);
  Alcotest.(check (float 1e-6)) "variance matches" var (Summary.variance s)

let test_constant_stream () =
  let s = Summary.create () in
  for _ = 1 to 100 do
    Summary.add s 3.14
  done;
  Alcotest.check feq6 "zero variance" 0. (Summary.variance s);
  Alcotest.check feq6 "zero ci" 0. (Summary.ci_half_width s ~z:2.576)

let test_ci_shrinks () =
  let rng = Manet_rng.Rng.create ~seed:5 in
  let s = Summary.create () in
  for _ = 1 to 100 do
    Summary.add s (Manet_rng.Rng.float rng 1.)
  done;
  let ci100 = Summary.ci_half_width s ~z:1.96 in
  for _ = 1 to 900 do
    Summary.add s (Manet_rng.Rng.float rng 1.)
  done;
  let ci1000 = Summary.ci_half_width s ~z:1.96 in
  Alcotest.(check bool) "ci shrinks with samples" true (ci1000 < ci100)

let test_merge () =
  let rng = Manet_rng.Rng.create ~seed:7 in
  let xs = Array.init 500 (fun _ -> Manet_rng.Rng.float rng 10.) in
  let all = Summary.create () and a = Summary.create () and b = Summary.create () in
  Array.iteri
    (fun i x ->
      Summary.add all x;
      Summary.add (if i mod 3 = 0 then a else b) x)
    xs;
  let merged = Summary.merge a b in
  Alcotest.(check int) "count" (Summary.count all) (Summary.count merged);
  Alcotest.(check (float 1e-9)) "mean" (Summary.mean all) (Summary.mean merged);
  Alcotest.(check (float 1e-6)) "variance" (Summary.variance all) (Summary.variance merged);
  Alcotest.(check (float 1e-9)) "min" (Summary.min_value all) (Summary.min_value merged)

let test_merge_with_empty () =
  let a = Summary.create () in
  List.iter (Summary.add a) [ 1.; 2.; 3. ];
  let e = Summary.create () in
  Alcotest.(check (float 1e-9)) "merge right empty" (Summary.mean a)
    (Summary.mean (Summary.merge a e));
  Alcotest.(check (float 1e-9)) "merge left empty" (Summary.mean a)
    (Summary.mean (Summary.merge e a))

(* The stopping rule: [Confidence.precise] on a summary, applied by
   [Sweep.run_point] between its sample floor and cap. *)

let summary_of l =
  let s = Summary.create () in
  List.iter (Summary.add s) l;
  s

let test_precise () =
  let precise = Confidence.precise ~z:Confidence.z99 in
  Alcotest.(check bool) "constant" true (precise ~rel_precision:0.05 (summary_of [ 5.; 5.; 5. ]));
  Alcotest.(check bool) "zero mean, zero spread" true
    (precise ~rel_precision:0.05 (summary_of [ 0.; 0. ]));
  Alcotest.(check bool) "zero mean, spread" false
    (precise ~rel_precision:0.05 (summary_of [ -1.; 1. ]));
  let s = summary_of [ 9.; 10.; 11.; 10. ] in
  let rel = Summary.ci_half_width s ~z:Confidence.z99 /. Summary.mean s in
  Alcotest.(check bool) "just over the bound" true (precise ~rel_precision:(rel *. 1.001) s);
  Alcotest.(check bool) "just under the bound" false (precise ~rel_precision:(rel *. 0.999) s)

let run_point ?rel_precision ?min_samples ?max_samples ?on_chunk eval =
  Sweep.run_point ?rel_precision ?min_samples ?max_samples ?on_chunk
    ~rng:(Manet_rng.Rng.create ~seed:11)
    ~spec:(Manet_topology.Spec.make ~n:20 ~avg_degree:6. ())
    [ { Metric.name = "m"; eval } ]

let cell (p : Sweep.point) = List.assoc "m" p.cells

let test_run_point_constant () =
  let p = run_point (fun _ -> 5.) in
  Alcotest.(check bool) "converged" true (cell p).converged;
  Alcotest.(check int) "stops at floor" 30 p.samples

let test_run_point_noisy_converges () =
  let p =
    run_point ~rel_precision:0.1 (fun ctx -> 10. +. Manet_rng.Rng.float ctx.Metric.rng 2.)
  in
  let c = cell p in
  Alcotest.(check bool) "converged" true c.converged;
  let hw = Summary.ci_half_width c.summary ~z:Confidence.z99 in
  Alcotest.(check bool) "precision satisfied" true (hw <= 0.1 *. Summary.mean c.summary)

let test_run_point_cap () =
  (* Enormous variance relative to the mean: the cap must stop the run and
     report non-convergence. *)
  let p =
    run_point ~rel_precision:0.0001 ~max_samples:50 (fun ctx ->
        Manet_rng.Rng.float ctx.Metric.rng 1000.)
  in
  Alcotest.(check int) "hit the cap" 50 p.samples;
  Alcotest.(check int) "summary holds every sample" 50 (Summary.count (cell p).summary);
  Alcotest.(check bool) "not converged" false (cell p).converged

let test_run_point_chunk_order () =
  let chunks = ref [] in
  let p =
    run_point ~min_samples:20 ~max_samples:20
      ~on_chunk:(fun c _ -> chunks := c :: !chunks)
      (fun _ -> 1.)
  in
  Alcotest.(check int) "samples" 20 p.samples;
  Alcotest.(check (list int)) "chunks in order" [ 0; 1; 2 ] (List.rev !chunks)

let test_run_point_invalid () =
  Alcotest.check_raises "min < 2" (Invalid_argument "Sweep.run_point: bad bounds") (fun () ->
      ignore (run_point ~min_samples:1 (fun _ -> 0.)));
  Alcotest.check_raises "max < min" (Invalid_argument "Sweep.run_point: bad bounds") (fun () ->
      ignore (run_point ~min_samples:10 ~max_samples:9 (fun _ -> 0.)))

let test_quantiles () = Alcotest.(check (float 1e-3)) "z99" 2.576 Confidence.z99

let test_pp_smoke () =
  let s = Summary.create () in
  List.iter (Summary.add s) [ 1.; 2.; 3. ];
  let text = Format.asprintf "%a" Summary.pp s in
  Alcotest.(check bool) "summary pp mentions n" true (Test_helpers.contains text "n=3")

let () =
  Alcotest.run "stats"
    [
      ( "summary",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "single observation" `Quick test_single;
          Alcotest.test_case "known values" `Quick test_known_values;
          Alcotest.test_case "matches naive two-pass" `Quick test_matches_naive_two_pass;
          Alcotest.test_case "constant stream" `Quick test_constant_stream;
          Alcotest.test_case "ci shrinks" `Quick test_ci_shrinks;
          Alcotest.test_case "merge" `Quick test_merge;
          Alcotest.test_case "merge with empty" `Quick test_merge_with_empty;
          Alcotest.test_case "pp smoke" `Quick test_pp_smoke;
        ] );
      ( "confidence",
        [
          Alcotest.test_case "constant converges at floor" `Quick test_run_point_constant;
          Alcotest.test_case "noisy converges" `Quick test_run_point_noisy_converges;
          Alcotest.test_case "cap stops" `Quick test_run_point_cap;
          Alcotest.test_case "index order" `Quick test_run_point_chunk_order;
          Alcotest.test_case "invalid bounds" `Quick test_run_point_invalid;
          Alcotest.test_case "quantiles" `Quick test_quantiles;
          Alcotest.test_case "precise" `Quick test_precise;
        ] );
    ]
