module Figures = Manet_experiment.Figures
module Scenario = Manet_experiment.Scenario
module Runner = Manet_experiment.Runner
module Sweep = Manet_experiment.Sweep
module Metric = Manet_experiment.Metric
module Render = Manet_experiment.Render
module Summary = Manet_stats.Summary
module Coverage = Manet_coverage.Coverage
open Test_helpers

let mean_of point name =
  match List.assoc_opt name (point : Sweep.point).cells with
  | Some (c : Sweep.cell) -> Summary.mean c.summary
  | None -> Alcotest.failf "metric %s missing" name

(* A builtin figure under the quick configuration, optionally with the
   test's own (smaller) grids. *)
let quick_builtin ?ns ?degrees name =
  let s = Scenario.quicken (Figures.builtin_exn name) in
  {
    s with
    Scenario.topology =
      {
        s.Scenario.topology with
        Scenario.ns = Option.value ns ~default:s.Scenario.topology.Scenario.ns;
        degrees = Option.value degrees ~default:s.Scenario.topology.Scenario.degrees;
      };
  }

(* Run a builtin and hand each degree's table to [f]. *)
let per_degree ?ns ?degrees name f =
  let s = quick_builtin ?ns ?degrees name in
  List.iter2 f s.Scenario.topology.Scenario.degrees (Runner.run s)

(* Metric contexts *)

let test_metric_draw () =
  let rng = Manet_rng.Rng.create ~seed:3 in
  let spec = Manet_topology.Spec.make ~n:30 ~avg_degree:6. () in
  let ctx = Metric.draw rng spec in
  Alcotest.(check bool) "connected" true
    (Manet_graph.Connectivity.is_connected ctx.Metric.graph);
  Alcotest.(check bool) "source in range" true (ctx.source >= 0 && ctx.source < 30)

let test_metric_draw_perturbed () =
  (* A mobility-perturbed draw measures the walked snapshot (same node
     count, possibly disconnected).  The walk draws from its own split
     after placement, so a zero-step walk reproduces the unperturbed
     topology exactly. *)
  let perturb steps =
    {
      Metric.model = Manet_topology.Mobility.Random_waypoint;
      steps;
      dt = 1.;
      speed_min = 5.;
      speed_max = 5.;
      pause_time = 0.;
    }
  in
  let spec = Manet_topology.Spec.make ~n:25 ~avg_degree:6. () in
  let walked = Metric.draw ~perturb:(perturb 10) (Manet_rng.Rng.create ~seed:11) spec in
  Alcotest.(check int) "all nodes present" 25 (Manet_graph.Graph.n walked.Metric.graph);
  let frozen = Metric.draw ~perturb:(perturb 0) (Manet_rng.Rng.create ~seed:11) spec in
  let still = Metric.draw (Manet_rng.Rng.create ~seed:11) spec in
  Alcotest.(check int) "zero-step walk keeps the placement topology"
    (Manet_graph.Graph.m still.Metric.graph)
    (Manet_graph.Graph.m frozen.Metric.graph)

(* One environment per sample: the series of fig6, fig7 and fig8 read
   the same values from one shared environment (one CH_HOP table per
   mode) as from a fresh environment per series.  A structure-size
   series over a highest-degree clustering sits between them: it must
   get tables of its own clustering, and leave the shared ones intact. *)
let test_shared_env_rows () =
  let series name = Scenario.compile (Figures.builtin_exn name) in
  let highest = Manet_cluster.Highest_degree.cluster in
  let metrics =
    Array.of_list
      (series "fig6"
      @ [
          Metric.structure_size ~name:"static-2.5hop/deg" ~clustering:highest "static-2.5hop";
          Metric.structure_size ~name:"mo_cds/deg" ~clustering:highest "mo_cds";
        ]
      @ series "fig7" @ series "fig8")
  in
  let bits row = Array.map Int64.bits_of_float row in
  List.iter
    (fun (seed, n, d) ->
      let spec = Manet_topology.Spec.make ~n ~avg_degree:d () in
      (* Two draws of the same stream: equal contexts, physically apart. *)
      let draw () = Metric.draw (Manet_rng.Rng.create ~seed) spec in
      let shared_ctx = draw () and fresh_ctx = draw () in
      Metric.clear_sample ();
      let shared = Array.map (fun (m : Metric.t) -> m.eval shared_ctx) metrics in
      let fresh =
        Array.map
          (fun (m : Metric.t) ->
            Metric.clear_sample ();
            m.eval fresh_ctx)
          metrics
      in
      Metric.clear_sample ();
      Array.iteri
        (fun i (m : Metric.t) ->
          Alcotest.(check int64)
            (Printf.sprintf "seed %d n=%d d=%g: %s" seed n d m.name)
            (bits fresh).(i) (bits shared).(i))
        metrics)
    [ (1, 20, 6.); (2, 50, 6.); (3, 100, 6.); (4, 30, 18.); (5, 60, 18.); (6, 100, 18.) ]

let test_env_of_per_sample () =
  let spec = Manet_topology.Spec.make ~n:30 ~avg_degree:6. () in
  let ctx = Metric.draw (Manet_rng.Rng.create ~seed:8) spec in
  let other = Metric.draw (Manet_rng.Rng.create ~seed:9) spec in
  let env = Metric.env_of ctx in
  Alcotest.(check bool) "one env per context" true (Metric.env_of ctx == env);
  Alcotest.(check bool) "another context, another env" false (Metric.env_of other == env);
  Alcotest.(check bool) "the store holds one context" false (Metric.env_of ctx == env);
  let env = Metric.env_of ctx in
  Metric.clear_sample ();
  Alcotest.(check bool) "cleared store, fresh env" false (Metric.env_of ctx == env);
  Metric.clear_sample ()

(* Sweep mechanics *)

(* The series of one sample see one environment, and the sample is
   dropped from the store once its row is complete. *)
let test_sweep_clears_sample () =
  let seen = ref [] in
  let probe name =
    {
      Metric.name;
      eval =
        (fun ctx ->
          seen := (name, ctx, Metric.env_of ctx) :: !seen;
          0.);
    }
  in
  let spec = Manet_topology.Spec.make ~n:20 ~avg_degree:6. () in
  ignore
    (Sweep.run_point ~min_samples:3 ~max_samples:3 ~rng:(Manet_rng.Rng.create ~seed:12) ~spec
       [ probe "a"; probe "b" ]);
  Alcotest.(check int) "two series, three samples" 6 (List.length !seen);
  (match !seen with
  | ("b", ctx, env_b) :: ("a", ctx', env_a) :: _ ->
    Alcotest.(check bool) "same sample" true (ctx == ctx');
    Alcotest.(check bool) "one env per sample" true (env_a == env_b);
    Alcotest.(check bool) "store emptied after the row" false (Metric.env_of ctx == env_b);
    Metric.clear_sample ()
  | _ -> Alcotest.fail "series evaluated out of order")

let test_sweep_shape () =
  let rng = Manet_rng.Rng.create ~seed:1 in
  let table =
    Sweep.run ~min_samples:3 ~max_samples:4 ~rng ~d:6. ~ns:[ 20; 30 ]
      [ Metric.cluster_count; Metric.realized_degree ]
  in
  Alcotest.(check (list string)) "metric names" [ "clusters"; "degree" ] table.metrics;
  Alcotest.(check int) "two points" 2 (List.length table.points);
  List.iter
    (fun (p : Sweep.point) ->
      Alcotest.(check bool) "samples within bounds" true (p.samples >= 3 && p.samples <= 4);
      Alcotest.(check int) "cells per metric" 2 (List.length p.cells))
    table.points

let test_sweep_deterministic () =
  let run () =
    let rng = Manet_rng.Rng.create ~seed:9 in
    Sweep.run ~min_samples:3 ~max_samples:3 ~rng ~d:6. ~ns:[ 25 ] [ Metric.cluster_count ]
  in
  let a = run () and b = run () in
  let va = mean_of (List.hd a.points) "clusters" in
  let vb = mean_of (List.hd b.points) "clusters" in
  Alcotest.(check (float 1e-12)) "same seed, same result" va vb

let test_sweep_domains_deterministic () =
  (* Parallel evaluation must be bit-identical to sequential: the chunked
     stopping-rule fold makes the result independent of the domain count,
     including when the rule stops mid-chunk (min < max exercises it). *)
  let run domains =
    let rng = Manet_rng.Rng.create ~seed:31 in
    Sweep.run ~min_samples:4 ~max_samples:20 ~rel_precision:0.2 ~domains ~rng ~d:6.
      ~ns:[ 20; 30; 40 ]
      [ Metric.cluster_count; Metric.structure_size "static-2.5hop" ]
  in
  let a = run 1 and b = run 4 in
  List.iter2
    (fun (pa : Sweep.point) (pb : Sweep.point) ->
      Alcotest.(check int) "same samples" pa.samples pb.samples;
      List.iter2
        (fun (na, (ca : Sweep.cell)) (nb, (cb : Sweep.cell)) ->
          Alcotest.(check string) "metric order" na nb;
          Alcotest.(check (float 0.)) "same mean" (Summary.mean ca.summary)
            (Summary.mean cb.summary);
          Alcotest.(check (float 0.)) "same variance" (Summary.variance ca.summary)
            (Summary.variance cb.summary))
        pa.cells pb.cells)
    a.points b.points

let test_sweep_stopping_rule () =
  (* A zero-variance metric converges exactly at the floor. *)
  let rng = Manet_rng.Rng.create ~seed:2 in
  let constant = { Metric.name = "const"; eval = (fun _ -> 1.) } in
  let spec = Manet_topology.Spec.make ~n:20 ~avg_degree:6. () in
  let p = Sweep.run_point ~min_samples:5 ~max_samples:100 ~rng ~spec [ constant ] in
  Alcotest.(check int) "stops at floor" 5 p.samples;
  match p.cells with
  | [ (_, c) ] -> Alcotest.(check bool) "converged" true c.converged
  | _ -> Alcotest.fail "one cell expected"

(* Figures: quick-config smoke runs asserting the paper's orderings. *)

let test_fig6_shape () =
  per_degree "fig6" (fun d t ->
      List.iter
        (fun p ->
          let s25 = mean_of p "static-2.5hop" in
          let s3 = mean_of p "static-3hop" in
          let mo = mean_of p "mo_cds" in
          (* Paper: curves nearly coincide; enforce a loose band. *)
          Alcotest.(check bool)
            (Printf.sprintf "d=%g n=%d: static near mo_cds" d p.Sweep.n)
            true
            (s25 <= mo *. 1.15 && s3 <= mo *. 1.15 && s25 >= mo *. 0.6))
        t.Sweep.points)

let test_fig7_shape () =
  per_degree "fig7" (fun d t ->
      List.iter
        (fun p ->
          let dyn = mean_of p "dynamic-2.5hop" in
          let mo = mean_of p "mo_cds" in
          Alcotest.(check bool)
            (Printf.sprintf "d=%g n=%d: dynamic (%f) <= mo_cds (%f)" d p.Sweep.n dyn mo)
            true (dyn <= mo *. 1.02))
        t.Sweep.points)

let test_fig8_shape () =
  per_degree ~degrees:[ 18. ] "fig8" (fun _ t ->
      List.iter
        (fun p ->
          let stat = mean_of p "static-2.5hop" in
          let dyn = mean_of p "dynamic-2.5hop" in
          (* quick config uses very few samples; allow an absolute slack of
             one forward node to absorb noise at small n *)
          Alcotest.(check bool)
            (Printf.sprintf "n=%d dynamic (%f) <= static (%f) + 1" p.Sweep.n dyn stat)
            true (dyn <= stat +. 1.))
        t.Sweep.points)

let test_ext_delivery_perfect () =
  per_degree ~degrees:[ 6. ] "ext-delivery" (fun _ t ->
      List.iter
        (fun p ->
          List.iter
            (fun (name, (c : Sweep.cell)) ->
              Alcotest.(check (float 1e-9))
                (Printf.sprintf "%s delivery at n=%d" name p.Sweep.n)
                1. (Summary.mean c.summary))
            p.Sweep.cells)
        t.Sweep.points)

let test_ext_msgs_linear () =
  per_degree ~degrees:[ 6. ] "ext-msgs" (fun _ t ->
      List.iter
        (fun p ->
          let per_node = mean_of p "total/n" in
          Alcotest.(check bool)
            (Printf.sprintf "messages per node (%f) bounded at n=%d" per_node p.Sweep.n)
            true
            (per_node >= 2. && per_node <= 6.))
        t.Sweep.points)

let test_ext_approx_ratios () =
  per_degree ~ns:[ 10; 14 ] "ext-approx" (fun _ t ->
      List.iter
        (fun p ->
          List.iter
            (fun name ->
              let r = mean_of p name in
              Alcotest.(check bool)
                (Printf.sprintf "%s ratio (%f) sane at n=%d" name r p.Sweep.n)
                true
                (r >= 1.0 && r < 12.))
            [ "static-2.5hop/mcds"; "static-3hop/mcds"; "mo_cds/mcds"; "greedy/mcds" ])
        t.Sweep.points)

let test_ext_clustering () =
  per_degree ~degrees:[ 6. ] "ext-clustering" (fun _ t ->
      List.iter
        (fun p ->
          let id_size = mean_of p "static-2.5hop" in
          let deg_size = mean_of p "static-2.5hop/deg" in
          Alcotest.(check bool)
            (Printf.sprintf "sizes comparable at n=%d (%.1f vs %.1f)" p.Sweep.n id_size deg_size)
            true
            (deg_size <= id_size *. 1.3 && deg_size >= id_size *. 0.5))
        t.Sweep.points)

let test_ext_si_cds () =
  per_degree ~degrees:[ 6. ] "ext-si-cds" (fun _ t ->
      List.iter
        (fun p ->
          (* the cluster count is a floor for every cluster-based CDS *)
          let clusters = mean_of p "clusters" in
          List.iter
            (fun name ->
              Alcotest.(check bool)
                (Printf.sprintf "%s >= clusters at n=%d" name p.Sweep.n)
                true
                (mean_of p name >= clusters -. 1e-9))
            [ "static-2.5hop"; "mo_cds"; "tree-cds" ])
        t.Sweep.points)

(* The builtins with a second axis (loss, speed) spread it over the
   columns as "<series>@<value>"; their single point is n = 100. *)

let at = Scenario.label_at

let single_point name =
  match Runner.run (quick_builtin name) with
  | [ { Sweep.points = [ p ]; _ } ] -> p
  | _ -> Alcotest.failf "%s: one table with one point expected" name

let increasing label values =
  ignore
    (List.fold_left
       (fun prev (x, v) ->
         Alcotest.(check bool) (Printf.sprintf "%s grows at %g (%f > %f)" label x v prev) true (v > prev);
         v)
       neg_infinity values)

let test_ext_lossy () =
  let p = single_point "ext-lossy" in
  List.iter
    (fun proto ->
      Alcotest.(check (float 1e-9)) (proto ^ " perfect at zero loss") 1. (mean_of p (at proto 0.)))
    [ "flooding"; "static-2.5hop"; "mo_cds"; "dynamic-2.5hop" ];
  Alcotest.(check bool) "flooding more robust than dynamic backbone at 0.3" true
    (mean_of p (at "flooding" 0.3) >= mean_of p (at "dynamic-2.5hop" 0.3))

let test_ext_border () =
  per_degree "ext-border" (fun _ t ->
      List.iter
        (fun p ->
          (* The torus only adds edges to the same placement. *)
          Alcotest.(check bool)
            (Printf.sprintf "toroidal degree >= confined at n=%d" p.Sweep.n)
            true
            (mean_of p "toroidal-degree" >= mean_of p "degree"))
        t.Sweep.points)

let test_ext_reliable () =
  let p = single_point "ext-reliable" in
  let losses = [ 0.; 0.1; 0.2; 0.3 ] in
  Alcotest.(check (float 1e-9)) "complete at zero loss" 1. (mean_of p (at "tree-complete" 0.));
  increasing "tree data" (List.map (fun l -> (l, mean_of p (at "tree-data" l))) losses)

let speeds = [ 1.; 2.; 5.; 10. ]

let test_ext_maintenance () =
  let p = single_point "ext-maintenance" in
  let msgs = List.map (fun s -> (s, mean_of p (at "cluster-msgs" s))) speeds in
  increasing "cluster messages" msgs;
  List.iter
    (fun (s, m) ->
      Alcotest.(check bool) (Printf.sprintf "messages below full rebuild at speed %g" s) true
        (m < float_of_int p.Sweep.n))
    msgs

let test_ext_mobility () =
  let p = single_point "ext-mobility" in
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "static lifetime positive at speed %g" s) true
        (mean_of p (at "valid-time" s) > 0.);
      Alcotest.(check bool)
        (Printf.sprintf "dynamic delivery >= stale delivery at speed %g" s)
        true
        (mean_of p (at "dynamic-delivery" s) >= mean_of p (at "stale-delivery" s)))
    speeds

(* Render *)

let test_render_text_and_csv () =
  let rng = Manet_rng.Rng.create ~seed:4 in
  let t =
    Sweep.run ~min_samples:3 ~max_samples:3 ~rng ~d:6. ~ns:[ 20 ] [ Metric.cluster_count ]
  in
  let text = Render.to_text ~title:"smoke" t in
  Alcotest.(check bool) "title present" true (contains text "smoke");
  Alcotest.(check bool) "metric header" true (contains text "clusters");
  let csv = Render.to_csv t in
  Alcotest.(check bool) "csv header" true (contains csv "n,samples,clusters_mean,clusters_ci");
  Alcotest.(check bool) "csv row" true (contains csv "\n20,3,");
  let path = Filename.temp_file "manet" ".csv" in
  Render.write_csv ~path t;
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check bool) "file written" true (contains line "n,samples")

let () =
  Alcotest.run "experiment"
    [
      ( "metric",
        [
          Alcotest.test_case "draw" `Quick test_metric_draw;
          Alcotest.test_case "perturbed draw" `Quick test_metric_draw_perturbed;
          Alcotest.test_case "env_of: one env per sample" `Quick test_env_of_per_sample;
          Alcotest.test_case "fig6-8 rows: shared env = fresh envs" `Quick test_shared_env_rows;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "shape" `Quick test_sweep_shape;
          Alcotest.test_case "deterministic" `Quick test_sweep_deterministic;
          Alcotest.test_case "domains deterministic" `Quick test_sweep_domains_deterministic;
          Alcotest.test_case "stopping rule" `Quick test_sweep_stopping_rule;
          Alcotest.test_case "one env per sample, dropped after its row" `Quick
            test_sweep_clears_sample;
        ] );
      ( "figures",
        [
          Alcotest.test_case "fig6 shape" `Slow test_fig6_shape;
          Alcotest.test_case "fig7 shape" `Slow test_fig7_shape;
          Alcotest.test_case "fig8 shape" `Slow test_fig8_shape;
          Alcotest.test_case "delivery diagnostics" `Slow test_ext_delivery_perfect;
          Alcotest.test_case "message complexity" `Slow test_ext_msgs_linear;
          Alcotest.test_case "approximation ratios" `Slow test_ext_approx_ratios;
          Alcotest.test_case "mobility" `Slow test_ext_mobility;
          Alcotest.test_case "lossy links" `Slow test_ext_lossy;
          Alcotest.test_case "maintenance" `Slow test_ext_maintenance;
          Alcotest.test_case "clustering ablation" `Slow test_ext_clustering;
          Alcotest.test_case "si-cds comparison" `Slow test_ext_si_cds;
          Alcotest.test_case "reliable broadcast" `Slow test_ext_reliable;
          Alcotest.test_case "border effects" `Slow test_ext_border;
        ] );
      ("render", [ Alcotest.test_case "text and csv" `Quick test_render_text_and_csv ]);
    ]
