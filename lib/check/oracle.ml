module Rng = Manet_rng.Rng
module Graph = Manet_graph.Graph
module Nodeset = Manet_graph.Nodeset
module Bfs = Manet_graph.Bfs
module Dominating = Manet_graph.Dominating
module Connectivity = Manet_graph.Connectivity
module Clustering = Manet_cluster.Clustering
module Coverage = Manet_coverage.Coverage
module Static = Manet_backbone.Static_backbone
module Dynamic = Manet_backbone.Dynamic_backbone
module Protocol = Manet_broadcast.Protocol
module Result = Manet_broadcast.Result

type verdict = Pass | Fail of string | Skip of string

let pp_verdict ppf = function
  | Pass -> Format.fprintf ppf "pass"
  | Fail m -> Format.fprintf ppf "FAIL: %s" m
  | Skip m -> Format.fprintf ppf "skip (%s)" m

let failf fmt = Format.kasprintf (fun m -> Fail m) fmt

type ctx = {
  case : Case.t;
  clustering : Clustering.t Lazy.t;
  builds : (string, Protocol.built) Hashtbl.t;
}

let context case =
  {
    case;
    clustering = lazy (Manet_cluster.Lowest_id.cluster case.Case.graph);
    builds = Hashtbl.create 8;
  }

let case ctx = ctx.case

let clustering ctx = Lazy.force ctx.clustering

let built ctx (p : Protocol.t) =
  match Hashtbl.find_opt ctx.builds p.Protocol.name with
  | Some b -> b
  | None ->
    let env =
      Protocol.make_env ~clustering:ctx.clustering
        ~rng:(Case.case_rng ctx.case ~salt:("build:" ^ p.Protocol.name))
        ctx.case.Case.graph
    in
    let b = p.Protocol.prepare env in
    Hashtbl.add ctx.builds p.Protocol.name b;
    b

type scope =
  | Structural of (ctx -> verdict)
  | Per_protocol of (ctx -> Protocol.t -> verdict)

type t = { name : string; description : string; check : scope }

(* ------------------------------------------------------------------ *)
(* Structural oracles                                                 *)
(* ------------------------------------------------------------------ *)

(* Coverage-set correctness: the CH_HOP computation against an
   independent BFS reference.  By definition (Section 1), the 3-hop
   coverage set of head u is every other clusterhead within 3 hops; the
   2.5-hop set is every other clusterhead with a cluster member within
   2 hops of u.  C2 always holds exactly the heads at hop distance 2
   (heads are never adjacent), C3 the rest.  Connector tables must be
   real paths, and the shared cache must agree with naive per-head
   recomputation. *)
let check_coverage ctx =
  let g = ctx.case.Case.graph in
  let cl = clustering ctx in
  let heads = Clustering.heads cl in
  let exception Found of string in
  let fail fmt = Format.kasprintf (fun m -> raise (Found m)) fmt in
  try
    List.iter
      (fun mode ->
        let mode_name = Format.asprintf "%a" Coverage.pp_mode mode in
        let cached = Coverage.all g cl mode in
        Array.iteri
          (fun v cov ->
            match cov with
            | Some _ when not (Clustering.is_head cl v) ->
              fail "%s: coverage present at non-head %d" mode_name v
            | None when Clustering.is_head cl v ->
              fail "%s: coverage missing at head %d" mode_name v
            | _ -> ())
          cached;
        List.iter
          (fun u ->
            let cov =
              match cached.(u) with Some c -> c | None -> assert false (* checked above *)
            in
            let fresh = Coverage.of_head g cl mode u in
            if cov <> fresh then
              fail "%s: cached coverage of head %d disagrees with of_head" mode_name u;
            let dist = Bfs.distances_upto g ~source:u ~limit:3 in
            let reference =
              List.fold_left
                (fun acc h ->
                  if h = u then acc
                  else
                    let reachable =
                      match mode with
                      | Coverage.Hop3 -> dist.(h) <= 3
                      | Coverage.Hop25 ->
                        List.exists (fun m -> dist.(m) <= 2) (Clustering.members cl h)
                    in
                    if reachable then Nodeset.add h acc else acc)
                Nodeset.empty heads
            in
            if not (Nodeset.equal (Coverage.covered cov) reference) then
              fail "%s: coverage of head %d is %a, BFS reference says %a" mode_name u Nodeset.pp
                (Coverage.covered cov) Nodeset.pp reference;
            let dist2 = Nodeset.filter (fun h -> dist.(h) = 2) reference in
            if not (Nodeset.equal (Coverage.c2_set cov) dist2) then
              fail "%s: C2 of head %d is %a, heads at distance 2 are %a" mode_name u Nodeset.pp
                (Coverage.c2_set cov) Nodeset.pp dist2;
            List.iter
              (fun (c, connectors) ->
                if Array.length connectors = 0 then
                  fail "%s: head %d has no connector for 2-hop head %d" mode_name u c;
                Array.iter
                  (fun v ->
                    if
                      Clustering.is_head cl v
                      || (not (Graph.mem_edge g u v))
                      || not (Graph.mem_edge g v c)
                    then fail "%s: head %d: invalid direct connector %d to %d" mode_name u v c)
                  connectors)
              cov.Coverage.c2;
            List.iter
              (fun (c, pairs) ->
                if Array.length pairs = 0 then
                  fail "%s: head %d has no connector pair for 3-hop head %d" mode_name u c;
                Array.iter
                  (fun (v, w) ->
                    if
                      Clustering.is_head cl v
                      || Clustering.is_head cl w
                      || (not (Graph.mem_edge g u v))
                      || (not (Graph.mem_edge g v w))
                      || not (Graph.mem_edge g w c)
                    then
                      fail "%s: head %d: invalid connector pair (%d,%d) to %d" mode_name u v w c;
                    if mode = Coverage.Hop25 && Clustering.head_of cl w <> c then
                      fail "%s: head %d: connector pair (%d,%d) to %d but %d's head is %d"
                        mode_name u v w c w (Clustering.head_of cl w))
                  pairs)
              cov.Coverage.c3)
          heads)
      [ Coverage.Hop25; Coverage.Hop3 ];
    Pass
  with Found m -> Fail m

(* SI/SD cross-check: the dynamic forward set contains every clusterhead,
   is itself a CDS (the structural form of Theorem 2), and is not larger
   than the static backbone's broadcast beyond a small greedy slack (the
   paper's Figure 8 ordering, as a per-sample sanity bound). *)
let sd_slack = 4

let check_si_sd ctx =
  let g = ctx.case.Case.graph and source = ctx.case.Case.source in
  let cl = clustering ctx in
  let run p = fst ((built ctx p).Protocol.run ~source ~mode:Protocol.Perfect) in
  let static_count = Result.forward_count (run (Static.protocol Coverage.Hop25)) in
  let fwd = (run (Dynamic.protocol Coverage.Hop25)).Result.forwarders in
  let heads = Clustering.head_set cl in
  if not (Nodeset.subset heads fwd) then
    failf "clusterheads %a missing from the dynamic forward set %a" Nodeset.pp
      (Nodeset.diff heads fwd) Nodeset.pp fwd
  else if not (Dominating.is_cds g fwd) then
    failf "dynamic forward set %a is not a CDS" Nodeset.pp fwd
  else if Nodeset.cardinal fwd > static_count + sd_slack then
    failf "dynamic forward set has %d nodes, static broadcast only %d (+%d slack)"
      (Nodeset.cardinal fwd) static_count sd_slack
  else Pass

(* Registry-vs-registry determinism across domain counts: a small sweep
   point must be bit-identical on 1 and 2 domains (the documented
   contract of Sweep.run_point). *)
let check_domains ctx =
  let module Metric = Manet_experiment.Metric in
  let module Sweep = Manet_experiment.Sweep in
  let module Summary = Manet_stats.Summary in
  let idx = max ctx.case.Case.index 0 in
  let spec = Manet_topology.Spec.make ~n:(10 + (2 * (idx mod 4))) ~avg_degree:5. () in
  let metrics = [ Metric.forwards "flooding"; Metric.forwards "dynamic-2.5hop" ] in
  let point domains =
    Sweep.run_point ~min_samples:2 ~max_samples:2 ~domains
      ~rng:(Case.case_rng ctx.case ~salt:"domains")
      ~spec metrics
  in
  let p1 = point 1 and p2 = point 2 in
  let summary_equal a b =
    Summary.count a = Summary.count b
    && Summary.mean a = Summary.mean b
    && Summary.variance a = Summary.variance b
    && Summary.min_value a = Summary.min_value b
    && Summary.max_value a = Summary.max_value b
  in
  if p1.Sweep.samples <> p2.Sweep.samples then
    failf "domains=1 drew %d samples, domains=2 drew %d" p1.Sweep.samples p2.Sweep.samples
  else
    let rec compare_cells = function
      | [], [] -> Pass
      | (na, (a : Sweep.cell)) :: resta, (nb, (b : Sweep.cell)) :: restb ->
        if na <> nb then failf "metric order differs: %s vs %s" na nb
        else if not (summary_equal a.Sweep.summary b.Sweep.summary) then
          failf "metric %s differs across domain counts (%g vs %g)" na
            (Summary.mean a.Sweep.summary) (Summary.mean b.Sweep.summary)
        else compare_cells (resta, restb)
      | _ -> failf "cell count differs across domain counts"
    in
    compare_cells (p1.Sweep.cells, p2.Sweep.cells)

(* The serving loop's live backbone vs a from-scratch rebuild: a short
   churning workload is served over a case-derived placement, and at
   every maintenance event the incrementally maintained backbone must
   have exactly the members of [Static_backbone.build] over the
   maintained clustering on the live graph (the equivalence
   {!Manet_backbone.Backbone_maintenance} promises, exercised here
   through the full timeline — churn, parking, retargeting — rather
   than along a plain mobility trace).  [skip_maintenance] threads the
   workload's seeded fault through, so the mutant test can assert this
   oracle — and exactly this oracle — catches a dropped maintenance
   step. *)
let timeline_vs_rebuild ?skip_maintenance ctx =
  let module Workload = Manet_experiment.Workload in
  let idx = max ctx.case.Case.index 0 in
  let spec = Manet_topology.Spec.make ~n:(16 + (8 * (idx mod 5))) ~avg_degree:6. () in
  let rng = Case.case_rng ctx.case ~salt:"timeline" in
  let sample = Manet_topology.Generator.sample_connected rng spec in
  let w =
    Workload.make ~join_rate:0.5 ~leave_rate:0.5 ~maintenance_every:1. ~arrival_rate:2.
      ~duration:15. ()
  in
  let verdict = ref Pass in
  let probe (p : Workload.probe) =
    if !verdict = Pass then begin
      let live = p.Workload.backbone in
      match
        Static.build ~clustering:live.Static.clustering p.Workload.graph live.Static.mode
      with
      | exception e ->
        verdict :=
          failf "t=%g: rebuild on the live graph raised %s" p.Workload.time
            (Printexc.to_string e)
      | fresh ->
        if not (Nodeset.equal live.Static.members fresh.Static.members) then
          verdict :=
            failf
              "t=%g: live backbone diverges from a from-scratch rebuild (%d vs %d members, \
               %d stale topology events)"
              p.Workload.time
              (Nodeset.cardinal live.Static.members)
              (Nodeset.cardinal fresh.Static.members)
              p.Workload.stale_events
    end
  in
  ignore
    (Workload.run ?skip_maintenance ~on_maintenance:probe ~rng:(Rng.split rng)
       ~points:sample.Manet_topology.Generator.points
       ~radius:sample.Manet_topology.Generator.radius ~spec w);
  !verdict

let check_timeline ctx = timeline_vs_rebuild ctx

(* ------------------------------------------------------------------ *)
(* Per-protocol oracles                                               *)
(* ------------------------------------------------------------------ *)

(* The one case where an empty materialized structure is legitimate:
   Wu-Li marks nothing on a complete graph (every neighborhood is a
   clique), and the source alone covers everyone.  The repo's own
   baseline tests encode the same carve-out. *)
let is_complete g = Graph.m g = Graph.n g * (Graph.n g - 1) / 2

let check_domination ctx (p : Protocol.t) =
  match (built ctx p).Protocol.members with
  | None -> Skip "no materialized structure"
  | Some members ->
    let g = ctx.case.Case.graph in
    if Nodeset.is_empty members then
      if is_complete g then Skip "empty structure on a complete graph"
      else failf "%s: empty structure on a non-complete graph" p.Protocol.name
    else if Dominating.is_dominating g members then Pass
    else
      failf "%s: nodes %a are not dominated by %a" p.Protocol.name Nodeset.pp
        (Dominating.undominated g members) Nodeset.pp members

let check_backbone_connectivity ctx (p : Protocol.t) =
  match (built ctx p).Protocol.members with
  | None -> Skip "no materialized structure"
  | Some members ->
    let g = ctx.case.Case.graph in
    if Nodeset.is_empty members then
      if is_complete g then Skip "empty structure on a complete graph"
      else failf "%s: empty backbone on a non-complete graph" p.Protocol.name
    else if Connectivity.is_connected_subset g members then Pass
    else failf "%s: backbone %a induces a disconnected subgraph" p.Protocol.name Nodeset.pp members

(* Protocols whose forwarding rule is a heuristic with no delivery
   guarantee (the broadcast-storm counter scheme and passive
   clustering, per their module documentation). *)
let guaranteed_delivery (p : Protocol.t) =
  not (List.mem p.Protocol.name [ "counter"; "passive" ])

let check_result_consistency (p : Protocol.t) g ~source (r : Result.t) timeline =
  if r.Result.source <> source then failf "%s: result source %d, ran from %d" p.Protocol.name r.Result.source source
  else if not (Nodeset.mem source r.Result.forwarders) then
    failf "%s: source %d did not transmit" p.Protocol.name source
  else if not (Nodeset.for_all (fun v -> r.Result.delivered.(v)) r.Result.forwarders) then
    failf "%s: some forwarder never received the packet" p.Protocol.name
  else
    let timeline_nodes =
      List.fold_left (fun s (_, v) -> Nodeset.add v s) Nodeset.empty timeline
    in
    if List.length timeline <> Result.forward_count r then
      failf "%s: %d timeline entries for %d forwards" p.Protocol.name (List.length timeline)
        (Result.forward_count r)
    else if not (Nodeset.equal timeline_nodes r.Result.forwarders) then
      failf "%s: timeline nodes %a differ from forwarders %a" p.Protocol.name Nodeset.pp
        timeline_nodes Nodeset.pp r.Result.forwarders
    else if not (Nodeset.for_all (fun v -> r.Result.delivered.(v)) (Graph.closed_neighborhood g source))
    then failf "%s: a neighbor of transmitting source %d was not delivered" p.Protocol.name source
    else Pass

let check_delivery ctx (p : Protocol.t) =
  let g = ctx.case.Case.graph and source = ctx.case.Case.source in
  let r, timeline = (built ctx p).Protocol.run ~source ~mode:Protocol.Perfect in
  match check_result_consistency p g ~source r timeline with
  | (Fail _ | Skip _) as v -> v
  | Pass ->
    if Result.all_delivered r then Pass
    else if not (guaranteed_delivery p) then
      Skip "delivery not guaranteed (heuristic suppression)"
    else
      failf "%s: perfect-mode broadcast from %d left %d of %d nodes undelivered" p.Protocol.name
        source
        (Graph.n g - Result.delivered_count r)
        (Graph.n g)

let result_equal (a : Result.t) (b : Result.t) =
  a.Result.source = b.Result.source
  && Nodeset.equal a.Result.forwarders b.Result.forwarders
  && a.Result.delivered = b.Result.delivered
  && a.Result.completion_time = b.Result.completion_time

let check_determinism ctx (p : Protocol.t) =
  let g = ctx.case.Case.graph and source = ctx.case.Case.source in
  let run_once () =
    let env =
      Protocol.make_env ~clustering:ctx.clustering
        ~rng:(Case.case_rng ctx.case ~salt:("det:" ^ p.Protocol.name))
        g
    in
    let b = p.Protocol.prepare env in
    (b.Protocol.members, b.Protocol.run ~source ~mode:Protocol.Perfect)
  in
  let m1, (r1, t1) = run_once () in
  let m2, (r2, t2) = run_once () in
  let members_equal =
    match (m1, m2) with
    | None, None -> true
    | Some a, Some b -> Nodeset.equal a b
    | _ -> false
  in
  if not members_equal then failf "%s: two equal-seed builds materialized different structures" p.Protocol.name
  else if not (result_equal r1 r2) then
    failf "%s: two equal-seed broadcasts differ (%d vs %d forwards)" p.Protocol.name
      (Result.forward_count r1) (Result.forward_count r2)
  else if t1 <> t2 then failf "%s: two equal-seed broadcasts traced different timelines" p.Protocol.name
  else Pass

let check_loss ctx (p : Protocol.t) =
  let source = ctx.case.Case.source in
  let loss = Rng.float (Case.case_rng ctx.case ~salt:("loss:" ^ p.Protocol.name)) 0.9 in
  let r, _ = (built ctx p).Protocol.run ~source ~mode:(Protocol.Lossy loss) in
  let ratio = Result.delivery_ratio r in
  if ratio < 0. || ratio > 1. then failf "%s: delivery ratio %g outside [0, 1]" p.Protocol.name ratio
  else if not r.Result.delivered.(source) then failf "%s: source not delivered under loss" p.Protocol.name
  else if not (Nodeset.mem source r.Result.forwarders) then
    failf "%s: source did not transmit under loss %.3f" p.Protocol.name loss
  else if not (Nodeset.for_all (fun v -> r.Result.delivered.(v)) r.Result.forwarders) then
    failf "%s: a node forwarded without receiving under loss %.3f" p.Protocol.name loss
  else Pass

(* Arena-reuse transparency: the engine's documented contract is that
   results never depend on the arena's state.  Replay the protocol with
   equal generator states on a fresh arena, the domain's shared arena,
   and an arena deliberately dirtied by an unrelated broadcast — all
   three must be bit-identical, under the perfect and the lossy
   engine. *)
let check_arena_reuse ctx (p : Protocol.t) =
  let module Engine = Manet_broadcast.Engine in
  let g = ctx.case.Case.graph and source = ctx.case.Case.source in
  let loss = Rng.float (Case.case_rng ctx.case ~salt:("arena-loss:" ^ p.Protocol.name)) 0.9 in
  let run_with arena =
    let env =
      Protocol.make_env ~clustering:ctx.clustering
        ~rng:(Case.case_rng ctx.case ~salt:("arena:" ^ p.Protocol.name))
        ~arena g
    in
    let b = p.Protocol.prepare env in
    let perfect = b.Protocol.run ~source ~mode:Protocol.Perfect in
    let lossy, _ = b.Protocol.run ~source ~mode:(Protocol.Lossy loss) in
    (perfect, lossy)
  in
  let dirty =
    let a = Engine.Arena.create () in
    ignore (Engine.run_core ~arena:a g ~source ~initial:() ~decide:(fun ~node:_ ~from:_ ~payload:() -> Some ()));
    a
  in
  let (rf, tf), lf = run_with (Engine.Arena.create ()) in
  let (rd, td), ld = run_with (Engine.Arena.get ()) in
  let (rx, tx), lx = run_with dirty in
  if not (result_equal rf rd && result_equal rf rx) then
    failf "%s: perfect-mode results differ across arena states" p.Protocol.name
  else if tf <> td || tf <> tx then
    failf "%s: timelines differ across arena states" p.Protocol.name
  else if not (result_equal lf ld && result_equal lf lx) then
    failf "%s: lossy results (loss %.3f) differ across arena states" p.Protocol.name loss
  else Pass

(* Flatset-pool reuse transparency: the dynamic backbone's per-broadcast
   coverage and forward sets live in the arena's flatset pool, retired
   between broadcasts by a generation bump.  Running several broadcasts
   back-to-back on one prepared instance (one arena, one pool, stale
   slices from earlier broadcasts still in storage) must be bit-identical
   to preparing afresh — fresh arena, empty pool — for every source.  A
   slice surviving a pool reset with a forged generation tag is exactly
   the corruption this oracle exists to catch (see the [stale-pool]
   mutant).  Probabilistic protocols are skipped: their per-broadcast
   generator draws desynchronize the shared and fresh environments. *)
let check_flatset_reuse ctx (p : Protocol.t) =
  if p.Protocol.family = Protocol.Probabilistic then
    Skip "probabilistic: per-broadcast draws desync shared vs fresh environments"
  else begin
    let module Engine = Manet_broadcast.Engine in
    let g = ctx.case.Case.graph in
    let n = Graph.n g in
    let sources = List.sort_uniq Int.compare [ ctx.case.Case.source; 0; n - 1 ] in
    let make_env () =
      Protocol.make_env ~clustering:ctx.clustering
        ~rng:(Case.case_rng ctx.case ~salt:("flatset:" ^ p.Protocol.name))
        ~arena:(Engine.Arena.create ()) g
    in
    let shared = p.Protocol.prepare (make_env ()) in
    let rec scan = function
      | [] -> Pass
      | source :: rest ->
        let rr, tr = shared.Protocol.run ~source ~mode:Protocol.Perfect in
        let rf, tf =
          (p.Protocol.prepare (make_env ())).Protocol.run ~source ~mode:Protocol.Perfect
        in
        if not (result_equal rr rf) then
          failf "%s: broadcast from %d on the reused flatset pool differs from a fresh arena"
            p.Protocol.name source
        else if tr <> tf then
          failf "%s: broadcast from %d traced different timelines on reused vs fresh pools"
            p.Protocol.name source
        else scan rest
    in
    scan sources
  end

(* ------------------------------------------------------------------ *)
(* Fault-tolerance oracles (the kmcds family's contracts)             *)
(* ------------------------------------------------------------------ *)

(* Only the k-connected m-dominating family claims these contracts; the
   (k, m) parameters are recovered from the protocol name, so the
   harness's own kmcds mutants are held to the same contracts as the
   genuine schemes. *)
let with_kmcds ctx (p : Protocol.t) f =
  match Manet_mcds.Kmcds.params_of_name p.Protocol.name with
  | None -> Skip "no k-redundancy contract (not a kmcds protocol)"
  | Some (k, m) -> (
    match (built ctx p).Protocol.members with
    | None -> Skip "no materialized structure"
    | Some members -> f ~k ~m members)

(* k-vertex-connectivity of the backbone: for k = 2, removing any single
   member whose loss keeps the graph connected must leave the remaining
   members induced-connected (graph cut vertices are excluded — no
   backbone can beat the topology). *)
let check_k_connectivity ctx (p : Protocol.t) =
  with_kmcds ctx p @@ fun ~k ~m:_ members ->
  let g = ctx.case.Case.graph in
  if not (Connectivity.is_connected_subset g members) then
    failf "%s: backbone %a is not even 1-connected" p.Protocol.name Nodeset.pp members
  else if k < 2 then Pass
  else
    match
      Nodeset.fold
        (fun v acc ->
          match acc with
          | Some _ -> acc
          | None ->
            if
              Connectivity.is_connected_without g ~v
              && not (Connectivity.is_connected_subset g (Nodeset.remove v members))
            then Some v
            else None)
        members None
    with
    | None -> Pass
    | Some v ->
      failf "%s: removing backbone node %d (not a cut vertex of the graph) disconnects %a"
        p.Protocol.name v Nodeset.pp (Nodeset.remove v members)

(* m-domination of non-backbone nodes: every outside node must see
   min(m, deg) members among its neighbors. *)
let check_m_domination ctx (p : Protocol.t) =
  with_kmcds ctx p @@ fun ~k:_ ~m members ->
  let g = ctx.case.Case.graph in
  let violating u =
    (not (Nodeset.mem u members))
    &&
    let need = min m (Graph.degree g u) in
    Graph.fold_neighbors g u (fun acc w -> if Nodeset.mem w members then acc + 1 else acc) 0 < need
  in
  let rec scan u = if u >= Graph.n g then Pass
    else if violating u then
      failf "%s: node %d has fewer than min(%d, deg) backbone neighbors in %a" p.Protocol.name u
        m Nodeset.pp members
    else scan (u + 1)
  in
  scan 0

(* Delivery under f failures, f < k: for the k = 2 schemes, kill each
   single backbone node in turn (when the residual graph stays
   connected) and demand that the broadcast still reaches every node
   expected to be reachable — with m >= 2 that is every surviving node,
   the acceptance claim of the family. *)
let check_failure_delivery ctx (p : Protocol.t) =
  with_kmcds ctx p @@ fun ~k ~m members ->
  if k < 2 then Skip "k = 1 claims no failure tolerance"
  else begin
    let g = ctx.case.Case.graph and source = ctx.case.Case.source in
    let env =
      Protocol.make_env ~clustering:ctx.clustering
        ~rng:(Case.case_rng ctx.case ~salt:("fail:" ^ p.Protocol.name))
        g
    in
    let b = p.Protocol.prepare env in
    let in_residual_backbone ~v u =
      Nodeset.mem u (Nodeset.remove v members)
      || Graph.fold_neighbors g u
           (fun acc w -> acc || (w <> v && Nodeset.mem w members))
           false
    in
    let expected_delivered ~v u =
      (* With m >= 2 every survivor keeps a backbone neighbor; with
         m = 1 only nodes still adjacent to (or inside) the residual
         backbone are promised the packet. *)
      u <> v
      && (m >= 2 || u = source || in_residual_backbone ~v u)
    in
    let victims = Nodeset.remove source members in
    let verdict =
      Nodeset.fold
        (fun v acc ->
          match acc with
          | Fail _ -> acc
          | _ when not (Connectivity.is_connected_without g ~v) -> acc
          | _ when m < 2 && not (in_residual_backbone ~v source) ->
            (* With m = 1 the victim may have been the source's only way
               into the backbone; nothing past the source's own
               neighborhood is promised then. *)
            acc
          | _ ->
            env.Protocol.down <- Some (fun ~time:_ ~node -> node = v);
            let r, _ = b.Protocol.run ~source ~mode:Protocol.Perfect in
            if r.Result.delivered.(v) then
              failf "%s: killed node %d still marked delivered" p.Protocol.name v
            else (
              match
                Array.to_list
                  (Array.mapi (fun u d -> (u, d)) r.Result.delivered)
                |> List.find_opt (fun (u, d) -> (not d) && expected_delivered ~v u)
              with
              | Some (u, _) ->
                failf "%s: killing backbone node %d (graph stays connected) lost node %d"
                  p.Protocol.name v u
              | None -> acc))
        victims Pass
    in
    env.Protocol.down <- None;
    verdict
  end

(* ------------------------------------------------------------------ *)
(* Catalog                                                            *)
(* ------------------------------------------------------------------ *)

let all =
  [
    {
      name = "coverage";
      description =
        "2.5/3-hop coverage sets match a BFS reference; connector tables are real paths; the \
         CH_HOP cache agrees with per-head recomputation";
      check = Structural check_coverage;
    };
    {
      name = "si-sd-sanity";
      description =
        "dynamic forward set contains every clusterhead, is a CDS (Theorem 2), and stays within \
         a constant of the static broadcast";
      check = Structural check_si_sd;
    };
    {
      name = "domains-determinism";
      description = "Sweep.run_point is bit-identical on 1 and 2 domains";
      check = Structural check_domains;
    };
    {
      name = "timeline-vs-rebuild";
      description =
        "at every maintenance event of a churning workload the live incrementally-maintained \
         backbone equals a from-scratch rebuild on the live graph";
      check = Structural check_timeline;
    };
    {
      name = "domination";
      description = "a materialized backbone dominates the graph (Theorem 1, first half)";
      check = Per_protocol check_domination;
    };
    {
      name = "backbone-connectivity";
      description =
        "a materialized backbone induces a connected subgraph (Theorem 1, second half)";
      check = Per_protocol check_backbone_connectivity;
    };
    {
      name = "delivery";
      description =
        "a perfect-mode broadcast delivers to every node (guaranteed protocols) and is \
         self-consistent for the rest";
      check = Per_protocol check_delivery;
    };
    {
      name = "determinism";
      description = "equal generator states give bit-identical results and timelines";
      check = Per_protocol check_determinism;
    };
    {
      name = "loss-sanity";
      description = "a lossy broadcast stays self-consistent with a delivery ratio in [0, 1]";
      check = Per_protocol check_loss;
    };
    {
      name = "arena-reuse";
      description =
        "broadcasts are bit-identical on a fresh, the domain's, and a dirty reused engine \
         arena, under perfect and lossy engines";
      check = Per_protocol check_arena_reuse;
    };
    {
      name = "flatset-reuse";
      description =
        "broadcasts run back-to-back on one reused flatset pool are bit-identical to \
         fresh-arena runs per source (stale-slice detection)";
      check = Per_protocol check_flatset_reuse;
    };
    {
      name = "k-connectivity";
      description =
        "a kmcds backbone survives any single member removal that is not a graph cut vertex \
         with its induced subgraph connected (k = 2)";
      check = Per_protocol check_k_connectivity;
    };
    {
      name = "m-domination";
      description =
        "every non-backbone node of a kmcds scheme has min(m, degree) backbone neighbors";
      check = Per_protocol check_m_domination;
    };
    {
      name = "failure-delivery";
      description =
        "killing any single backbone node of a k=2 scheme (graph staying connected) still \
         delivers to every surviving node promised the packet";
      check = Per_protocol check_failure_delivery;
    };
  ]

let names = List.map (fun o -> o.name) all

let find name = List.find_opt (fun o -> String.equal o.name name) all

let find_exn name =
  match find name with
  | Some o -> o
  | None ->
    invalid_arg
      (Printf.sprintf "Oracle.find_exn: unknown oracle %S (known: %s)" name
         (String.concat ", " names))

let eval o ctx ~proto =
  match (o.check, proto) with
  | Structural f, _ -> f ctx
  | Per_protocol f, Some p -> f ctx p
  | Per_protocol _, None -> Skip "per-protocol oracle with no protocol"
