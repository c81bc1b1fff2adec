module Nodeset = Manet_graph.Nodeset
module Clustering = Manet_cluster.Clustering
module Coverage = Manet_coverage.Coverage
module Gateway_selection = Manet_backbone.Gateway_selection
module Static_backbone = Manet_backbone.Static_backbone
module Protocol = Manet_broadcast.Protocol

let drop_coverage_entry =
  Protocol.si ~name:"static-2.5hop!drop-coverage"
    ~description:
      "MUTANT: static backbone whose gateway selection drops each head's highest covered \
       clusterhead (harness self-test; expected to fail)"
    ~build:(fun env ->
      let g = env.Protocol.graph in
      let cl = Lazy.force env.Protocol.clustering in
      let coverages = Coverage.all g cl Coverage.Hop25 in
      let gateways =
        Array.fold_left
          (fun acc cov ->
            match cov with
            | None -> acc
            | Some cov ->
              let targets = Coverage.covered cov in
              let targets =
                match Nodeset.max_elt_opt targets with
                | Some top -> Nodeset.remove top targets
                | None -> targets
              in
              Nodeset.union acc (Gateway_selection.select ~targets cov))
          Nodeset.empty coverages
      in
      Nodeset.union (Clustering.head_set cl) gateways)

(* The genuine k2m2 construction, for seeding faults into. *)
let kmcds_members ~k ~m env =
  let g = env.Protocol.graph in
  let cache = Protocol.coverage env Coverage.Hop25 in
  let base = (Static_backbone.build ~cache g Coverage.Hop25).Static_backbone.members in
  Manet_mcds.Kmcds.augment g ~base ~k ~m

let drop_connector =
  Protocol.si ~name:"kmcds-k2m2!drop-connector"
    ~description:
      "MUTANT: the k=2 m=2 backbone minus one node the biconnectivity pass added (harness \
       self-test; expected to fail k-connectivity and failure-delivery)"
    ~build:(fun env ->
      let full = kmcds_members ~k:2 ~m:2 env in
      let without_biconnect = kmcds_members ~k:1 ~m:2 env in
      match Nodeset.max_elt_opt (Nodeset.diff full without_biconnect) with
      | Some redundant -> Nodeset.remove redundant full
      | None -> full)

let under_dominate =
  Protocol.si ~name:"kmcds-k2m2!under-dominate"
    ~description:
      "MUTANT: the k=2 m=2 backbone minus a member that some outside node needs for its \
       second dominator (harness self-test; expected to fail m-domination)"
    ~build:(fun env ->
      let g = env.Protocol.graph in
      let full = kmcds_members ~k:2 ~m:2 env in
      let member_neighbors u = Nodeset.inter (Manet_graph.Graph.open_neighborhood g u) full in
      (* A node dominated exactly min(m, deg) = 2 times: dropping either
         dominator leaves it under-dominated. *)
      let rec find u =
        if u >= Manet_graph.Graph.n g then None
        else if Nodeset.mem u full then find (u + 1)
        else
          let doms = member_neighbors u in
          if Nodeset.cardinal doms = 2 && Manet_graph.Graph.degree g u >= 2 then
            Nodeset.max_elt_opt doms
          else find (u + 1)
      in
      match find 0 with
      | Some dominator -> Nodeset.remove dominator full
      | None -> full)

(* Per-broadcast state that outlives its broadcast: a window sized by
   the previous broadcast of the same prepared instance reads into the
   current one.  The mutant reenacts that bug deliberately: it remembers
   the length of each broadcast's forward set, and on the next broadcast
   of the same prepared instance it drops that many leading (smallest-id)
   forwarders, never the source, from the result.  The first broadcast
   of every prepared instance is clean, so only an oracle that reuses
   one instance across broadcasts and compares against fresh
   preparation (instance-reuse) can see the fault. *)
let stale_window =
  let module Result = Manet_broadcast.Result in
  {
    Protocol.name = "dynamic-2.5hop!stale-window";
    description =
      "MUTANT: dynamic broadcast that drops as many leading forwarders as the previous \
       broadcast of the same instance had (harness self-test; expected to fail instance-reuse)";
    family = Protocol.Source_dependent;
    has_build = false;
    prepare =
      (fun env ->
        let window = ref 0 in
        let dynamic = Manet_backbone.Dynamic_backbone.protocol Coverage.Hop25 in
        let native ~source =
          (* A clean native run: no failure schedule, so the wrapped
             protocol never takes its own frozen-replay path. *)
          let clean = { env with Protocol.down = None } in
          let r, timeline =
            (dynamic.Protocol.prepare clean).Protocol.run ~source ~mode:Protocol.Perfect
          in
          let fwd = r.Result.forwarders in
          let stale = !window in
          window := Nodeset.cardinal fwd;
          (* The seeded bug: the previous broadcast's window over this
             broadcast's forward set. *)
          let victims =
            List.filteri (fun i v -> i < stale && v <> source) (Nodeset.elements fwd)
          in
          if victims = [] then (r, timeline)
          else
            let victims = Nodeset.of_list victims in
            ( { r with Result.forwarders = Nodeset.diff fwd victims },
              List.filter (fun (_, v) -> not (Nodeset.mem v victims)) timeline )
        in
        (* The counts of the (mutated) native result. *)
        let count ~source =
          let r, _ = native ~source in
          {
            Manet_broadcast.Engine.forwards = Result.forward_count r;
            delivered = Result.delivered_count r;
            completion_time = r.Result.completion_time;
          }
        in
        Protocol.frozen_lossy env ~run:native ~count);
  }

let all = [ drop_coverage_entry; drop_connector; under_dominate; stale_window ]
