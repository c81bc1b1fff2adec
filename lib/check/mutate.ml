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
  let clustering = Lazy.force env.Protocol.clustering in
  let base = (Static_backbone.build ~clustering g Coverage.Hop25).Static_backbone.members in
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
      let member_neighbors u =
        Manet_graph.Graph.fold_neighbors g u
          (fun acc w -> if Nodeset.mem w full then Nodeset.add w acc else acc)
          Nodeset.empty
      in
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

(* A flatset slice kept across a pool reset and retagged to the current
   generation reads whatever the pool now holds.  The mutant reenacts
   that bug deliberately: after each broadcast it saves its forward set
   as a slice in a private pool; on the next broadcast (same prepared
   instance) it reads the saved slice through [unsafe_retag] — the pool
   has been reset and refilled with the *new* forward set by then — and
   silently drops the nodes it "finds" from the result.  The first
   broadcast of every prepared instance is clean, so only an oracle that
   reuses one instance across broadcasts and compares against fresh
   preparation (flatset-reuse) can see the fault. *)
let stale_pool =
  let module Flatset = Manet_graph.Flatset in
  let module Result = Manet_broadcast.Result in
  Protocol.per_broadcast_prepared ~name:"dynamic-2.5hop!stale-pool"
    ~description:
      "MUTANT: dynamic broadcast whose forward set is corrupted through a flatset slice kept \
       across a pool reset and retagged (harness self-test; expected to fail flatset-reuse)"
    ~family:Protocol.Source_dependent
    (fun env ->
      let pool = Flatset.create_pool () in
      let saved = ref None in
      let scratch = Array.make 64 0 in
      let scratch = ref scratch in
      let dynamic = Manet_backbone.Dynamic_backbone.protocol Coverage.Hop25 in
      let native ~source =
        (* A clean native run: no failure schedule, so the wrapped
           protocol never takes its own frozen-replay path. *)
        let clean = { env with Protocol.down = None } in
        let r, timeline =
          (dynamic.Protocol.prepare clean).Protocol.run ~source ~mode:Protocol.Perfect
        in
        let stale = !saved in
        Flatset.reset pool;
        (* Store this broadcast's forward set; the slice deliberately
           outlives the next reset. *)
        let fwd = r.Result.forwarders in
        let len = Nodeset.cardinal fwd in
        if Array.length !scratch < len then scratch := Array.make (2 * len) 0;
        let i = ref 0 in
        Nodeset.iter
          (fun v ->
            !scratch.(!i) <- v;
            incr i)
          fwd;
        saved := Some (Flatset.of_increasing pool !scratch ~len);
        match stale with
        | None -> (r, timeline)
        | Some slice ->
          (* The seeded bug: the retagged stale slice now reads the new
             broadcast's data through the old slice's window. *)
          let victims =
            Flatset.fold
              (fun acc v ->
                if v <> source && Nodeset.mem v fwd then Nodeset.add v acc else acc)
              Nodeset.empty
              (Flatset.unsafe_retag slice)
          in
          if Nodeset.is_empty victims then (r, timeline)
          else
            ( { r with Result.forwarders = Nodeset.diff fwd victims },
              List.filter (fun (_, v) -> not (Nodeset.mem v victims)) timeline )
      in
      fun ~source ~mode -> Protocol.frozen_lossy env ~run:native ~source ~mode)

let all = [ drop_coverage_entry; drop_connector; under_dominate; stale_pool ]
