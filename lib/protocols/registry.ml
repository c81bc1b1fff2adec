module Protocol = Manet_broadcast.Protocol
module Coverage = Manet_coverage.Coverage
module Static = Manet_backbone.Static_backbone
module Dynamic = Manet_backbone.Dynamic_backbone

(* Greedy CDS is a solver ([Manet_mcds] knows nothing of broadcasting),
   so its protocol wrapper lives here rather than in the solver. *)
let greedy_cds =
  Protocol.si ~name:"greedy-cds"
    ~description:"greedy CDS of Guha and Khuller: the scalable approximation-ratio reference"
    ~build:(fun env -> Manet_mcds.Greedy_cds.build env.Protocol.graph)

(* The fault-tolerant family: the paper's static backbone augmented to a
   k-connected m-dominating set (Zhou et al.).  Like greedy CDS, the
   augmentation is a pure solver, so the wrappers live here.  The
   [stable] variant swaps the base clustering for highest-degree
   clustering ([Clustering.elect] with the (degree, id) order): the
   stability-aware election of Ramalakshmi and Radhakrishnan reduces to
   it when, as in a one-shot environment, there is no mobility history
   to weigh.  Protocol names are stable identifiers, so the name and
   description keep the stability wording. *)
let kmcds_build ?(stable = false) ~k ~m env =
  let g = env.Protocol.graph in
  let backbone =
    if stable then
      Static.build ~clustering:(Manet_cluster.Highest_degree.cluster g) g Coverage.Hop25
    else Static.build ~cache:(Protocol.coverage env Coverage.Hop25) g Coverage.Hop25
  in
  let base = backbone.Static.members in
  Manet_mcds.Kmcds.augment g ~base ~k ~m

let kmcds ?(stable = false) ~k ~m () =
  let name = Printf.sprintf "kmcds-k%dm%d%s" k m (if stable then "/stable" else "") in
  let description =
    Printf.sprintf
      "%d-connected %d-dominating backbone: static backbone augmented for fault tolerance%s"
      k m
      (if stable then ", over stability-aware clusterheads" else " (Zhou et al.)")
  in
  Protocol.si ~name ~description ~build:(kmcds_build ~stable ~k ~m)

let all =
  [
    (* the paper's backbones *)
    Static.protocol Coverage.Hop25;
    Static.protocol Coverage.Hop3;
    Dynamic.protocol Coverage.Hop25;
    Dynamic.protocol Coverage.Hop3;
    Dynamic.protocol ~pruning:Dynamic.Sender_only Coverage.Hop25;
    Dynamic.protocol ~pruning:Dynamic.Coverage_piggyback Coverage.Hop25;
    (* source-independent CDS comparators *)
    Manet_baselines.Mo_cds.protocol;
    Manet_baselines.Wu_li.protocol;
    Manet_baselines.Tree_cds.protocol;
    greedy_cds;
    (* fault-tolerant k-connected m-dominating backbones *)
    kmcds ~k:1 ~m:1 ();
    kmcds ~k:1 ~m:2 ();
    kmcds ~k:2 ~m:1 ();
    kmcds ~k:2 ~m:2 ();
    kmcds ~stable:true ~k:2 ~m:2 ();
    (* source-dependent schemes *)
    Manet_baselines.Dominant_pruning.protocol;
    Manet_baselines.Partial_dominant_pruning.protocol;
    Manet_baselines.Ahbp.protocol;
    Manet_baselines.Mpr.protocol;
    Manet_baselines.Forwarding_tree.protocol;
    (* flooding and the probabilistic storm remedies *)
    Manet_baselines.Flooding.protocol;
    Manet_baselines.Self_pruning.protocol;
    Manet_baselines.Counter_based.protocol;
    Manet_baselines.Passive_clustering.protocol;
  ]

let () =
  let seen = Hashtbl.create 32 in
  List.iter
    (fun p ->
      let name = p.Protocol.name in
      if Hashtbl.mem seen name then
        invalid_arg (Printf.sprintf "Registry: duplicate protocol name %S" name);
      Hashtbl.add seen name ())
    all

let names = List.map (fun p -> p.Protocol.name) all

let find name = List.find_opt (fun p -> String.equal p.Protocol.name name) all

let find_exn name =
  match find name with
  | Some p -> p
  | None ->
    invalid_arg
      (Printf.sprintf "Registry.find_exn: unknown protocol %S (known: %s)" name
         (String.concat ", " names))

let backbones =
  List.filter (fun p -> p.Protocol.family = Protocol.Source_independent && p.Protocol.has_build) all
