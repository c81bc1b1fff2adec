module Graph = Manet_graph.Graph
module Nodeset = Manet_graph.Nodeset

let mpr_set g v =
  let targets = Neighbor_cover.two_hop_strict g v in
  let cover_of b = Nodeset.inter (Graph.open_neighborhood g b) targets in
  (* Mandatory step of the published heuristic: neighbors that are the
     only access to some 2-hop node must be relays. *)
  let access_count = Hashtbl.create 16 in
  Graph.iter_neighbors g v (fun b ->
      Nodeset.iter
        (fun t ->
          Hashtbl.replace access_count t
            (b :: (Option.value ~default:[] (Hashtbl.find_opt access_count t))))
        (cover_of b));
  let mandatory =
    Hashtbl.fold
      (fun _t providers acc -> match providers with [ b ] -> Nodeset.add b acc | _ -> acc)
      access_count Nodeset.empty
  in
  let covered =
    Nodeset.fold (fun b acc -> Nodeset.union acc (cover_of b)) mandatory Nodeset.empty
  in
  let remaining = Nodeset.diff targets covered in
  let candidates =
    Graph.fold_neighbors g v
      (fun acc b -> if Nodeset.mem b mandatory then acc else (b, cover_of b) :: acc)
      []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  List.fold_left
    (fun s b -> Nodeset.add b s)
    mandatory
    (Set_cover.greedy ~universe:remaining ~candidates)

let mpr_sets g = Array.init (Graph.n g) (mpr_set g)

let protocol =
  Manet_broadcast.Protocol.with_build ~name:"mpr"
    ~description:"multipoint relays (Qayyum et al., HICSS'02): relay iff MPR of the upstream sender"
    ~family:Manet_broadcast.Protocol.Source_dependent
    (fun env ->
      let sets = mpr_sets env.Manet_broadcast.Protocol.graph in
      {
        Manet_broadcast.Protocol.members = None;
        run =
          (fun ~source ~mode ->
            Manet_broadcast.Protocol.run_decide env ~source ~mode ~initial:()
              ~decide:(fun ~node ~from ~payload:() ->
                if Nodeset.mem node sets.(from) then Some () else None));
      })
