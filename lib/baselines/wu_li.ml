module Graph = Manet_graph.Graph
module Nodeset = Manet_graph.Nodeset

type t = { graph : Graph.t; marked : Nodeset.t; members : Nodeset.t }

let marking g =
  let off, nbr = Graph.csr g in
  let marked = ref Nodeset.empty in
  for v = 0 to Graph.n g - 1 do
    let lo = off.(v) and hi = off.(v + 1) in
    let has_unconnected_pair =
      let found = ref false in
      for i = lo to hi - 1 do
        for j = i + 1 to hi - 1 do
          if (not !found) && not (Graph.mem_edge g nbr.(i) nbr.(j)) then found := true
        done
      done;
      !found
    in
    if has_unconnected_pair then marked := Nodeset.add v !marked
  done;
  !marked

let build g =
  let marked = marking g in
  let members = ref marked in
  let closed v = Graph.closed_neighborhood g v in
  let opened v = Graph.open_neighborhood g v in
  (* Rule 1: coverage by one higher-id marked neighbor. *)
  Nodeset.iter
    (fun v ->
      let dominated =
        Graph.fold_neighbors g v
          (fun acc u ->
            acc || (u > v && Nodeset.mem u !members && Nodeset.subset (closed v) (closed u)))
          false
      in
      if dominated then members := Nodeset.remove v !members)
    marked;
  (* Rule 2: coverage by two adjacent higher-id marked neighbors.  Checked
     against the post-Rule-1 member set, as in the original paper's
     sequential application. *)
  Nodeset.iter
    (fun v ->
      if Nodeset.mem v !members then begin
        let off, nbr = Graph.csr g in
        let lo = off.(v) and hi = off.(v + 1) in
        let dominated = ref false in
        for i = lo to hi - 1 do
          for j = i + 1 to hi - 1 do
            let u = nbr.(i) and w = nbr.(j) in
            if
              (not !dominated)
              && u > v && w > v
              && Nodeset.mem u !members && Nodeset.mem w !members
              && Graph.mem_edge g u w
              && Nodeset.subset (opened v) (Nodeset.union (opened u) (opened w))
            then dominated := true
          done
        done;
        if !dominated then members := Nodeset.remove v !members
      end)
    marked;
  { graph = g; marked; members = !members }

let size t = Nodeset.cardinal t.members

let is_cds t = Manet_graph.Dominating.is_cds t.graph t.members

let protocol =
  Manet_broadcast.Protocol.si ~name:"wu-li"
    ~description:"Wu-Li marking process with pruning Rules 1 and 2 (DIALM'99)"
    ~build:(fun env -> (build env.Manet_broadcast.Protocol.graph).members)
