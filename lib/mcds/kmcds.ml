module Graph = Manet_graph.Graph
module Nodeset = Manet_graph.Nodeset
module Connectivity = Manet_graph.Connectivity

(* k-connected m-dominating augmentation in the style of Zhou, Zhang,
   Wu and Xu (arXiv:1604.06181): start from any CDS, first raise the
   domination multiplicity to [m], then repair induced connectivity and
   — for k = 2 — add redundant connectors until no single backbone
   failure that leaves the graph connected can disconnect the backbone.
   Everything is deterministic (ties break by degree then id), so the
   family inherits the repository's bit-identical replay guarantees. *)

let check_params ~k ~m =
  if k < 1 || k > 2 then invalid_arg "Kmcds.augment: k must be 1 or 2";
  if m < 1 then invalid_arg "Kmcds.augment: m must be >= 1"

(* Candidate order for new members: prefer high degree (a well-connected
   node dominates and connects more), break ties toward low ids. *)
let preferred g a b =
  let da = Graph.degree g a and db = Graph.degree g b in
  if da <> db then compare db da else compare a b

(* Stage 1 — m-domination: every node outside the set must see
   min(m, deg) members among its neighbors (the degree clamp keeps the
   requirement satisfiable on sparse fringes).  One ascending pass
   suffices: members are only ever added, so a node processed earlier
   never loses coverage. *)
let m_dominate g ~m members =
  let b = Nodeset.to_indicator ~n:(Graph.n g) members in
  for u = 0 to Graph.n g - 1 do
    if not b.(u) then begin
      let need = min m (Graph.degree g u) in
      let have = Graph.fold_neighbors g u (fun acc w -> if b.(w) then acc + 1 else acc) 0 in
      if have < need then begin
        let missing =
          Graph.fold_neighbors g u (fun acc w -> if b.(w) then acc else w :: acc) []
          |> List.sort (preferred g)
        in
        List.iteri (fun i w -> if i < need - have then b.(w) <- true) missing
      end
    end
  done;
  Nodeset.of_indicator b

(* Connect the components of [members]'s induced subgraph that live in
   one component of [g] minus the (optionally) excluded node: BFS from
   the member component holding the smallest member, expanding through
   non-members only, and absorb the internal nodes of the first path
   reaching a member outside that component.  Each call adds at least
   one node (two adjacent members are already one induced component, so
   a connecting path has an internal non-member), which bounds the
   repair loops by n. *)
let connect_step g ~excluded members =
  let n = Graph.n g in
  let root =
    match Nodeset.min_elt_opt members with
    | Some r -> r
    | None -> invalid_arg "Kmcds: cannot connect an empty backbone"
  in
  let rootcomp = Connectivity.reachable_within g ~from:root members in
  (* parent.(w) = -2 unseen, -1 BFS seed, else the BFS predecessor *)
  let parent = Array.make n (-2) in
  let queue = Array.make n 0 in
  let head = ref 0 and tail = ref 0 in
  Nodeset.iter
    (fun w ->
      parent.(w) <- -1;
      queue.(!tail) <- w;
      incr tail)
    rootcomp;
  (match excluded with Some v -> parent.(v) <- v | None -> ());
  let target = ref (-1) in
  let { Graph.off; nbr; _ } = g in
  while !target < 0 && !head < !tail do
    let u = queue.(!head) in
    incr head;
    let i = ref off.(u) in
    while !target < 0 && !i < off.(u + 1) do
      let w = nbr.(!i) in
      incr i;
      if parent.(w) = -2 then
        if Nodeset.mem w members then begin
          parent.(w) <- u;
          target := w
        end
        else begin
          parent.(w) <- u;
          queue.(!tail) <- w;
          incr tail
        end
    done
  done;
  if !target < 0 then None
  else begin
    (* Walk back from the reached member, collecting the internal
       non-member path nodes (the chain from a BFS seed to the target
       crosses at least one, else the target would share the seed's
       induced component). *)
    let added = ref [] in
    let w = ref parent.(!target) in
    while parent.(!w) >= 0 do
      added := !w :: !added;
      w := parent.(!w)
    done;
    Some (Nodeset.union members (Nodeset.of_list !added))
  end

(* Stage 2 — induced connectivity (the k = 1 contract): repair until the
   members induce a connected subgraph.  On a disconnected graph the
   members of unreachable components cannot be joined; the loop then
   stops at the first failed repair. *)
let connect g members =
  let b = ref members in
  let continue_ = ref true in
  while !continue_ && not (Connectivity.is_connected_subset g !b) do
    match connect_step g ~excluded:None !b with
    | Some b' -> b := b'
    | None -> continue_ := false
  done;
  !b

(* Stage 3 — biconnectivity (the k = 2 contract): while some member [v]
   whose removal keeps the graph connected disconnects the induced
   backbone, add a connecting path that avoids [v].  Such a path exists
   because g - v is connected and the backbone dominates it; each repair
   adds a node, so the fixpoint terminates (in the limit the backbone is
   all of g, which trivially satisfies the contract). *)
let violation g members =
  Nodeset.fold
    (fun v acc ->
      match acc with
      | Some _ -> acc
      | None ->
        let rest = Nodeset.remove v members in
        if
          Connectivity.is_connected_without g ~v
          && not (Connectivity.is_connected_subset g rest)
        then Some v
        else None)
    members None

let biconnect g members =
  let b = ref members in
  let continue_ = ref true in
  while !continue_ do
    match violation g !b with
    | None -> continue_ := false
    | Some v -> (
      match connect_step g ~excluded:(Some v) (Nodeset.remove v !b) with
      | Some repaired -> b := Nodeset.union !b repaired
      | None -> continue_ := false)
  done;
  !b

let augment g ~base ~k ~m =
  check_params ~k ~m;
  if Nodeset.is_empty base then invalid_arg "Kmcds.augment: base backbone is empty";
  let b = m_dominate g ~m base in
  let b = connect g b in
  if k >= 2 then biconnect g b else b

(* Protocol names of the family are "kmcds-k<k>m<m>" with optional
   suffixes ("/stable", mutant "!..." tags); parsing the parameters back
   out of the name lets the oracles decide which contract a registered
   or mutated protocol claims. *)
let params_of_name name =
  let prefix = "kmcds-k" in
  let plen = String.length prefix in
  if String.length name >= plen + 3 && String.sub name 0 plen = prefix then
    let digit c = match c with '0' .. '9' -> Some (Char.code c - Char.code '0') | _ -> None in
    match (digit name.[plen], name.[plen + 1], digit name.[plen + 2]) with
    | Some k, 'm', Some m
      when String.length name = plen + 3
           || (match name.[plen + 3] with '/' | '!' -> true | _ -> false) ->
      Some (k, m)
    | _ -> None
  else None
