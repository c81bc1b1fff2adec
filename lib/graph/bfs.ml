(* Breadth-first traversals are the substrate for every coverage and
   backbone computation, so the frontier is a flat int array (each node
   enters at most once) and the inner loop scans the CSR row directly —
   no Queue cells, no per-pop closure. *)

let distances_upto g ~source ~limit =
  let n = Graph.n g in
  let dist = Array.make n max_int in
  dist.(source) <- 0;
  let { Graph.off; nbr; _ } = g in
  let queue = Array.make (max n 1) 0 in
  queue.(0) <- source;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    let du = Array.unsafe_get dist u in
    if du < limit then
      for i = Array.unsafe_get off u to Array.unsafe_get off (u + 1) - 1 do
        let v = Array.unsafe_get nbr i in
        if Array.unsafe_get dist v = max_int then begin
          Array.unsafe_set dist v (du + 1);
          queue.(!tail) <- v;
          incr tail
        end
      done
  done;
  dist

let distances g ~source = distances_upto g ~source ~limit:max_int

let hop_distance g u v =
  let d = (distances g ~source:u).(v) in
  if d = max_int then None else Some d

let k_hop g ~source ~k =
  let dist = distances_upto g ~source ~limit:k in
  let s = ref Nodeset.empty in
  Array.iteri (fun v d -> if d <= k then s := Nodeset.add v !s) dist;
  !s

let ring g ~source ~k =
  let dist = distances_upto g ~source ~limit:k in
  let s = ref Nodeset.empty in
  Array.iteri (fun v d -> if d = k then s := Nodeset.add v !s) dist;
  !s

let eccentricity g v =
  Array.fold_left (fun acc d -> if d = max_int then acc else max acc d) 0 (distances g ~source:v)

let bfs_order g ~source =
  let n = Graph.n g in
  let seen = Array.make n false in
  seen.(source) <- true;
  let { Graph.off; nbr; _ } = g in
  let queue = Array.make (max n 1) 0 in
  queue.(0) <- source;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    for i = Array.unsafe_get off u to Array.unsafe_get off (u + 1) - 1 do
      let v = Array.unsafe_get nbr i in
      if not (Array.unsafe_get seen v) then begin
        Array.unsafe_set seen v true;
        queue.(!tail) <- v;
        incr tail
      end
    done
  done;
  List.init !tail (fun i -> queue.(i))
