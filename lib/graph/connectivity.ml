let components g =
  let n = Graph.n g in
  let comp = Array.make n (-1) in
  let k = ref 0 in
  let { Graph.off; nbr; _ } = g in
  (* Flat BFS frontier: each node is enqueued exactly once across the
     whole sweep, so one n-slot array serves every component. *)
  let queue = Array.make (max n 1) 0 in
  for v = 0 to n - 1 do
    if comp.(v) < 0 then begin
      comp.(v) <- !k;
      queue.(0) <- v;
      let head = ref 0 and tail = ref 1 in
      while !head < !tail do
        let u = queue.(!head) in
        incr head;
        for i = Array.unsafe_get off u to Array.unsafe_get off (u + 1) - 1 do
          let w = Array.unsafe_get nbr i in
          if Array.unsafe_get comp w < 0 then begin
            Array.unsafe_set comp w !k;
            queue.(!tail) <- w;
            incr tail
          end
        done
      done;
      incr k
    end
  done;
  (comp, !k)

let is_connected g = Graph.n g <= 1 || snd (components g) = 1

let component_sizes g =
  let comp, k = components g in
  let sizes = Array.make k 0 in
  Array.iter (fun c -> sizes.(c) <- sizes.(c) + 1) comp;
  List.sort (fun a b -> Int.compare b a) (Array.to_list sizes)

let is_connected_without g ~v =
  let n = Graph.n g in
  if v < 0 || v >= n then invalid_arg "Connectivity.is_connected_without: node out of range";
  if n <= 2 then true
  else begin
    let { Graph.off; nbr; _ } = g in
    let seen = Array.make n false in
    seen.(v) <- true;
    let start = if v = 0 then 1 else 0 in
    seen.(start) <- true;
    let queue = Array.make n 0 in
    queue.(0) <- start;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let u = queue.(!head) in
      incr head;
      for i = Array.unsafe_get off u to Array.unsafe_get off (u + 1) - 1 do
        let w = Array.unsafe_get nbr i in
        if not (Array.unsafe_get seen w) then begin
          Array.unsafe_set seen w true;
          queue.(!tail) <- w;
          incr tail
        end
      done
    done;
    !tail = n - 1
  end

let reachable_within g ~from s =
  if not (Nodeset.mem from s) then Nodeset.empty
  else begin
    let { Graph.off; nbr; _ } = g in
    let seen = ref (Nodeset.singleton from) in
    let queue = Array.make (max (Graph.n g) 1) 0 in
    queue.(0) <- from;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail do
      let u = queue.(!head) in
      incr head;
      for i = Array.unsafe_get off u to Array.unsafe_get off (u + 1) - 1 do
        let v = Array.unsafe_get nbr i in
        if Nodeset.mem v s && not (Nodeset.mem v !seen) then begin
          seen := Nodeset.add v !seen;
          queue.(!tail) <- v;
          incr tail
        end
      done
    done;
    !seen
  end

let is_connected_subset g s =
  match Nodeset.min_elt_opt s with
  | None -> true
  | Some v -> Nodeset.equal (reachable_within g ~from:v s) s
