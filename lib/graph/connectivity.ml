(* Every query is one traversal on a fresh {!Bfs} state. *)
let start g =
  let t = Bfs.create () in
  Bfs.reset t ~n:(Graph.n g);
  t

let components g =
  let n = Graph.n g in
  let comp = Array.make n (-1) in
  let t = start g in
  let k = ref 0 in
  for v = 0 to n - 1 do
    if not (Bfs.seen t v) then begin
      let first = Bfs.reached t in
      Bfs.seed t v;
      Bfs.expand t g ~limit:max_int;
      for i = first to Bfs.reached t - 1 do
        comp.(Bfs.nth t i) <- !k
      done;
      incr k
    end
  done;
  (comp, !k)

let is_connected g =
  Graph.n g <= 1
  ||
  let t = start g in
  Bfs.seed t 0;
  Bfs.expand t g ~limit:max_int;
  Bfs.reached t = Graph.n g

let is_connected_without g ~v =
  let n = Graph.n g in
  if v < 0 || v >= n then invalid_arg "Connectivity.is_connected_without: node out of range";
  n <= 2
  ||
  let t = start g in
  Bfs.block t v;
  Bfs.seed t (if v = 0 then 1 else 0);
  Bfs.expand t g ~limit:max_int;
  Bfs.reached t = n - 1

let reachable_within g ~from s =
  if not (Nodeset.mem from s) then Nodeset.empty
  else begin
    let n = Graph.n g in
    let t = start g in
    (* Block the complement of [s], walking its gaps in ascending order. *)
    let next = ref 0 in
    Nodeset.iter
      (fun v ->
        for w = !next to min v n - 1 do
          Bfs.block t w
        done;
        next := v + 1)
      s;
    for w = !next to n - 1 do
      Bfs.block t w
    done;
    Bfs.seed t from;
    Bfs.expand t g ~limit:max_int;
    Nodeset.filter (fun v -> v < n && Bfs.seen t v) s
  end

let is_connected_subset g s =
  match Nodeset.min_elt_opt s with
  | None -> true
  | Some v -> Nodeset.equal (reachable_within g ~from:v s) s
