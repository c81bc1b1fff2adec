let dominated g s v =
  let { Graph.off; nbr; _ } = g in
  let found = ref (Nodeset.mem v s) in
  let i = ref off.(v) in
  let hi = off.(v + 1) in
  while (not !found) && !i < hi do
    if Nodeset.mem (Array.unsafe_get nbr !i) s then found := true;
    incr i
  done;
  !found

let undominated g s = Nodeset.of_indicator (Array.init (Graph.n g) (fun v -> not (dominated g s v)))

let is_dominating g s =
  let rec from v = v = Graph.n g || (dominated g s v && from (v + 1)) in
  from 0

let is_independent g s =
  let { Graph.off; nbr; _ } = g in
  Nodeset.for_all
    (fun u ->
      let clash = ref false in
      let i = ref off.(u) in
      let hi = off.(u + 1) in
      while (not !clash) && !i < hi do
        if Nodeset.mem (Array.unsafe_get nbr !i) s then clash := true;
        incr i
      done;
      not !clash)
    s

let is_cds g s =
  (if Graph.n g > 0 then not (Nodeset.is_empty s) else true)
  && is_dominating g s
  && Connectivity.is_connected_subset g s

let domination_number_lower_bound g =
  let n = Graph.n g in
  if n = 0 then 0 else (n + Graph.max_degree g) / (Graph.max_degree g + 1)
