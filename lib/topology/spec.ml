type t = { n : int; avg_degree : float; width : float; height : float }

let make ?(width = 100.) ?(height = 100.) ~n ~avg_degree () =
  if n < 2 then invalid_arg "Spec.make: need at least 2 nodes";
  (* Negated so that NaN is rejected too. *)
  if not (avg_degree > 0.) then invalid_arg "Spec.make: avg_degree must be positive";
  if width <= 0. || height <= 0. then invalid_arg "Spec.make: non-positive working space";
  { n; avg_degree; width; height }

let radius t =
  Manet_graph.Unit_disk.radius_for_degree ~n:t.n ~degree:t.avg_degree ~width:t.width
    ~height:t.height

let pp fmt t =
  Format.fprintf fmt "n=%d d=%.1f area=%.0fx%.0f r=%.2f" t.n t.avg_degree t.width t.height
    (radius t)
