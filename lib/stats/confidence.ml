let z99 = 2.576

let precise ~z ~rel_precision s =
  let hw = Summary.ci_half_width s ~z in
  let m = Float.abs (Summary.mean s) in
  if m = 0. then hw = 0. else hw <= rel_precision *. m
