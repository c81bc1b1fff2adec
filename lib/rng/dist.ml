let uniform g ~lo ~hi =
  if hi < lo then invalid_arg "Dist.uniform: empty range";
  if hi = lo then lo else lo +. Rng.float g (hi -. lo)
