(* SplitMix64: state advances by the golden-gamma constant; outputs are the
   state passed through a 64-bit variant of the MurmurHash3 finalizer.

   The state lives in an 8-byte buffer rather than a mutable [int64]
   field: a field holds a boxed [int64], so every draw allocated a fresh
   box, while [Bytes.get/set_int64_ne] read and write it unboxed.  With
   [mix] and [next_int64] inlined into their callers, a draw that returns
   an [int] allocates nothing. *)

type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_state s =
  let g = Bytes.create 8 in
  Bytes.set_int64_ne g 0 s;
  g

let create ~seed = of_state (mix (Int64.of_int seed))

let copy = Bytes.copy

let[@inline] next_int64 g =
  let s = Int64.add (Bytes.get_int64_ne g 0) golden_gamma in
  Bytes.set_int64_ne g 0 s;
  mix s

let split g = of_state (mix (next_int64 g))

let[@inline] bits g = Int64.to_int (Int64.shift_right_logical (next_int64 g) 2)

let int g bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling on the top multiple of [bound] below 2^62 keeps the
     draw exactly uniform. *)
  let max62 = (1 lsl 62) - 1 in
  let limit = max62 - (max62 mod bound) in
  let v = ref (bits g) in
  while !v >= limit do
    v := bits g
  done;
  !v mod bound

let int_in g ~lo ~hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int g (hi - lo + 1)

let bits53 g =
  let mask53 = Int64.of_int ((1 lsl 53) - 1) in
  Int64.to_int (Int64.logand (next_int64 g) mask53)

let float g bound =
  if not (bound > 0.) || not (Float.is_finite bound) then
    invalid_arg "Rng.float: bound must be positive and finite";
  let mask53 = Int64.of_int ((1 lsl 53) - 1) in
  let u = Int64.to_float (Int64.logand (next_int64 g) mask53) in
  u /. 9007199254740992. (* 2^53 *) *. bound

let bool g = Int64.logand (next_int64 g) 1L = 1L
