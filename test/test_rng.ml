module Rng = Manet_rng.Rng
module Dist = Manet_rng.Dist

let test_deterministic () =
  let a = Rng.create ~seed:123 and b = Rng.create ~seed:123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

(* Known answers: the first outputs of two seeded streams, recorded
   from the boxed-state implementation.  Any change to the state layout,
   the mixer, the rejection loop, the float scaling or [split] that
   alters a stream fails here, and every seeded figure would move with
   it. *)
let known_answers =
  [
    (42, -7450291807549245335L, 797, 0.78270255402966404, 3214031116667150, 6681730451915146451L, 6);
    (7, -8774268681488515761L, 181, 0.16028168192290515, 7688009560981339, -3098375835980254485L, 4);
  ]

let test_known_answers () =
  List.iter
    (fun (seed, next, int1000, float1, bits53, child, int7) ->
      let g = Rng.create ~seed in
      let label what = Printf.sprintf "seed %d: %s" seed what in
      Alcotest.(check int64) (label "next_int64") next (Rng.next_int64 g);
      Alcotest.(check int) (label "int 1000") int1000 (Rng.int g 1000);
      Alcotest.(check int64) (label "float 1.")
        (Int64.bits_of_float float1)
        (Int64.bits_of_float (Rng.float g 1.));
      Alcotest.(check int) (label "bits53") bits53 (Rng.bits53 g);
      let c = Rng.split g in
      Alcotest.(check int64) (label "split child") child (Rng.next_int64 c);
      Alcotest.(check int) (label "parent after split") int7 (Rng.int g 7))
    known_answers

let test_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.next_int64 a <> Rng.next_int64 b then differs := true
  done;
  Alcotest.(check bool) "streams differ" true !differs

let test_copy_independent () =
  let a = Rng.create ~seed:5 in
  ignore (Rng.next_int64 a);
  let b = Rng.copy a in
  let va = Rng.next_int64 a in
  let vb = Rng.next_int64 b in
  Alcotest.(check int64) "copy continues identically" va vb;
  ignore (Rng.next_int64 a);
  let va2 = Rng.next_int64 a and vb2 = Rng.next_int64 b in
  Alcotest.(check bool) "desynchronized after extra draw" true (va2 <> vb2)

let test_split_independent () =
  let a = Rng.create ~seed:9 in
  let child = Rng.split a in
  (* Drawing more from the child must not change the parent's stream. *)
  let parent_probe = Rng.copy a in
  for _ = 1 to 50 do
    ignore (Rng.next_int64 child)
  done;
  Alcotest.(check int64) "parent unaffected by child draws" (Rng.next_int64 parent_probe)
    (Rng.next_int64 a)

let test_int_range () =
  let g = Rng.create ~seed:7 in
  for _ = 1 to 10_000 do
    let v = Rng.int g 17 in
    if v < 0 || v >= 17 then Alcotest.failf "Rng.int out of range: %d" v
  done

let test_int_covers_range () =
  let g = Rng.create ~seed:11 in
  let seen = Array.make 8 false in
  for _ = 1 to 2_000 do
    seen.(Rng.int g 8) <- true
  done;
  Alcotest.(check bool) "all 8 values appear" true (Array.for_all Fun.id seen)

let test_int_uniformity () =
  (* Chi-square-ish sanity: each of 10 buckets within 3 sigma of n/10. *)
  let g = Rng.create ~seed:13 in
  let n = 100_000 in
  let counts = Array.make 10 0 in
  for _ = 1 to n do
    let v = Rng.int g 10 in
    counts.(v) <- counts.(v) + 1
  done;
  let expect = float_of_int n /. 10. in
  let sigma = sqrt (expect *. 0.9) in
  Array.iteri
    (fun i c ->
      if Float.abs (float_of_int c -. expect) > 4. *. sigma then
        Alcotest.failf "bucket %d count %d too far from %f" i c expect)
    counts

let test_int_invalid () =
  let g = Rng.create ~seed:1 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int g 0))

let test_int_in () =
  let g = Rng.create ~seed:3 in
  for _ = 1 to 1_000 do
    let v = Rng.int_in g ~lo:(-5) ~hi:5 in
    if v < -5 || v > 5 then Alcotest.failf "int_in out of range: %d" v
  done;
  (* Single-point range is fine. *)
  Alcotest.(check int) "degenerate range" 4 (Rng.int_in g ~lo:4 ~hi:4)

let test_float_range () =
  let g = Rng.create ~seed:21 in
  for _ = 1 to 10_000 do
    let v = Rng.float g 2.5 in
    if v < 0. || v >= 2.5 then Alcotest.failf "Rng.float out of range: %f" v
  done

let test_float_mean () =
  let g = Rng.create ~seed:23 in
  let n = 50_000 in
  let sum = ref 0. in
  for _ = 1 to n do
    sum := !sum +. Rng.float g 1.0
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (Float.abs (mean -. 0.5) < 0.01)

let test_bool_balance () =
  let g = Rng.create ~seed:27 in
  let n = 20_000 in
  let trues = ref 0 in
  for _ = 1 to n do
    if Rng.bool g then incr trues
  done;
  let ratio = float_of_int !trues /. float_of_int n in
  Alcotest.(check bool) "booleans balanced" true (Float.abs (ratio -. 0.5) < 0.02)

(* Distributions *)

let test_uniform_range () =
  let g = Rng.create ~seed:31 in
  for _ = 1 to 5_000 do
    let v = Dist.uniform g ~lo:(-3.) ~hi:7. in
    if v < -3. || v >= 7. then Alcotest.failf "uniform out of range: %f" v
  done

let () =
  Alcotest.run "rng"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "known answers" `Quick test_known_answers;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
          Alcotest.test_case "copy independence" `Quick test_copy_independent;
          Alcotest.test_case "split independence" `Quick test_split_independent;
          Alcotest.test_case "int range" `Quick test_int_range;
          Alcotest.test_case "int covers range" `Quick test_int_covers_range;
          Alcotest.test_case "int uniformity" `Quick test_int_uniformity;
          Alcotest.test_case "int invalid bound" `Quick test_int_invalid;
          Alcotest.test_case "int_in range" `Quick test_int_in;
          Alcotest.test_case "float range" `Quick test_float_range;
          Alcotest.test_case "float mean" `Quick test_float_mean;
          Alcotest.test_case "bool balance" `Quick test_bool_balance;
        ] );
      ("dist", [ Alcotest.test_case "uniform range" `Quick test_uniform_range ]);
    ]
