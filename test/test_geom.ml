module Point = Manet_geom.Point
module Graph = Manet_graph.Graph
module Unit_disk = Manet_graph.Unit_disk
module Rng = Manet_rng.Rng

let pt x y = Point.make ~x ~y

let feq = Alcotest.float 1e-9

let test_dist () =
  Alcotest.check feq "3-4-5 triangle" 5. (Point.dist (pt 0. 0.) (pt 3. 4.));
  Alcotest.check feq "dist_sq" 25. (Point.dist_sq (pt 0. 0.) (pt 3. 4.));
  Alcotest.check feq "self distance" 0. (Point.dist (pt 1. 2.) (pt 1. 2.));
  Alcotest.check feq "symmetry" (Point.dist (pt 1. 7.) (pt 4. 3.)) (Point.dist (pt 4. 3.) (pt 1. 7.))

let test_dist_toroidal () =
  let d = Point.dist_toroidal ~width:10. ~height:10. in
  (* Points near opposite borders are close on the torus. *)
  Alcotest.check feq "wraps x" 2. (d (pt 1. 5.) (pt 9. 5.));
  Alcotest.check feq "wraps y" 2. (d (pt 5. 1.) (pt 5. 9.));
  Alcotest.check feq "interior matches plain" (Point.dist (pt 2. 2.) (pt 5. 6.))
    (d (pt 2. 2.) (pt 5. 6.));
  Alcotest.check feq "symmetric" (d (pt 1. 1.) (pt 9. 9.)) (d (pt 9. 9.) (pt 1. 1.));
  Alcotest.check feq "self" 0. (d (pt 3. 3.) (pt 3. 3.))

let prop_toroidal_never_longer () =
  let rng = Manet_rng.Rng.create ~seed:77 in
  for _ = 1 to 500 do
    let p () = pt (Manet_rng.Rng.float rng 10.) (Manet_rng.Rng.float rng 10.) in
    let a = p () and b = p () in
    if Point.dist_toroidal ~width:10. ~height:10. a b > Point.dist a b +. 1e-9 then
      Alcotest.failf "toroidal distance exceeded plain distance"
  done

let test_vector_ops () =
  let a = pt 1. 2. and b = pt 3. 5. in
  Alcotest.check feq "add x" 4. (Point.add a b).x;
  Alcotest.check feq "add y" 7. (Point.add a b).y;
  Alcotest.check feq "sub x" 2. (Point.sub b a).x;
  Alcotest.check feq "scale" 10. (Point.scale 2. b).y;
  Alcotest.check feq "norm" 5. (Point.norm (pt 3. 4.))

let test_lerp () =
  let a = pt 0. 0. and b = pt 10. 20. in
  Alcotest.check feq "lerp 0 = a" 0. (Point.lerp a b 0.).x;
  Alcotest.check feq "lerp 1 = b.x" 10. (Point.lerp a b 1.).x;
  Alcotest.check feq "lerp half" 10. (Point.lerp a b 0.5).y

let test_box () =
  Alcotest.(check bool) "inside" true (Point.in_box (pt 5. 5.) ~width:10. ~height:10.);
  Alcotest.(check bool) "boundary counts" true (Point.in_box (pt 10. 0.) ~width:10. ~height:10.);
  Alcotest.(check bool) "outside" false (Point.in_box (pt 10.1 5.) ~width:10. ~height:10.);
  let c = Point.clamp_box (pt (-3.) 12.) ~width:10. ~height:10. in
  Alcotest.check feq "clamp x" 0. c.x;
  Alcotest.check feq "clamp y" 10. c.y

let random_points ~seed ~count ~extent =
  let rng = Rng.create ~seed in
  Array.init count (fun _ -> pt (Rng.float rng extent) (Rng.float rng extent))

(* The cell grid behind [Unit_disk.build], checked row by row against
   the O(n^2) builder and a direct scan of the strict distance test. *)

let brute_within points center radius =
  let acc = ref [] in
  Array.iteri (fun i p -> if Point.dist center p < radius then acc := i :: !acc) points;
  List.sort compare !acc

let row g v = Array.to_list (Graph.neighbors g v)

let check_build name ~radius points =
  let g = Unit_disk.build ~radius points in
  if not (Graph.equal g (Unit_disk.build_brute_force ~radius points)) then
    Alcotest.failf "%s: grid build differs from brute force (radius %h)" name radius;
  g

let test_grid_matches_brute_force () =
  let rng = Rng.create ~seed:99 in
  for trial = 1 to 50 do
    let points = random_points ~seed:trial ~count:80 ~extent:100. in
    let radius = 5. +. Rng.float rng 20. in
    let g = check_build (Printf.sprintf "trial %d" trial) ~radius points in
    let v = Rng.int rng 80 in
    Alcotest.(check (list int))
      (Printf.sprintf "trial %d row" trial)
      (List.filter (( <> ) v) (brute_within points points.(v) radius))
      (row g v)
  done

let test_grid_radius_larger_than_cell () =
  (* The cell side is the radius, so the same placement is binned from
     about one node per cell up to one cell holding every node. *)
  let points = random_points ~seed:5 ~count:60 ~extent:50. in
  List.iter
    (fun radius -> ignore (check_build (Printf.sprintf "radius %f" radius) ~radius points))
    [ 2.; 4.; 7.5; 13.; 40. ]

let test_grid_strictness () =
  (* The neighbor rule is strict: distance exactly r is NOT within. *)
  let points = [| pt 0. 0.; pt 3. 0. |] in
  Alcotest.(check int) "strict" 0 (Graph.m (check_build "r = 3" ~radius:3. points));
  Alcotest.(check int) "slightly more" 1 (Graph.m (check_build "r > 3" ~radius:3.0001 points))

let test_grid_negative_coordinates () =
  (* Points outside the usual working space still bin correctly. *)
  let points = [| pt (-7.5) (-2.); pt (-6.) (-2.); pt 6. 2. |] in
  let g = check_build "negative" ~radius:2. points in
  Alcotest.(check (list int)) "negative region row" [ 1 ] (row g 0);
  Alcotest.(check (list int)) "far point isolated" [] (row g 2)

let test_grid_empty () =
  let g = check_build "empty" ~radius:5. [||] in
  Alcotest.(check (pair int int)) "no nodes, no edges" (0, 0) (Graph.n g, Graph.m g)

let test_grid_invalid_cell () =
  List.iter
    (fun radius ->
      Alcotest.check_raises (Printf.sprintf "radius %g" radius)
        (Invalid_argument "Unit_disk.build: radius must be positive") (fun () ->
          ignore (Unit_disk.build ~radius [| pt 0. 0.; pt 1. 0. |])))
    [ 0.; -1.; Float.nan; Float.neg_infinity ]

let test_grid_reach_multiples () =
  (* Radii at, just past and a relative hair past whole multiples of a
     length: points just inside the radius along each axis and the
     diagonal, at the far edge of the 3 x 3 block, must be found. *)
  let cell = 4. in
  List.iter
    (fun k ->
      let radius = float_of_int k *. cell in
      List.iter
        (fun radius ->
          let below = Float.pred radius in
          let points =
            [| pt 0. 0.; pt below 0.; pt (-.below) 0.; pt 0. below; pt radius 0.;
               pt (Float.pred (-.cell)) 0.; pt (below /. sqrt 2.) (below /. sqrt 2.) |]
          in
          let g = check_build (Printf.sprintf "radius %h" radius) ~radius points in
          Alcotest.(check (list int))
            (Printf.sprintf "radius %h row" radius)
            (List.tl (brute_within points (pt 0. 0.) radius))
            (row g 0))
        [ radius; Float.succ radius; radius *. (1. +. 1e-12) ])
    [ 1; 2; 3 ];
  (* Random placements at radii that are exact multiples. *)
  let points = random_points ~seed:11 ~count:200 ~extent:40. in
  for trial = 1 to 3 do
    let radius = float_of_int trial *. cell in
    ignore (check_build (Printf.sprintf "multiple trial %d" trial) ~radius points)
  done

let test_grid_far_apart () =
  (* Memory is O(n) whatever the bounding box: the build's scratch holds
     as many words for points a million cells apart as for points in
     neighbouring cells. *)
  let words points =
    let scratch = Unit_disk.Scratch.create () in
    let g = Unit_disk.build ~scratch ~radius:1. points in
    (g, Obj.reachable_words (Obj.repr scratch))
  in
  let g, far = words [| pt 0. 0.; pt 1e6 (-1e6); pt 0.5 0. |] in
  let _, near = words [| pt 0. 0.; pt 5. 5.; pt 0.5 0. |] in
  Alcotest.(check int) "size independent of spread" near far;
  Alcotest.(check (list int)) "near origin" [ 2 ] (row g 0);
  Alcotest.(check (list int)) "far point" [] (row g 1)

let () =
  Alcotest.run "geom"
    [
      ( "point",
        [
          Alcotest.test_case "distances" `Quick test_dist;
          Alcotest.test_case "toroidal distance" `Quick test_dist_toroidal;
          Alcotest.test_case "toroidal never longer" `Quick prop_toroidal_never_longer;
          Alcotest.test_case "vector ops" `Quick test_vector_ops;
          Alcotest.test_case "lerp" `Quick test_lerp;
          Alcotest.test_case "box" `Quick test_box;
        ] );
      ( "grid",
        [
          Alcotest.test_case "matches brute force" `Quick test_grid_matches_brute_force;
          Alcotest.test_case "radius larger than cell" `Quick test_grid_radius_larger_than_cell;
          Alcotest.test_case "strict inequality" `Quick test_grid_strictness;
          Alcotest.test_case "negative coordinates" `Quick test_grid_negative_coordinates;
          Alcotest.test_case "empty grid" `Quick test_grid_empty;
          Alcotest.test_case "invalid cell size" `Quick test_grid_invalid_cell;
          Alcotest.test_case "radius at cell multiples" `Quick test_grid_reach_multiples;
          Alcotest.test_case "far-apart points" `Quick test_grid_far_apart;
        ] );
    ]
