module Rng = Manet_rng.Rng
module Dist = Manet_rng.Dist
module Point = Manet_geom.Point

type model = Random_waypoint | Random_direction

type node_state =
  | Travelling of { dest : Point.t; speed : float }
  | Paused of { remaining : float }
  | Heading of { dir : Point.t; speed : float }  (** [dir] is a unit vector *)

type t = {
  model : model;
  pause_time : float;
  speed_min : float;
  speed_max : float;
  rng : Rng.t;
  spec : Spec.t;
  pos : Point.t array;
  state : node_state array;
}

let random_point rng (spec : Spec.t) =
  Point.make ~x:(Rng.float rng spec.width) ~y:(Rng.float rng spec.height)

let random_speed t = Dist.uniform t.rng ~lo:t.speed_min ~hi:t.speed_max

let random_heading rng =
  let a = Rng.float rng (2. *. Float.pi) in
  Point.make ~x:(cos a) ~y:(sin a)

let fresh_state t i =
  match t.model with
  | Random_waypoint -> Travelling { dest = random_point t.rng t.spec; speed = random_speed t }
  | Random_direction ->
    ignore i;
    Heading { dir = random_heading t.rng; speed = random_speed t }

let create ?(pause_time = 0.) ~model ~speed_min ~speed_max ~rng ~spec points =
  if speed_min < 0. || speed_max < speed_min then invalid_arg "Mobility.create: bad speed range";
  let t =
    {
      model;
      pause_time;
      speed_min;
      speed_max;
      rng;
      spec;
      pos = Array.copy points;
      state = Array.make (Array.length points) (Paused { remaining = 0. });
    }
  in
  Array.iteri (fun i _ -> t.state.(i) <- fresh_state t i) points;
  t

let positions t = Array.copy t.pos
let unsafe_positions t = t.pos

(* Advance node [i] by [dt], possibly consuming several legs (arrive,
   pause, re-target) within the interval. *)
let rec advance t i dt =
  if dt > 1e-9 then
    match t.state.(i) with
    | Paused { remaining } ->
      if remaining > dt then t.state.(i) <- Paused { remaining = remaining -. dt }
      else begin
        t.state.(i) <- fresh_state t i;
        advance t i (dt -. remaining)
      end
    | Travelling { dest; speed } ->
      let d = Point.dist t.pos.(i) dest in
      let reach = speed *. dt in
      if speed <= 0. then ()
      else if reach >= d then begin
        t.pos.(i) <- dest;
        let leftover = dt -. (d /. speed) in
        t.state.(i) <- Paused { remaining = t.pause_time };
        advance t i leftover
      end
      else t.pos.(i) <- Point.lerp t.pos.(i) dest (reach /. d)
    | Heading { dir; speed } ->
      let next = Point.add t.pos.(i) (Point.scale (speed *. dt) dir) in
      if Point.in_box next ~width:t.spec.width ~height:t.spec.height then t.pos.(i) <- next
      else begin
        (* Stop at the boundary, pick a fresh heading, spend the rest of
           the interval on it. *)
        let clamped = Point.clamp_box next ~width:t.spec.width ~height:t.spec.height in
        let travelled = Point.dist t.pos.(i) clamped in
        (* [max 1e-6] guarantees progress when the node is already on the
           boundary and the new heading happens to point outward again. *)
        let used = if speed > 0. then Float.max (travelled /. speed) 1e-6 else dt in
        t.pos.(i) <- clamped;
        t.state.(i) <- Heading { dir = random_heading t.rng; speed };
        advance t i (dt -. used)
      end

let step t ~dt =
  if dt < 0. then invalid_arg "Mobility.step: negative dt";
  Array.iteri (fun i _ -> advance t i dt) t.pos

let graph t ~radius = Manet_graph.Unit_disk.build ~radius (unsafe_positions t)
