module Graph = Manet_graph.Graph
module Nodeset = Manet_graph.Nodeset
module Rng = Manet_rng.Rng
module Coverage = Manet_coverage.Coverage

type family = Source_independent | Source_dependent | Probabilistic

let family_tag = function
  | Source_independent -> "SI"
  | Source_dependent -> "SD"
  | Probabilistic -> "prob"

type env = {
  mutable graph : Graph.t;
  mutable clustering : Manet_cluster.Clustering.t Lazy.t;
  mutable rng : Rng.t;
  arena : Engine.Arena.t;
  mutable down : (time:int -> node:int -> bool) option;
  mutable hop25 : Coverage.Cache.t option;
  mutable hop3 : Coverage.Cache.t option;
}

let make_env ?clustering ?rng ?arena ?down graph =
  let clustering =
    match clustering with
    | Some c -> c
    | None -> lazy (Manet_cluster.Lowest_id.cluster graph)
  in
  let rng = match rng with Some r -> r | None -> Rng.create ~seed:0 in
  let arena = match arena with Some a -> a | None -> Engine.Arena.get () in
  { graph; clustering; rng; arena; down; hop25 = None; hop3 = None }

(* A kept table is valid only while it was built from the env's current
   graph and clustering, compared physically: [retarget] and an
   [{ env with clustering }] copy both change one of them, so neither
   can read a stale table, and nothing has to invalidate it.  A valid
   table of the other mode lends a new one its hop-1 rows. *)
let current env cl c = Coverage.Cache.graph c == env.graph && Coverage.Cache.clustering c == cl

let coverage env mode =
  let cl = Lazy.force env.clustering in
  let kept = match mode with Coverage.Hop25 -> env.hop25 | Coverage.Hop3 -> env.hop3 in
  match kept with
  | Some c when current env cl c -> c
  | _ ->
    let other = match mode with Coverage.Hop25 -> env.hop3 | Coverage.Hop3 -> env.hop25 in
    let c =
      match other with
      | Some o when current env cl o -> Coverage.Cache.with_mode o mode
      | _ -> Coverage.Cache.create env.graph cl mode
    in
    (match mode with Coverage.Hop25 -> env.hop25 <- Some c | Coverage.Hop3 -> env.hop3 <- Some c);
    c

(* The live-view entry point: a long-lived environment tracks a mutating
   network.  Swapping the topology (and the clustering derived from it)
   in place keeps the same arena — and so the same generation-tagged
   scratch and event calendar — serving every broadcast of a
   continuous stream; the arena grows monotonically to the largest
   graph it has seen and is never torn down between events. *)
let retarget ?graph ?clustering ?rng env =
  (match graph with
  | None -> ()
  | Some g ->
    env.graph <- g;
    (* A stale clustering silently outliving its graph is exactly the
       bug class the workload oracles chase; force the caller to supply
       the new one (or accept the default) whenever the graph moves. *)
    env.clustering <-
      (match clustering with
      | Some c -> c
      | None -> lazy (Manet_cluster.Lowest_id.cluster g)));
  (match (graph, clustering) with
  | None, Some c -> env.clustering <- c
  | _ -> ());
  match rng with None -> () | Some r -> env.rng <- r

type mode = Perfect | Lossy of float

type built = {
  members : Nodeset.t option;
  run : source:int -> mode:mode -> Result.t * (int * int) list;
  count : source:int -> mode:mode -> Engine.counts;
}

type t = {
  name : string;
  description : string;
  family : family;
  has_build : bool;
  prepare : env -> built;
}

(* The loss model of a mode: [None] when no reception can drop, else a
   closure drawing once per reception.  [Lossy 0.] (and [-0.]) gets
   [None] too: its threshold is 0, so its closure would never draw, and
   loss 0 is bit-identical to [Perfect]. *)
let drop_of env = function
  | Perfect -> None
  | Lossy loss ->
    (* Written so that NaN fails too: [nan < 0.] and [nan > 1.] are
       both false, and a NaN threshold would never drop. *)
    if not (loss >= 0. && loss <= 1.) then invalid_arg "Protocol.run: loss must be within [0, 1]";
    (* [bits53 rng < threshold] decides [float rng 1. < loss] on the
       same generator draw without boxing a float per reception:
       [loss *. 2^53] is exact scaling by a power of two, and the
       53-bit draw is exactly representable, so ceil makes the integer
       comparison equivalent bit-for-bit. *)
    let threshold = int_of_float (Float.ceil (loss *. 9007199254740992.)) in
    if threshold = 0 then None
    else
      let rng = env.rng in
      Some (fun () -> Rng.bits53 rng < threshold)

(* The uniform pipeline: one engine core, perfect or lossy. *)
let decide_run env ~source ~mode decide =
  Engine.run_core ?drop:(drop_of env mode) ?down:env.down ~arena:env.arena env.graph ~source ~decide

let decide_count env ~source ~mode decide =
  Engine.run_count ?drop:(drop_of env mode) ?down:env.down ~arena:env.arena env.graph ~source
    ~decide

(* [decide_run] in the unit-packet shape the traced replay compiles
   against. *)
let run_decide env ~source ~mode ~initial:() ~decide =
  decide_run env ~source ~mode (fun ~node ~from -> Option.is_some (decide ~node ~from ~payload:()))

let si_decide members ~node ~from:_ = Nodeset.mem node members

(* [si_decide] over a flat membership indicator, one byte per node up to
   the largest member, paired with the indicator itself as
   {!Engine.run_si_count}'s [member]: built once per prepared protocol,
   at its first broadcast (a consumer that only reads [members] never
   pays for it), it turns each reception's binary search into one byte
   read. *)
let indicator members =
  let ind =
    Bytes.make (if Nodeset.is_empty members then 0 else Nodeset.max_elt members + 1) '\000'
  in
  Nodeset.iter (fun v -> Bytes.unsafe_set ind v '\001') members;
  (Some ind, fun ~node ~from:_ -> node < Bytes.length ind && Bytes.unsafe_get ind node <> '\000')

let loss_free env mode = Option.is_none (drop_of env mode) && Option.is_none env.down

(* The counts of an SI broadcast over [member] ([None]: every node)
   whose loop answers with [decide]: one traversal when no reception
   can drop and no node can fail, where a member forwards its first
   copy whatever it is; else the reception loop, whose draws and
   failure queries keep their order. *)
let si_count env ~member ~decide ~source ~mode =
  match (drop_of env mode, env.down) with
  | None, None -> Engine.run_si_count ~arena:env.arena env.graph ~source ~member
  | drop, down -> Engine.run_count ?drop ?down ~arena:env.arena env.graph ~source ~decide

let of_pipeline env ~members pipeline =
  {
    members;
    run = (fun ~source ~mode -> decide_run env ~source ~mode (pipeline ~source));
    count = (fun ~source ~mode -> decide_count env ~source ~mode (pipeline ~source));
  }

let si ~name ~description ~build =
  {
    name;
    description;
    family = Source_independent;
    has_build = true;
    prepare =
      (fun env ->
        let members = build env in
        let ind = lazy (indicator members) in
        {
          members = Some members;
          run =
            (fun ~source ~mode ->
              let _, decide = Lazy.force ind in
              decide_run env ~source ~mode decide);
          count =
            (fun ~source ~mode ->
              let member, decide = Lazy.force ind in
              si_count env ~member ~decide ~source ~mode);
        });
  }

let with_build ~name ~description ~family prepare =
  { name; description; family; has_build = true; prepare }

let per_broadcast ~name ~description ~family pipeline =
  {
    name;
    description;
    family;
    has_build = false;
    prepare = (fun env -> of_pipeline env ~members:None (pipeline env));
  }

(* [clean] under [Perfect] (or [Lossy 0.]) with no [down] schedule, else
   [replay] of the forward set frozen from a clean native [run]. *)
let frozen env ~run ~clean ~replay ~source ~mode =
  match (mode, env.down) with
  | (Perfect | Lossy 0.), None ->
    (* No reception can drop and no node can fail: keep the native
       event loop, so loss 0 is bit-identical to [Perfect], like
       everywhere else. *)
    clean ~source
  | _ ->
    (* Freeze the forward set from a failure-free, loss-free native
       run, then replay it through the uniform pipeline where loss and
       node failures live: the designations are decided cleanly, only
       the data propagation is unreliable. *)
    let frozen, _ = run ~source in
    (* A forward set lives for one broadcast: an indicator built for it
       would cost more than the membership tests it saves. *)
    let fwd = frozen.Result.forwarders in
    replay env ~source ~mode (si_decide fwd)

let frozen_lossy env ~run ~count =
  {
    members = None;
    run = (fun ~source ~mode -> frozen env ~run ~clean:run ~replay:decide_run ~source ~mode);
    count = (fun ~source ~mode -> frozen env ~run ~clean:count ~replay:decide_count ~source ~mode);
  }

let native ~name ~description ~family ~run ~count =
  {
    name;
    description;
    family;
    has_build = false;
    prepare = (fun env -> frozen_lossy env ~run:(run env) ~count:(count env));
  }

let flood ~node:_ ~from:_ = true

let flooding =
  {
    name = "flooding";
    description = "blind flooding: every node forwards its first copy (Ni et al.'s broadcast storm)";
    family = Source_independent;
    has_build = false;
    prepare =
      (fun env ->
        {
          members = None;
          run = (fun ~source ~mode -> decide_run env ~source ~mode flood);
          count = (fun ~source ~mode -> si_count env ~member:None ~decide:flood ~source ~mode);
        });
  }
