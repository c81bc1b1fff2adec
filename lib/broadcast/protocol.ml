module Graph = Manet_graph.Graph
module Nodeset = Manet_graph.Nodeset
module Rng = Manet_rng.Rng

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
}

let make_env ?clustering ?rng ?arena ?down graph =
  let clustering =
    match clustering with
    | Some c -> c
    | None -> lazy (Manet_cluster.Lowest_id.cluster graph)
  in
  let rng = match rng with Some r -> r | None -> Rng.create ~seed:0 in
  let arena = match arena with Some a -> a | None -> Engine.Arena.get () in
  { graph; clustering; rng; arena; down }

(* The live-view entry point: a long-lived environment tracks a mutating
   network.  Swapping the topology (and the clustering derived from it)
   in place keeps the same arena — and so the same generation-tagged
   scratch, heap storage and flatset pool — serving every broadcast of a
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
}

type t = {
  name : string;
  description : string;
  family : family;
  has_build : bool;
  prepare : env -> built;
}

(* The uniform pipeline: one engine core, perfect or lossy.  A [Lossy 0.]
   drop closure never draws from the generator (its threshold is 0), so
   loss 0 is bit-identical to [Perfect]. *)
let run_decide env ~source ~mode ~initial ~decide =
  let down = env.down in
  match mode with
  | Perfect -> Engine.run_core ?down ~arena:env.arena env.graph ~source ~initial ~decide
  | Lossy loss ->
    (* Written so that NaN fails too: [nan < 0.] and [nan > 1.] are
       both false, and a NaN threshold would never drop. *)
    if not (loss >= 0. && loss <= 1.) then invalid_arg "Protocol.run: loss must be within [0, 1]";
    let rng = env.rng in
    (* [bits53 rng < threshold] decides [float rng 1. < loss] on the
       same generator draw without boxing a float per reception:
       [loss *. 2^53] is exact scaling by a power of two, and the
       53-bit draw is exactly representable, so ceil makes the integer
       comparison equivalent bit-for-bit. *)
    let threshold = int_of_float (Float.ceil (loss *. 9007199254740992.)) in
    Engine.run_core
      ~drop:(fun () -> threshold > 0 && Rng.bits53 rng < threshold)
      ?down ~arena:env.arena env.graph ~source ~initial ~decide

let si_decide members ~node ~from:_ ~payload:() =
  if Nodeset.mem node members then Some () else None

let si ~name ~description ~build =
  {
    name;
    description;
    family = Source_independent;
    has_build = true;
    prepare =
      (fun env ->
        let members = build env in
        {
          members = Some members;
          run = (fun ~source ~mode -> run_decide env ~source ~mode ~initial:() ~decide:(si_decide members));
        });
  }

let with_build ~name ~description ~family prepare =
  { name; description; family; has_build = true; prepare }

let per_broadcast ~name ~description ~family run =
  {
    name;
    description;
    family;
    has_build = false;
    prepare = (fun env -> { members = None; run = (fun ~source ~mode -> run env ~source ~mode) });
  }

let per_broadcast_prepared ~name ~description ~family prepare =
  {
    name;
    description;
    family;
    has_build = false;
    prepare = (fun env -> { members = None; run = prepare env });
  }

let frozen_lossy env ~run ~source ~mode =
  match (mode, env.down) with
  | (Perfect | Lossy 0.), None ->
    (* No reception can drop and no node can fail: keep the native
       event loop, so loss 0 is bit-identical to [Perfect], like
       everywhere else. *)
    run ~source
  | _ ->
    (* Freeze the forward set from a failure-free, loss-free native
       run, then replay it through the uniform pipeline where loss and
       node failures live: the designations are decided cleanly, only
       the data propagation is unreliable. *)
    let frozen, _ = run ~source in
    let fwd = frozen.Result.forwarders in
    run_decide env ~source ~mode ~initial:() ~decide:(si_decide fwd)

let flooding =
  per_broadcast ~name:"flooding"
    ~description:"blind flooding: every node forwards its first copy (Ni et al.'s broadcast storm)"
    ~family:Source_independent
    (fun env ~source ~mode ->
      run_decide env ~source ~mode ~initial:() ~decide:(fun ~node:_ ~from:_ ~payload:() -> Some ()))
