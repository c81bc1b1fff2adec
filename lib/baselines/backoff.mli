(** The event loop shared by the backoff schemes ({!Self_pruning},
    {!Counter_based}, {!Passive_clustering}), on
    {!Manet_broadcast.Engine.Scratch}.

    The source transmits at time 0.  A node's first copy arrives one
    time unit after its sender's transmission and starts a backoff
    drawn uniformly from 1..4 time units (all [n] draws are taken from
    [rng] up front, in node order); at expiry the node asks [decide]
    whether to transmit.  A node transmits at most once. *)

val run :
  name:string ->
  epilogue:'r Manet_broadcast.Engine.Scratch.epilogue ->
  arena:Manet_broadcast.Engine.Arena.t ->
  rng:Manet_rng.Rng.t ->
  Manet_graph.Graph.t ->
  source:int ->
  decide:(tx:int array -> time:int -> int -> bool) ->
  'r
(** One broadcast, read through [epilogue]:
    {!Manet_broadcast.Engine.Scratch.finish} gives the result and the
    [(time, node)] transmission timeline,
    {!Manet_broadcast.Engine.Scratch.count} only the counts; the loop,
    its draws and its [decide] calls are the same either way.
    [decide ~tx ~time v] is called once, at [v]'s expiry;
    [tx.(u)] is [u]'s transmission time ([max_int] if it has not
    transmitted), so the copies [v] has heard are exactly those of its
    neighbours [u] with [tx.(u) < time].  The run's scratch comes from
    [arena], as in {!Manet_broadcast.Engine.Scratch.with_scratch}.
    @raise Invalid_argument ["<name>: source out of range"]. *)
