(** The 2-hop cover kernel shared by the neighbor-designation schemes.

    Dominant pruning, PDP, AHBP and MPR all choose their forward sets
    the same way: greedily pick 1-hop neighbors of [v] whose open
    neighborhoods cover a target universe, the strict 2-hop
    neighborhood N(N(v)) - N[v] minus what the scheme knows is covered
    already.  A scan marks that universe on a reusable node map, tagged
    by a generation so a new scan starts in O(1), reading the graph's
    CSR rows directly: O(deg²) to mark, O(deg²) per greedy pick, and
    nothing allocated but the result.

    A scan is {!start}, then the scheme's exclusions ({!exclude_open},
    {!exclude_closed}), then {!forwards} or {!mpr}; {!protocol} runs
    one per forwarding node. *)

type t
(** A reusable scan state; it grows to the largest graph it is started
    on.  One per prepared protocol. *)

val create : unit -> t

val start : t -> Manet_graph.Graph.t -> unit
(** Begin a scan over the graph: nothing is excluded. *)

val exclude_open : t -> Manet_graph.Graph.t -> int -> unit
(** Drop N(w) from this scan's universe. *)

val exclude_closed : t -> Manet_graph.Graph.t -> int -> unit
(** Drop N[u] from this scan's universe. *)

val forwards : t -> Manet_graph.Graph.t -> node:int -> int array
(** The greedy cover of N(N(node)) - N[node] minus the exclusions by
    the open neighborhoods of [node]'s neighbors: each pick is the
    neighbor covering the most targets still uncovered, ties toward the
    lowest id, until every target is covered.  Strictly increasing. *)

val mpr : t -> Manet_graph.Graph.t -> node:int -> int array
(** [node]'s multipoint relays: first every neighbor that is the only
    access to some strict 2-hop node, then {!forwards}'s greedy over
    what they leave uncovered.  Strictly increasing. *)

val mem : int array -> int -> bool
(** Membership in a strictly increasing selection, by binary search. *)

val protocol :
  name:string ->
  description:string ->
  (t -> Manet_graph.Graph.t -> node:int -> from:int -> payload:int array -> unit) ->
  Manet_broadcast.Protocol.t
(** A source-dependent designation scheme with no build phase: the
    packet is the sender's {!forwards}, and a node designated in it
    forwards with its own, after excluding N[from] and what [exclude]
    adds for the packet [payload] it received from [from].  Each
    prepared instance owns one scan state and one packet slot per
    sender (the forward lists of the broadcast's transmitters), both
    grown to the graph each broadcast reads ([env.graph] is mutable). *)
