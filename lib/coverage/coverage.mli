(** Coverage sets (Section 1 and Section 3 of the paper).

    A clusterhead u's coverage set C(u) is the set of clusterheads in a
    specific coverage area around u, split into C2(u) (2 hops away) and
    C3(u) (3 hops away):

    - the {b 3-hop} coverage set contains every clusterhead in N^3(u);
    - the {b 2.5-hop} coverage set contains every clusterhead that has
      cluster members in N^2(u) — cheaper to maintain, still yields a
      strongly connected cluster graph.

    The sets are computed exactly as the CH_HOP1 / CH_HOP2 message
    exchange of Section 3 would compute them, including the subtlety shown
    in Figure 3: when a non-clusterhead v hears CH_HOP1(u), only {e u's
    own clusterhead} can become a 2-hop clusterhead entry of v (2.5-hop
    mode), whereas a clusterhead building its C2 uses {e all} entries of
    its neighbors' CH_HOP1 messages.

    Alongside each covered clusterhead the structure records the
    connectors through which it can be reached — the raw material of
    gateway selection:
    - a clusterhead c in C2(u) has {e direct connectors}: neighbors v of u
      with c in CH_HOP1(v);
    - a clusterhead c in C3(u) has {e connector pairs} (v, w): u - v - w - c,
      one pair per first-hop v (the protocol keeps the first entry it
      hears per clusterhead, i.e. the smallest second hop w).

    A coverage set is flat: one record of exact-sized int arrays, and
    nothing per covered clusterhead or per connector.  Each of C2 and C3
    is a sorted key array, an offset array and one connector buffer, the
    entries of key [i] lying at [off.(i) .. off.(i + 1) - 1]; a C3 pair
    is split across two parallel buffers.  Every reader (gateway
    selection, the forwarding tree, MO_CDS, the oracles) walks these
    arrays in place. *)

type mode = Hop25 | Hop3

val pp_mode : Format.formatter -> mode -> unit

type t = private {
  owner : int;  (** the clusterhead this coverage set belongs to *)
  mode : mode;
  c2_keys : int array;  (** C2(owner), strictly increasing *)
  c2_off : int array;
      (** length [|c2_keys| + 1], starting at 0: key [i]'s direct
          connectors are [c2_via.(c2_off.(i) .. c2_off.(i + 1) - 1)] *)
  c2_via : int array;  (** direct connectors; each key's range strictly increasing, nonempty *)
  c3_keys : int array;  (** C3(owner), strictly increasing, disjoint from [c2_keys] *)
  c3_off : int array;  (** length [|c3_keys| + 1], starting at 0, as [c2_off] *)
  c3_v : int array;  (** first hops of the connector pairs *)
  c3_w : int array;
      (** second hops, parallel to [c3_v]: key [i]'s pairs are
          [(c3_v.(j), c3_w.(j))] for [j] in [c3_off.(i) .. c3_off.(i + 1) - 1],
          nonempty, their first hops strictly increasing: one pair per
          first hop, which gateway selection relies on *)
}
(** The arrays are shared with the cache that built them (the offset
    array of an empty key array is one shared constant): callers must
    not mutate them. *)

val of_sorted :
  owner:int -> mode -> c2:(int * int list) list -> c3:(int * (int * int) list) list -> t
(** [of_sorted ~owner mode ~c2 ~c3] lays out a coverage set given as
    [(clusterhead, connectors)] lists — the message-level result of
    {!Ch_hop_proto}.  Keys must be strictly increasing, and each
    connector list nonempty and strictly increasing (a pair list by
    first hop: one pair per first hop).
    @raise Invalid_argument otherwise. *)

val ch_hop1 : Manet_graph.Graph.t -> Manet_cluster.Clustering.t -> int -> Manet_graph.Nodeset.t
(** [ch_hop1 g cl v] is the CH_HOP1(v) message content: all clusterheads
    adjacent to non-clusterhead [v].
    @raise Invalid_argument if [v] is a clusterhead. *)

val ch_hop2 :
  Manet_graph.Graph.t -> Manet_cluster.Clustering.t -> mode -> int -> (int * int) list
(** [ch_hop2 g cl mode v] is the CH_HOP2(v) content: entries
    [(clusterhead, via)] with [via] a non-clusterhead neighbor of [v] —
    one entry per clusterhead (smallest via), clusterheads increasing.
    In [Hop25] mode only [via]'s own clusterhead qualifies; in [Hop3] mode
    any clusterhead adjacent to [via].  Clusterheads adjacent to [v]
    itself are never included.
    @raise Invalid_argument if [v] is a clusterhead. *)

val of_head : Manet_graph.Graph.t -> Manet_cluster.Clustering.t -> mode -> int -> t
(** The coverage set of clusterhead [u], with connector tables.  A
    clusterhead appearing both 2 and 3 hops away is kept in C2 only.

    This is the independent per-head reference the cache is checked
    against: it rebuilds the CH_HOP1/CH_HOP2 rows of [u]'s own neighbors
    through the per-row path of {!ch_hop1}/{!ch_hop2} (never a
    whole-graph row buffer), so one call costs O(n) set-up plus the work
    of [u]'s 2-hop neighborhood.
    @raise Invalid_argument if [u] is not a clusterhead. *)

(** Shared CH_HOP tables for one [(graph, clustering, mode)] triple.

    Computing a coverage set needs the CH_HOP1 row of every neighbor and
    the CH_HOP2 row of every 2-hop node; computed naively per clusterhead
    (as {!of_head} does) the same rows are rebuilt many times over —
    O(sum deg³) in [Hop3] mode for {!all}.  The cache computes each row
    exactly once (O(sum deg) for hop-1, O(sum deg²) for hop-2) and hands
    the same arrays to every consumer: {!Manet_backbone.Static_backbone},
    {!Manet_backbone.Dynamic_backbone}, the forwarding tree, the gateway
    protocol and {!Manet_backbone.Backbone_maintenance}.

    The CH_HOP2 rows are stored flat: one packed int buffer for all nodes
    plus an offset array of length n+1, built in one pass over the graph
    (a node-id stamp deduplicates each row, which is then sorted in
    place) — no per-row arrays.  Coverage sets are built from those rows
    one head at a time into one per-head memo (all heads sharing one
    working scratch): {!coverage} fills one slot, {!coverages} fills the
    rest and returns the memo.  Once the scratch exists, a head's set
    allocates its record, its [Some] and its seven arrays, nothing else:
    two scans of the neighbors' rows per half (count, then write at
    per-key cursors) and one in-place sort of the keys.

    Tables are filled lazily on first use and memoised; a cache must be
    discarded whenever the graph or clustering changes. *)
module Cache : sig
  type coverage = t

  type nonrec mode = mode

  type t

  val create : Manet_graph.Graph.t -> Manet_cluster.Clustering.t -> mode -> t
  (** Builds the hop-1 rows eagerly (one O(sum deg) pass); everything else
      is filled on demand. *)

  val create_for :
    Manet_graph.Graph.t -> Manet_cluster.Clustering.t -> mode -> int array -> int -> t
  (** [create_for g cl mode heads k] is a table that answers {!coverage}
      for the clusterheads [heads.(0) .. heads.(k - 1)] only, equal to
      {!create}'s there.  It holds the rows those sets read and no
      others: the CH_HOP1 rows at the heads' neighbours (in [Hop3] mode
      also one hop further, which their CH_HOP2 rows read) and the
      CH_HOP2 rows at the heads' neighbours, all built at once.  Every
      other row reads empty, and {!coverage} of any other clusterhead
      is unspecified.  This is the path of an incremental update that
      refreshes a few heads ({!Manet_backbone.Backbone_maintenance}). *)

  val with_mode : t -> mode -> t
  (** [with_mode t mode] is a fresh table over [t]'s graph and
      clustering in [mode] — equal to [create (graph t) (clustering t)
      mode] — that shares [t]'s hop-1 rows, since CH_HOP1 does not
      depend on the mode: nothing is computed eagerly. *)

  val graph : t -> Manet_graph.Graph.t

  val clustering : t -> Manet_cluster.Clustering.t

  val mode : t -> mode

  val ch_hop1 : t -> int -> int array
  (** Sorted clusterheads adjacent to the node; empty for clusterheads
      (they form an independent set).  The returned array is the cached
      one — callers must not mutate it. *)

  val ch_hop2 : t -> int -> (int * int) array
  (** The node's CH_HOP2 entries [(clusterhead, via)], sorted by
      clusterhead; empty for clusterheads.  Decoded from the flat packed
      rows — a fresh array each call. *)

  val coverages : t -> coverage option array
  (** Same contents as {!all}: the cache's per-head memo, completed on
      the first call (heads already computed through {!coverage} are
      reused, not recomputed) and returned itself — every call returns
      the same array.  Callers must not mutate it. *)

  val coverage : t -> int -> coverage
  (** [coverage c h] is head [h]'s coverage set — physically
      [Option.get (coverages c).(h)], and equal to {!of_head}.  Only
      [h]'s set is built (on top of the shared hop tables) and it is
      memoised; the memo and the working scratch are allocated on first
      use.
      @raise Invalid_argument if [h] is not a clusterhead. *)
end

val all : Manet_graph.Graph.t -> Manet_cluster.Clustering.t -> mode -> t option array
(** Indexed by node id; [Some] exactly at clusterheads.  Equivalent to
    [Cache.coverages (Cache.create g cl mode)]. *)

val covered : t -> Manet_graph.Nodeset.t
(** C(u) = C2(u) union C3(u), as a set of clusterheads. *)

val c2_set : t -> Manet_graph.Nodeset.t

val c3_set : t -> Manet_graph.Nodeset.t

val size : t -> int

val pp : Format.formatter -> t -> unit
