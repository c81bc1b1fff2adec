(** Sorted int rows: the one int sort of the hot paths (the CSR
    builders of this library, the coverage cache's flat rows, gateway
    selection's candidate and output buffers) and the one binary search
    over such rows (graph adjacency, digraph arcs, gateway selection's
    pruning rows, the serving roster). *)

val sort_range : int array -> int -> int -> unit
(** [sort_range a lo hi] sorts [a.(lo) .. a.(hi - 1)] ascending and
    leaves the rest of [a] untouched.  Allocation-free: insertion sort
    for ranges of up to 64 entries, heapsort above. *)

val lower_bound : int array -> int -> int -> int -> int
(** [lower_bound a lo hi x] is the first index [i] in [\[lo, hi)] with
    [a.(i) >= x], or [hi] if there is none; [a.(lo) .. a.(hi - 1)] must
    be ascending.  [x] is in the range iff [i < hi && a.(i) = x].
    Allocation-free, O(log (hi - lo)). *)
