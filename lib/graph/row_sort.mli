(** In-place ascending sort of an int array range: the one int sort of
    the hot paths (the CSR builders of this library, the coverage cache's
    flat rows, gateway selection's candidate and output buffers). *)

val sort_range : int array -> int -> int -> unit
(** [sort_range a lo hi] sorts [a.(lo) .. a.(hi - 1)] ascending and
    leaves the rest of [a] untouched.  Allocation-free: insertion sort
    for ranges of up to 64 entries, heapsort above. *)
