(** In-place sorting of one CSR row, shared by the graph builders of this
    library (private to it). *)

val sort_range : int array -> int -> int -> unit
(** [sort_range a lo hi] sorts [a.(lo) .. a.(hi - 1)] ascending, without
    allocating for rows of up to 64 entries. *)
