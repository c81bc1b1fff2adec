(* The one breadth-first traversal of the library.  A state is two
   n-slot int arrays reused across traversals: [mark] holds both the
   seen flag and the hop distance relative to [base], and [queue] is the
   flat frontier (each node enters at most once).  [reset] forgets a
   traversal by moving [base] past every mark it wrote, so starting a
   new one costs O(1); the inner loop scans the CSR row directly. *)

(* [mark.(v) >= base]: [v] is seen, at hop distance [mark.(v) - base];
   a blocked node reads [base + n]. *)
type t = {
  mutable mark : int array;
  mutable queue : int array;
  mutable base : int;
  mutable n : int;
  mutable head : int;
  mutable tail : int;
  mutable settled : int;  (** queued plus blocked *)
}

let create () = { mark = [||]; queue = [||]; base = 1; n = 0; head = 0; tail = 0; settled = 0 }

let reset t ~n =
  if Array.length t.mark < n then begin
    t.mark <- Array.make n 0;
    t.queue <- Array.make n 0;
    t.base <- 1
  end
  else
    (* The last traversal wrote marks in [base, base + n]. *)
    t.base <- t.base + t.n + 1;
  t.n <- n;
  t.head <- 0;
  t.tail <- 0;
  t.settled <- 0

let block t v =
  if t.mark.(v) < t.base then begin
    t.mark.(v) <- t.base + t.n;
    t.settled <- t.settled + 1
  end

let seed t v =
  if t.mark.(v) < t.base then begin
    t.mark.(v) <- t.base;
    t.queue.(t.tail) <- v;
    t.tail <- t.tail + 1;
    t.settled <- t.settled + 1
  end

let expand t g ~limit =
  if Graph.n g > t.n then invalid_arg "Bfs.expand: graph larger than the reset";
  let { Graph.off; nbr; _ } = g in
  let mark = t.mark and queue = t.queue and base = t.base and n = t.n in
  let head = ref t.head and tail = ref t.tail and settled = ref t.settled in
  while !head < !tail && !settled < n do
    let u = Array.unsafe_get queue !head in
    incr head;
    let mu = Array.unsafe_get mark u in
    if mu - base < limit then
      for i = Array.unsafe_get off u to Array.unsafe_get off (u + 1) - 1 do
        let v = Array.unsafe_get nbr i in
        if Array.unsafe_get mark v < base then begin
          Array.unsafe_set mark v (mu + 1);
          Array.unsafe_set queue !tail v;
          incr tail;
          incr settled
        end
      done
  done;
  t.head <- !head;
  t.tail <- !tail;
  t.settled <- !settled

let reached t = t.tail

let nth t i = t.queue.(i)

let seen t v = t.mark.(v) >= t.base

let dist t v =
  let d = t.mark.(v) - t.base in
  if d < 0 || d >= t.n then max_int else d

let distances_upto g ~source ~limit =
  let n = Graph.n g in
  let t = create () in
  reset t ~n;
  seed t source;
  expand t g ~limit;
  (* The state is this call's own: its mark array becomes the result. *)
  let d = t.mark in
  for v = 0 to n - 1 do
    d.(v) <- dist t v
  done;
  d

let distances g ~source = distances_upto g ~source ~limit:max_int
