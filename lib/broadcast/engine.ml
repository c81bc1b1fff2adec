module Graph = Manet_graph.Graph
module Nodeset = Manet_graph.Nodeset

(* Reusable per-worker scratch for {!run_core}.  A broadcast needs two
   per-node maps (delivered/transmitted), the pending receptions and a
   transmission timeline; the arena keeps all of them alive between runs
   so a sweep's per-broadcast engine allocations are O(1) steady state
   instead of O(n + receptions).

   The node maps are generation-tagged: [delivered.(v) = gen] means
   delivered in the current run, so reset is one counter bump.

   Pending receptions live in a frontier calendar, not a priority queue.
   The model is round-synchronous — a transmission at time t reaches
   every neighbour at t + 1, a dynamic-backbone designation at t + 1 or
   t + 2 — so all events of time t + 1 are known once time t has been
   processed.  A reception is one int key, [(receiver lsl shift) lor
   sender] (shifted above the payload bits in {!Scratch}).  While level
   t is processed, keys for t + 1 are appended to [next] (and, in
   {!Scratch}, keys for t + 2 .. t + 4 to a small ring of future levels,
   [ahead]); opening level t + 1 sorts [next] once, with a stable LSD
   radix sort, into [cur], which is then read in order, and moves the
   ring's t + 2 level into the emptied [next].  Ascending keys are
   exactly the (receiver, sender) order, so levels read in turn give the
   (time, receiver, sender) processing order of the seed's event heap,
   and results are bit-identical however the arena is reused.

   The arena holds no packets: a protocol whose decision reads what the
   sender's copy carries keeps that packet in its own prepared state,
   indexed by the sender. *)
module Arena = struct
  type t = {
    mutable cap : int;
    mutable gen : int;
    mutable delivered : int array;
    mutable transmitted : int array;
    mutable trace_time : int array;
    mutable trace_node : int array;
    mutable trace_len : int;
    mutable reached : int;  (** nodes delivered so far in the current run *)
    mutable now : int;  (** time of the level in [cur] *)
    mutable cur : int array;  (** the open level's keys, sorted *)
    mutable cur_len : int;
    mutable pos : int;  (** {!Scratch}'s cursor into [cur] *)
    mutable next : int array;  (** keys for [now + 1], in push order *)
    mutable next_len : int;
    ahead : int array array;
        (** keys for [now + 2 .. now + 1 + ring], the level of time [t]
            in slot [t mod ring] ({!Scratch} only; empty until used) *)
    ahead_len : int array;
    mutable counts : int array;  (** radix digit counts, allocated on first use *)
    mutable busy : bool;
  }

  (* Levels the calendar holds beyond [next]: {!Scratch} schedules
     up to four time units ahead. *)
  let ring = 3

  let create () =
    {
      cap = 0;
      gen = 0;
      delivered = [||];
      transmitted = [||];
      trace_time = [||];
      trace_node = [||];
      trace_len = 0;
      reached = 0;
      now = 0;
      cur = [||];
      cur_len = 0;
      pos = -1;
      next = [||];
      next_len = 0;
      ahead = Array.make ring [||];
      ahead_len = Array.make ring 0;
      counts = [||];
      busy = false;
    }

  let dls = Domain.DLS.new_key create
  let get () = Domain.DLS.get dls

  (* A node transmits at most once per broadcast, so the timeline never
     holds more than [n] entries. *)
  let reserve a ~n =
    if a.cap < n then begin
      a.delivered <- Array.make n 0;
      a.transmitted <- Array.make n 0;
      a.trace_time <- Array.make n 0;
      a.trace_node <- Array.make n 0;
      a.cap <- n
    end
end

(* Takes [arena], or a private fresh one when it is already mid-run — a
   broadcast nested inside [decide]. *)
let acquire arena =
  let a = if arena.Arena.busy then Arena.create () else arena in
  a.busy <- true;
  a

let release (a : Arena.t) = a.busy <- false

(* Starts one broadcast on an acquired arena; returns its generation. *)
let start (a : Arena.t) ~n =
  Arena.reserve a ~n;
  a.gen <- a.gen + 1;
  a.trace_len <- 0;
  a.reached <- 0;
  a.now <- 0;
  a.cur_len <- 0;
  a.pos <- -1;
  a.next_len <- 0;
  Array.fill a.ahead_len 0 Arena.ring 0;
  a.gen

let trace_push (a : Arena.t) time v =
  a.trace_time.(a.trace_len) <- time;
  a.trace_node.(a.trace_len) <- v;
  a.trace_len <- a.trace_len + 1

let min_level = 64

(* [buf] regrown (contents kept up to [len]) to hold at least [need]. *)
let grown buf ~len ~need =
  let ncap = ref (max min_level (Array.length buf)) in
  while !ncap < need do
    ncap := 2 * !ncap
  done;
  let b = Array.make !ncap 0 in
  Array.blit buf 0 b 0 len;
  b

(* Room for [k] more keys in [next]; returns the first free index. *)
let reserve_next (a : Arena.t) k =
  let len = a.next_len in
  if len + k > Array.length a.next then a.next <- grown a.next ~len ~need:(len + k);
  len

(* {2 Level sort}

   Stable LSD radix sort of [next] by the key field [(x lsr lo)] of
   [bits] bits (every key bit above the field is zero), in passes of at
   most [digit_bits] bits, scattering between [next] and the consumed
   [cur]; a level of at most [small_level] keys is insertion-sorted
   instead, into the same order.  A pass over a [w]-bit digit costs 2^w
   bucket steps besides its key steps, so a level of [len] keys uses
   digits of about log2 len bits: a short level takes a few passes over
   small bucket arrays instead of one over 256 mostly empty buckets.  Any
   digit width gives the same stable order. *)

let digit_bits = 8

let rec bits_for b n = if 1 lsl b >= n then b else bits_for (b + 1) n

(* One stable counting pass on the [w]-bit digit at [shift]. *)
let counting_pass counts src dst len ~shift ~w =
  let m = (1 lsl w) - 1 in
  Array.fill counts 0 (m + 1) 0;
  for i = 0 to len - 1 do
    let d = (Array.unsafe_get src i lsr shift) land m in
    Array.unsafe_set counts d (Array.unsafe_get counts d + 1)
  done;
  let sum = ref 0 in
  for d = 0 to m do
    let c = Array.unsafe_get counts d in
    Array.unsafe_set counts d !sum;
    sum := !sum + c
  done;
  for i = 0 to len - 1 do
    let x = Array.unsafe_get src i in
    let d = (x lsr shift) land m in
    let j = Array.unsafe_get counts d in
    Array.unsafe_set dst j x;
    Array.unsafe_set counts d (j + 1)
  done

(* Levels of at most this many keys are sorted by insertion instead:
   the radix passes cost ceil(bits / w) sweeps over their buckets
   whatever the level's length. *)
let small_level = 16

(* Stable insertion sort of [src.(0 .. len - 1)] into [dst] by the field
   [(x lsr lo)]: a key moves past only strictly greater fields, so equal
   fields keep push order, as in the radix passes. *)
let insertion_sort src dst len ~lo =
  for i = 0 to len - 1 do
    let x = Array.unsafe_get src i in
    let f = x lsr lo in
    let j = ref (i - 1) in
    while !j >= 0 && Array.unsafe_get dst !j lsr lo > f do
      Array.unsafe_set dst (!j + 1) (Array.unsafe_get dst !j);
      decr j
    done;
    Array.unsafe_set dst (!j + 1) x
  done

(* Opens the next time unit: its keys ([next]) sorted into [cur], the
   cursor before the first of them, and the ring's level for the new
   [now + 1] moved into the emptied [next]. *)
let open_level (a : Arena.t) ~lo ~bits =
  a.now <- a.now + 1;
  let len = a.next_len in
  if Array.length a.cur < Array.length a.next then a.cur <- Array.make (Array.length a.next) 0;
  if len <= small_level then insertion_sort a.next a.cur len ~lo
  else begin
    if Array.length a.counts = 0 then a.counts <- Array.make (1 lsl digit_bits) 0;
    let widest = Int.max 2 (Int.min digit_bits (bits_for 0 len)) in
    let passes = (bits + widest - 1) / widest in
    let w = (bits + passes - 1) / passes in
    for p = 0 to passes - 1 do
      counting_pass a.counts a.next a.cur len ~shift:(lo + (p * w)) ~w;
      let sorted = a.cur in
      a.cur <- a.next;
      a.next <- sorted
    done;
    (* After the last pass the sorted keys are in [next]. *)
    let sorted = a.next in
    a.next <- a.cur;
    a.cur <- sorted
  end;
  a.cur_len <- len;
  a.pos <- -1;
  a.next_len <- 0;
  let slot = (a.now + 1) mod Arena.ring in
  let k = Array.unsafe_get a.ahead_len slot in
  if k > 0 then begin
    let base = reserve_next a k in
    Array.blit a.ahead.(slot) 0 a.next base k;
    a.next_len <- base + k;
    a.ahead_len.(slot) <- 0
  end

(* Caller-owned result + timeline from the arena's generation tags and
   trace buffers — the common epilogue of [run_core] and every bespoke
   loop driven through [Scratch].  Every transmitter is traced exactly
   once, so the timeline's length is the forward set's size. *)
let materialize (a : Arena.t) ~tick ~n ~source ~completion =
  let delivered = a.delivered in
  let delivered_out = Array.make n false in
  for v = 0 to n - 1 do
    if Array.unsafe_get delivered v = tick then Array.unsafe_set delivered_out v true
  done;
  let transmitted = a.transmitted in
  let forwarders =
    Nodeset.of_predicate ~n ~card:a.trace_len (fun v -> Array.unsafe_get transmitted v = tick)
  in
  let trace = ref [] in
  for k = a.trace_len - 1 downto 0 do
    trace := (a.trace_time.(k), a.trace_node.(k)) :: !trace
  done;
  ({ Result.source; forwarders; delivered = delivered_out; completion_time = completion }, !trace)

type counts = { forwards : int; delivered : int; completion_time : int }

(* The count-only epilogue: every transmitter is traced exactly once, so
   the timeline's length is the forward count. *)
let counts_of (a : Arena.t) ~completion =
  { forwards = a.trace_len; delivered = a.reached; completion_time = completion }

(* The arena, opened up for protocols with bespoke event loops (the
   dynamic backbone's designation events): the same busy-flag
   acquisition, generation bump and frontier calendar as [run_core],
   with the event's int payload packed into the key's low bits, below
   the sorted (receiver, sender) field, so a bespoke loop allocates
   nothing per event. *)
module Scratch = struct
  type t = { a : Arena.t; tick : int; shift : int; pbits : int; n : int }

  let with_scratch ~arena ~n ~payload_bound f =
    if payload_bound < 1 then
      invalid_arg "Engine.Scratch.with_scratch: payload_bound must be positive";
    let shift = bits_for 1 n and pbits = bits_for 0 payload_bound in
    if (2 * shift) + pbits > Sys.int_size - 1 then
      invalid_arg "Engine.Scratch.with_scratch: keys do not fit an int";
    let a = acquire arena in
    let s = { a; tick = start a ~n; shift; pbits; n } in
    match f s with
    | r ->
      release a;
      r
    | exception e ->
      release a;
      raise e

  let delivered s v = s.a.Arena.delivered.(v) = s.tick

  (* Marks [v] delivered; [true] iff it was not already. *)
  let mark_delivered s v =
    let a = s.a in
    if a.Arena.delivered.(v) = s.tick then false
    else begin
      a.delivered.(v) <- s.tick;
      a.reached <- a.reached + 1;
      true
    end

  let transmitted s v = s.a.Arena.transmitted.(v) = s.tick
  let mark_transmitted s v = s.a.Arena.transmitted.(v) <- s.tick
  let trace s ~time ~node = trace_push s.a time node

  let push s ~time ~node ~sender ~payload =
    let a = s.a in
    if payload lsr s.pbits <> 0 then invalid_arg "Engine.Scratch.push: payload out of range";
    let key = (((node lsl s.shift) lor sender) lsl s.pbits) lor payload in
    let ahead = time - a.now in
    if ahead = 1 then begin
      let i = reserve_next a 1 in
      Array.unsafe_set a.next i key;
      a.next_len <- i + 1
    end
    else if ahead >= 2 && ahead <= 1 + Arena.ring then begin
      let slot = time mod Arena.ring in
      let i = a.ahead_len.(slot) in
      if i = Array.length a.ahead.(slot) then
        a.ahead.(slot) <- grown a.ahead.(slot) ~len:i ~need:(i + 1);
      Array.unsafe_set a.ahead.(slot) i key;
      a.ahead_len.(slot) <- i + 1
    end
    else invalid_arg "Engine.Scratch.push: time must be within now + 1 .. now + 4"

  (* A top-level loop: [Array.for_all] would allocate its closure on
     every level change. *)
  let rec ring_empty lens i =
    i = Arena.ring || (Array.unsafe_get lens i = 0 && ring_empty lens (i + 1))

  let rec advance s =
    let a = s.a in
    let p = a.pos + 1 in
    if p < a.cur_len then begin
      a.pos <- p;
      true
    end
    else if a.next_len = 0 && ring_empty a.ahead_len 0 then false
    else begin
      open_level a ~lo:s.pbits ~bits:(2 * s.shift);
      advance s
    end

  let key s = Array.unsafe_get s.a.Arena.cur s.a.Arena.pos
  let time s = s.a.Arena.now
  let node s = key s lsr (s.pbits + s.shift)
  let sender s = (key s lsr s.pbits) land ((1 lsl s.shift) - 1)
  let payload s = key s land ((1 lsl s.pbits) - 1)

  type 'r epilogue = t -> source:int -> completion:int -> 'r

  let finish s ~source ~completion = materialize s.a ~tick:s.tick ~n:s.n ~source ~completion
  let count s ~source:_ ~completion = counts_of s.a ~completion
end

(* One decide-style broadcast on an acquired arena; returns its
   completion time, and leaves the run's tags, timeline and delivered
   count ([a.reached]) in the arena for an epilogue to read.
   Transmissions at time t happen while level t is read in ascending
   receiver order, and a node transmits at most once, so [next] fills in
   ascending sender order: sorting it by the receiver field alone
   (stably) yields the (receiver, sender) order.

   Without [drop], a copy to a neighbour that has already transmitted is
   never scheduled: such a node is delivered and is never offered a copy
   again, so its reception would change nothing, and with no loss
   stream no draw is tied to it.  With [drop], every copy is scheduled,
   so the loss draws keep their order. *)
let broadcast (a : Arena.t) ~drop ~down g ~source ~decide =
  let n = Graph.n g in
  let tick = start a ~n in
  let delivered = a.delivered and transmitted = a.transmitted in
  let { Graph.off; nbr; _ } = g in
  let shift = bits_for 1 n in
  let mask = (1 lsl shift) - 1 in
  let completion = ref 0 and reached = ref 1 in
  let transmit time v =
    Array.unsafe_set transmitted v tick;
    trace_push a time v;
    let lo = Array.unsafe_get off v and hi = Array.unsafe_get off (v + 1) in
    let base = reserve_next a (hi - lo) in
    let buf = a.next in
    match drop with
    | None ->
      let j = ref base in
      for i = lo to hi - 1 do
        let w = Array.unsafe_get nbr i in
        if Array.unsafe_get transmitted w <> tick then begin
          Array.unsafe_set buf !j ((w lsl shift) lor v);
          incr j
        end
      done;
      a.next_len <- !j
    | Some _ ->
      for i = lo to hi - 1 do
        Array.unsafe_set buf (base + i - lo) ((Array.unsafe_get nbr i lsl shift) lor v)
      done;
      a.next_len <- base + hi - lo
  in
  Array.unsafe_set delivered source tick;
  transmit 0 source;
  while a.next_len > 0 do
    open_level a ~lo:shift ~bits:shift;
    let time = a.now and cur = a.cur in
    for k = 0 to a.cur_len - 1 do
      let key = Array.unsafe_get cur k in
      (* A failed node neither receives nor (therefore) forwards; the
         [down] guard sits after [drop] so the loss stream is identical
         with and without failures. *)
      let receiver = key lsr shift in
      if
        (match drop with None -> true | Some drop -> not (drop ()))
        && match down with None -> true | Some down -> not (down ~time ~node:receiver)
      then begin
        if Array.unsafe_get delivered receiver <> tick then begin
          Array.unsafe_set delivered receiver tick;
          incr reached;
          completion := time
        end;
        (* Every copy is offered to the node until it transmits: a
           forward designation can arrive in a later copy than the
           first. *)
        if
          Array.unsafe_get transmitted receiver <> tick
          && decide ~node:receiver ~from:(key land mask)
        then transmit time receiver
      end
    done
  done;
  a.reached <- !reached;
  !completion

(* Runs [broadcast] on an acquired arena and reads the result with
   [epilogue] before the arena is released: [run_core] and [run_count]
   share everything but the epilogue. *)
let drive name ~epilogue ?drop ?down ~arena g ~source ~decide =
  if source < 0 || source >= Graph.n g then invalid_arg (name ^ ": source out of range");
  let a = acquire arena in
  match
    let completion = broadcast a ~drop ~down g ~source ~decide in
    epilogue a g ~source ~completion
  with
  | r ->
    release a;
    r
  | exception e ->
    release a;
    raise e

(* The one event loop shared by every decide-style execution: the
   perfect engine ([drop] absent), and the lossy engine ([drop] draws
   from its generator once per reception, in processing order).  Either
   way the results are the same whichever arena runs it. *)
let run_core ?drop ?down ~arena g ~source ~decide =
  drive "Engine.run_core" ?drop ?down ~arena g ~source ~decide
    ~epilogue:(fun a g ~source ~completion ->
      materialize a ~tick:a.Arena.gen ~n:(Graph.n g) ~source ~completion)

let run_count ?drop ?down ~arena g ~source ~decide =
  drive "Engine.run_count" ?drop ?down ~arena g ~source ~decide
    ~epilogue:(fun a _ ~source:_ ~completion -> counts_of a ~completion)

(* The SI rule with no drop and no failure: a member transmits at the
   time of its first reception, so a node's delivery time is one more
   than that of the earliest transmitting neighbour, and a FIFO of
   transmitters visits them in non-decreasing time.  The timeline
   buffers are that FIFO: [trace_len] ends as the forward count, and
   the last first delivery is the completion time. *)
let si_traverse (a : Arena.t) g ~source ~member =
  let tick = start a ~n:(Graph.n g) in
  let delivered = a.delivered and times = a.trace_time and nodes = a.trace_node in
  let { Graph.off; nbr; _ } = g in
  let every = Option.is_none member and ind = Option.value member ~default:Bytes.empty in
  Array.unsafe_set delivered source tick;
  trace_push a 0 source;
  let completion = ref 0 and reached = ref 1 and k = ref 0 in
  while !k < a.trace_len do
    let v = Array.unsafe_get nodes !k and time = Array.unsafe_get times !k + 1 in
    incr k;
    for i = Array.unsafe_get off v to Array.unsafe_get off (v + 1) - 1 do
      let w = Array.unsafe_get nbr i in
      if Array.unsafe_get delivered w <> tick then begin
        Array.unsafe_set delivered w tick;
        incr reached;
        completion := time;
        if every || (w < Bytes.length ind && Bytes.unsafe_get ind w <> '\000') then
          trace_push a time w
      end
    done
  done;
  a.reached <- !reached;
  counts_of a ~completion:!completion

let run_si_count ~arena g ~source ~member =
  if source < 0 || source >= Graph.n g then invalid_arg "Engine.run_si_count: source out of range";
  let a = acquire arena in
  let c = si_traverse a g ~source ~member in
  release a;
  c
