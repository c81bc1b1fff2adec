module Graph = Manet_graph.Graph
module Nodeset = Manet_graph.Nodeset

let never_drop () = false

let never_down ~time:_ ~node:_ = false

(* Reusable per-worker scratch for {!run_core}.  A broadcast needs two
   per-node maps (delivered/transmitted), a pending-reception priority
   queue and a transmission timeline; the arena keeps all of them alive
   between runs so a sweep's per-broadcast engine allocations are O(1)
   steady state instead of O(n + receptions).

   The node maps are generation-tagged: [delivered.(v) = gen] means
   delivered in the current run, so reset is one counter bump.  The heap
   stores receptions as two unboxed int keys — [hi] is the delivery
   time, [lo] packs [(receiver lsl shift) lor sender] — whose
   lexicographic (hi, lo) order is exactly the (time, receiver, sender)
   processing order of the seed {!Manet_sim.Event_key} heap.  Keys are
   unique (a node transmits at most once, so each (time, receiver,
   sender) triple occurs at most once), hence any correct heap pops the
   same sequence and results are bit-identical however the arena is
   reused.  Payloads ride in a parallel [Obj.t] array: the engine is
   polymorphic in the payload, but within one run all slots hold the
   same type, and every slot is scrubbed back to an immediate on pop so
   the arena never pins a finished run's payloads. *)
module Arena = struct
  type t = {
    mutable cap : int;
    mutable gen : int;
    mutable delivered : int array;
    mutable transmitted : int array;
    mutable fwd : int array;  (** compaction buffer for the forward set *)
    mutable heap_hi : int array;
    mutable heap_lo : int array;
    mutable heap_pay : Obj.t array;
    mutable heap_len : int;
    mutable trace_time : int array;
    mutable trace_node : int array;
    mutable trace_len : int;
    pool : Manet_graph.Flatset.pool;
        (** scratch storage for the per-broadcast flat coverage sets of
            bespoke event loops (the dynamic backbone's pruning);
            generation-bumped alongside the node maps *)
    mutable busy : bool;
  }

  let create () =
    {
      cap = 0;
      gen = 0;
      delivered = [||];
      transmitted = [||];
      fwd = [||];
      heap_hi = [||];
      heap_lo = [||];
      heap_pay = [||];
      heap_len = 0;
      trace_time = [||];
      trace_node = [||];
      trace_len = 0;
      pool = Manet_graph.Flatset.create_pool ();
      busy = false;
    }

  let dls = Domain.DLS.new_key create
  let get () = Domain.DLS.get dls

  let reserve a ~n =
    if a.cap < n then begin
      a.delivered <- Array.make n 0;
      a.transmitted <- Array.make n 0;
      a.fwd <- Array.make n 0;
      a.cap <- n
    end
end

let nil = Obj.repr 0

let ensure_nodes (a : Arena.t) n = Arena.reserve a ~n

let heap_grow (a : Arena.t) =
  let cap = Array.length a.heap_hi in
  let ncap = if cap = 0 then 256 else 2 * cap in
  let hi = Array.make ncap 0 and lo = Array.make ncap 0 and pay = Array.make ncap nil in
  Array.blit a.heap_hi 0 hi 0 a.heap_len;
  Array.blit a.heap_lo 0 lo 0 a.heap_len;
  Array.blit a.heap_pay 0 pay 0 a.heap_len;
  a.heap_hi <- hi;
  a.heap_lo <- lo;
  a.heap_pay <- pay

(* Hole-based sift-up: the new element is written once, parents shift
   down along the way. *)
let heap_push (a : Arena.t) hi lo pay =
  if a.heap_len = Array.length a.heap_hi then heap_grow a;
  let h = a.heap_hi and l = a.heap_lo and p = a.heap_pay in
  let i = ref a.heap_len in
  a.heap_len <- a.heap_len + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let ph = Array.unsafe_get h parent in
    if ph > hi || (ph = hi && Array.unsafe_get l parent > lo) then begin
      Array.unsafe_set h !i ph;
      Array.unsafe_set l !i (Array.unsafe_get l parent);
      Array.unsafe_set p !i (Array.unsafe_get p parent);
      i := parent
    end
    else continue := false
  done;
  Array.unsafe_set h !i hi;
  Array.unsafe_set l !i lo;
  Array.unsafe_set p !i pay

(* Removes the minimum; the caller has already read the root.  The freed
   payload slot is scrubbed so finished runs leave no live pointers. *)
let heap_pop_root (a : Arena.t) =
  let last = a.heap_len - 1 in
  a.heap_len <- last;
  let h = a.heap_hi and l = a.heap_lo and p = a.heap_pay in
  if last > 0 then begin
    let xh = Array.unsafe_get h last
    and xl = Array.unsafe_get l last
    and xp = Array.unsafe_get p last in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let c = ref ((2 * !i) + 1) in
      if !c >= last then continue := false
      else begin
        let c2 = !c + 1 in
        if c2 < last then begin
          let ch = Array.unsafe_get h !c and c2h = Array.unsafe_get h c2 in
          if c2h < ch || (c2h = ch && Array.unsafe_get l c2 < Array.unsafe_get l !c) then c := c2
        end;
        let ch = Array.unsafe_get h !c and cl = Array.unsafe_get l !c in
        if ch < xh || (ch = xh && cl < xl) then begin
          Array.unsafe_set h !i ch;
          Array.unsafe_set l !i cl;
          Array.unsafe_set p !i (Array.unsafe_get p !c);
          i := !c
        end
        else continue := false
      end
    done;
    Array.unsafe_set h !i xh;
    Array.unsafe_set l !i xl;
    Array.unsafe_set p !i xp
  end;
  Array.unsafe_set p last nil

let trace_push (a : Arena.t) time v =
  if a.trace_len = Array.length a.trace_time then begin
    let ncap = if a.trace_len = 0 then 256 else 2 * a.trace_len in
    let tt = Array.make ncap 0 and tn = Array.make ncap 0 in
    Array.blit a.trace_time 0 tt 0 a.trace_len;
    Array.blit a.trace_node 0 tn 0 a.trace_len;
    a.trace_time <- tt;
    a.trace_node <- tn
  end;
  a.trace_time.(a.trace_len) <- time;
  a.trace_node.(a.trace_len) <- v;
  a.trace_len <- a.trace_len + 1

let rec bits_for b n = if 1 lsl b >= n then b else bits_for (b + 1) n

(* Caller-owned result + timeline from the arena's generation tags and
   trace buffers — the common epilogue of [run_core] and every bespoke
   loop driven through [Scratch]. *)
let materialize (a : Arena.t) ~tick ~n ~source ~completion =
  let delivered = a.delivered in
  let delivered_out = Array.make n false in
  for v = 0 to n - 1 do
    if Array.unsafe_get delivered v = tick then Array.unsafe_set delivered_out v true
  done;
  let transmitted = a.transmitted in
  let fwd = a.fwd in
  let nfwd = ref 0 in
  for v = 0 to n - 1 do
    if Array.unsafe_get transmitted v = tick then begin
      Array.unsafe_set fwd !nfwd v;
      incr nfwd
    end
  done;
  let trace = ref [] in
  for k = a.trace_len - 1 downto 0 do
    trace := (a.trace_time.(k), a.trace_node.(k)) :: !trace
  done;
  ( {
      Result.source;
      forwarders = Nodeset.of_increasing fwd ~len:!nfwd;
      delivered = delivered_out;
      completion_time = completion;
    },
    !trace )

(* The arena, opened up for protocols with bespoke event loops (the
   dynamic backbone's designation events): the same busy-flag
   acquisition, generation bump and (time, node, sender) heap order as
   [run_core], with the payload restricted to an immediate int so a
   bespoke loop allocates nothing per event.  [with_scratch] also resets
   the arena's flatset pool, scoping every {!Manet_graph.Flatset.t} the
   loop creates to this one broadcast. *)
module Scratch = struct
  type t = { a : Arena.t; tick : int; shift : int; mask : int; n : int }

  let with_scratch ?arena ~n f =
    let a =
      match arena with
      | Some a when not a.Arena.busy -> a
      | Some _ -> Arena.create ()
      | None ->
        let a = Arena.get () in
        if a.Arena.busy then Arena.create () else a
    in
    a.busy <- true;
    Fun.protect ~finally:(fun () -> a.Arena.busy <- false) @@ fun () ->
    ensure_nodes a n;
    a.gen <- a.gen + 1;
    a.heap_len <- 0;
    a.trace_len <- 0;
    Manet_graph.Flatset.reset a.pool;
    let shift = bits_for 1 n in
    f { a; tick = a.gen; shift; mask = (1 lsl shift) - 1; n }

  let pool s = s.a.Arena.pool
  let delivered s v = s.a.Arena.delivered.(v) = s.tick

  (* Marks [v] delivered; [true] iff it was not already. *)
  let mark_delivered s v =
    if s.a.Arena.delivered.(v) = s.tick then false
    else begin
      s.a.Arena.delivered.(v) <- s.tick;
      true
    end

  let transmitted s v = s.a.Arena.transmitted.(v) = s.tick
  let mark_transmitted s v = s.a.Arena.transmitted.(v) <- s.tick
  let trace s ~time ~node = trace_push s.a time node

  let push s ~time ~node ~sender ~payload =
    heap_push s.a time ((node lsl s.shift) lor sender) (Obj.repr (payload : int))

  let heap_empty s = s.a.Arena.heap_len = 0
  let min_time s = s.a.Arena.heap_hi.(0)
  let min_node s = s.a.Arena.heap_lo.(0) lsr s.shift
  let min_sender s = s.a.Arena.heap_lo.(0) land s.mask
  let min_payload s = (Obj.obj s.a.Arena.heap_pay.(0) : int)
  let drop_min s = heap_pop_root s.a
  let finish s ~source ~completion = materialize s.a ~tick:s.tick ~n:s.n ~source ~completion
end

(* The one event loop shared by every decide-style execution: the
   perfect engine ([drop] never fires), and the lossy engine ([drop]
   draws from its generator once per reception, in processing order).
   Scratch comes from [arena] — by default the calling domain's — or a
   private fresh arena when the caller's is already mid-run (a nested
   broadcast from inside [decide]); either way the results are the
   same. *)
let run_core ?(drop = never_drop) ?(down = never_down) ?arena g ~source ~initial ~decide =
  let n = Graph.n g in
  if source < 0 || source >= n then invalid_arg "Engine.run_core: source out of range";
  let a =
    match arena with
    | Some a when not a.Arena.busy -> a
    | Some _ -> Arena.create ()
    | None ->
      let a = Arena.get () in
      if a.Arena.busy then Arena.create () else a
  in
  a.busy <- true;
  Fun.protect ~finally:(fun () -> a.Arena.busy <- false) @@ fun () ->
  ensure_nodes a n;
  a.gen <- a.gen + 1;
  let tick = a.gen in
  a.heap_len <- 0;
  a.trace_len <- 0;
  let delivered = a.delivered and transmitted = a.transmitted in
  let off, nbr = Graph.csr g in
  let shift = bits_for 1 n in
  let mask = (1 lsl shift) - 1 in
  let completion = ref 0 in
  let transmit time v payload =
    Array.unsafe_set transmitted v tick;
    trace_push a time v;
    let p = Obj.repr payload in
    let t1 = time + 1 in
    for i = Array.unsafe_get off v to Array.unsafe_get off (v + 1) - 1 do
      heap_push a t1 ((Array.unsafe_get nbr i lsl shift) lor v) p
    done
  in
  Array.unsafe_set delivered source tick;
  transmit 0 source initial;
  while a.heap_len > 0 do
    let time = a.heap_hi.(0) and key = a.heap_lo.(0) in
    let payload = a.heap_pay.(0) in
    heap_pop_root a;
    (* A failed node neither receives nor (therefore) forwards; the
       [down] guard sits after [drop] so the loss stream is identical
       with and without failures. *)
    if not (drop ()) && not (down ~time ~node:(key lsr shift)) then begin
      let receiver = key lsr shift in
      if Array.unsafe_get delivered receiver <> tick then begin
        Array.unsafe_set delivered receiver tick;
        completion := time
      end;
      (* Every copy is offered to the node until it transmits: a forward
         designation can arrive in a later copy than the first. *)
      if Array.unsafe_get transmitted receiver <> tick then begin
        match decide ~node:receiver ~from:(key land mask) ~payload:(Obj.obj payload) with
        | Some p -> transmit time receiver p
        | None -> ()
      end
    end
  done;
  materialize a ~tick ~n ~source ~completion:!completion
