(* The fixed-capacity broadcast queue (Section 3.6), written once over a
   wait policy.  Every consumer receives a complete copy of everything
   written; order is kept per producer, and data from several producers
   interleaves in the order they store it.  An element retires once the
   slowest consumer has read it.  The queue closes when its last
   producer is done, and a read past the end of a closed, drained queue
   raises {!Sched.End_of_stream}.  The data lives in a {!Ring}.

   The two simulators differ only in how a blocked side waits, and that
   is the {!WAIT} policy: [Bqueue] parks cooperative fibers on {!Sched},
   [X86sim.Tqueue] waits on a mutex and two condition variables.  All
   the rest is here, once: the transfers, attached global I/O (pulled
   by the reader that finds a source net empty, pushed by the writer
   that finds a sink net full), the deferred-wake ledger, poison,
   reset, the trace notes, a kernel port's {!Port.reader} and
   {!Port.writer}, and the wiring of a graph's nets and kernels.

   A read that retires elements while a writer waits wakes the writers
   at once when the policy's [wake_now] says so; otherwise the reader's
   kernel owes the wake in its {!S.waker} and delivers it before it
   waits on any queue, when its writer's {!S.space} reads 0 and when
   its body ends.  The ring is always current, so a writer waits only
   while the ring is full; only its wake is late. *)

(** One kernel instance's endpoints, as [S.wire] registers them: each
    [In] and [Out] port's index and endpoint, in port order.  [finish],
    run when the body ends, delivers the wakes the kernel owes and marks
    its producers done, so it can raise [Endpoint_failed] as
    [producer_done] does. *)
type wiring = {
  inputs : (int * Port.reader) array;
  outputs : (int * Port.writer) array;
  finish : unit -> unit;
}

(** How a blocked side waits and is woken.  Each operation takes one
    argument: without flambda a call to an unknown function of several
    arguments goes through [caml_applyN]. *)
module type WAIT = sig
  (** The per-queue wait state: waiter lists, or a mutex and two
      condition variables. *)
  type cell

  val cell : unit -> cell

  (** Every touch of a queue happens between [lock] and [unlock].  A
      policy with [locking = false] (fibers) has no-ops there, and its
      transfers skip both calls and the frame that unlocks on an
      exception. *)
  val locking : bool

  val lock : cell -> unit

  val unlock : cell -> unit

  (** Block once, with the lock held, until woken: [wait_space] for a
      writer (or a reader pulling a source) that found the ring full,
      [wait_data] for a reader that found no data.  The queue re-checks
      after every return. *)
  val wait_space : cell -> unit

  val wait_data : cell -> unit

  (** Wake every waiter of one side, with the lock held.  The queue
      counts the waits and calls these only when one began since the
      side's last wake. *)
  val wake_writers : cell -> unit

  val wake_readers : cell -> unit

  (** The deferred-wake rule: whether a read that retired elements of
      this ring wakes the waiting writers at once or owes the wake. *)
  val wake_now : Ring.t -> bool

  (** The trace track a wait is charged to: the running fiber, or the
      waiting domain. *)
  val track : unit -> string

  (** [Some prefix]: each wait is also observed in the histogram
      [prefix ^ track]. *)
  val track_histogram : string option
end

(** The queue, as [Bqueue] and [X86sim.Tqueue] export it. *)
module type S = sig
  type t

  type consumer

  type producer

  (** The wakes one kernel owes the writers of the nets it reads.  All
      endpoints of one kernel share one waker, and only that kernel's
      thread uses them. *)
  type waker

  (** A source or sink raised while a queue operation copied through it:
      the endpoint's name and its exception.  The failed source closes
      the queue; the failed sink gets nothing more, and its cursor no
      longer holds the ring full. *)
  exception Endpoint_failed of string * exn

  (** [create ~name ~dtype ~capacity ()] makes an empty queue holding at
      most [capacity] elements (a positive count).  Storage follows the
      dtype ({!Ring}); an F32 ring rounds stored floats as
      {!Value.round_f32}, and an aggregate's float lanes are stored as
      given. *)
  val create : name:string -> dtype:Dtype.t -> capacity:int -> unit -> t

  val name : t -> string

  val dtype : t -> Dtype.t

  val capacity : t -> int

  (** Elements written over the queue's lifetime. *)
  val total_put : t -> int

  (** Unretired elements. *)
  val occupancy : t -> int

  val waker : unit -> waker

  (** Register endpoints before their first transfer.  Without [waker]
      the endpoint gets one of its own. *)
  val add_consumer : ?waker:waker -> t -> consumer

  (** [Invalid_argument] on a closed queue. *)
  val add_producer : ?waker:waker -> t -> producer

  (** Back to the just-created-and-wired state: positions to zero,
      contents discarded, producers reopened, unclosed and unpoisoned.
      Endpoints and storage are kept.  For a queue without attached
      I/O, and not while anything waits on it. *)
  val reset : t -> unit

  (** Advisory free space from [p]'s side, stale the moment it returns.
      A full ring pushes its sinks first, and a reading of 0 delivers
      the wakes [p]'s kernel owes. *)
  val space : producer -> int

  (** [put p v] appends [v]; waits while the ring is full.  A value that
      does not conform to the dtype raises [Invalid_argument] before it
      waits, as does a put on a finished producer. *)
  val put : producer -> Value.t -> unit

  (** [get c] reads [c]'s next element; waits while there is none. *)
  val get : consumer -> Value.t

  (** {1 Block transfers}

      Each takes a payload kind, a caller-owned buffer, an element
      offset [off] and a count [n], and behaves as the matching loop of
      element calls: a block larger than the free space streams through
      in chunks, and elements read before a close stay read.  A chunk is
      at most two segment copies and one wake of the other side.  The
      kind's [require] raises [Invalid_argument] before anything waits
      or is published, for a kind that does not fit the dtype or an
      [off] or [n] outside the buffer.  A block that does not fit the
      free space is checked whole first, so a bad element publishes
      nothing. *)

  (** [write k p b off n] appends elements [off .. off + n - 1] of [b]. *)
  val write : 'b Ring.kind -> producer -> 'b -> int -> int -> unit

  (** [read k c b off n] reads exactly [n] elements into [b] from
      [off]. *)
  val read : 'b Ring.kind -> consumer -> 'b -> int -> int -> unit

  (** [read_upto k c b off n] is the drain: it reads between 1 and [n]
      available elements into [b] from [off] and returns the count,
      waiting only while there are none.  [Invalid_argument] when
      [n = 0]. *)
  val read_upto : 'b Ring.kind -> consumer -> 'b -> int -> int -> int

  (** Mark one producer finished; the last one closes the queue and
      pushes what is left into the sinks, so it can raise
      {!Endpoint_failed}.  Idempotent. *)
  val producer_done : producer -> unit

  (** {1 Global I/O} *)

  (** [attach_source q src] makes [src] the queue's only writer: a
      reader at the head copies the next segment of the payload, at most
      the free space, into the ring, and closes the queue when the
      payload runs out.  It waits only while a slower reader holds the
      ring full.  [Invalid_argument] if [q] already has a writer. *)
  val attach_source : t -> Io.source -> unit

  (** [attach_sink q k] adds a cursor for [k] at the head, drained into
      [k] by a writer that finds the ring full and by the close. *)
  val attach_sink : t -> Io.sink -> unit

  (** [flush q] moves the rest of the attached source through the ring
      into the sinks on the calling thread, for a net no consumer reads;
      a no-op without a source. *)
  val flush : t -> unit

  (** [poison q] wakes every waiter; from then on every operation on [q]
      raises {!Sched.Terminated}.  Idempotent. *)
  val poison : t -> unit

  (** {1 Kernel ports} *)

  (** The port record of a kernel input or output named [name], over the
      endpoint's transfers. *)
  val reader : name:string -> consumer -> Port.reader

  val writer : name:string -> producer -> Port.writer

  (** {1 Graph wiring}, the same for both simulators *)

  (** [net_queues g ~capacity] is one queue per net of [g], indexed by
      net id, named ["<graph>/net<id>"], net [id] holding [capacity id]
      elements. *)
  val net_queues : Serialized.t -> capacity:(int -> int) -> t array

  (** [wire queues inst] registers, in port order, a consumer for each
      input of [inst] and a producer for each output, on the queue of
      the port's net, all sharing one waker; a port is named
      ["<instance>.<port>"]. *)
  val wire : t array -> Serialized.kernel_inst -> wiring
end

module Make (W : WAIT) : S = struct
  exception Endpoint_failed of string * exn

  type source = {
    s_name : string;
    s_copy : int -> int -> unit;  (* [Io.transfer] of the payload into the ring *)
    s_len : int;
    mutable s_off : int;
  }

  type sink = {
    k_name : string;
    k_cur : Ring.cursor;
    k_emit : unit -> unit;  (* [Io.emit]: one chunk from [k_cur] into the sink *)
    mutable k_failed : bool;
  }

  type t = {
    ring : Ring.t;
    w : W.cell;
    mutable producers : producer list;  (* for [reset] to reopen *)
    mutable producers_open : int;
    mutable closed : bool;
    mutable poisoned : bool;
    mutable put_waiting : int;  (* waits begun since the side's last wake *)
    mutable get_waiting : int;
    mutable source : source option;
    mutable sinks : sink list;
    (* Trace keys are precomputed so the traced hot path builds no
       string; [occ_hw] gates counter events to new high-waters. *)
    mutable occ_hw : int;
    k_occ : string;
    k_retire : string;
    k_bput : string;
    k_bget : string;
  }

  and consumer = {
    c_queue : t;
    cur : Ring.cursor;
    c_waker : waker;
    mutable c_owes : bool;  (* retired elements since it last woke the writers *)
  }

  and producer = {
    p_queue : t;
    p_waker : waker;
    mutable open_ : bool;
  }

  and waker = {
    mutable mine : consumer list;
    mutable owes : bool;
  }

  let create ~name ~dtype ~capacity () =
    {
      ring = Ring.create ~name ~dtype ~capacity;
      w = W.cell ();
      producers = [];
      producers_open = 0;
      closed = false;
      poisoned = false;
      put_waiting = 0;
      get_waiting = 0;
      source = None;
      sinks = [];
      occ_hw = 0;
      k_occ = "queue.occupancy_hw:" ^ name;
      k_retire = "queue.retire_lag_hw:" ^ name;
      k_bput = "queue.blocked_put:" ^ name;
      k_bget = "queue.blocked_get:" ^ name;
    }

  let name q = q.ring.Ring.name
  let dtype q = q.ring.Ring.dtype
  let capacity q = q.ring.Ring.cap
  let total_put q = q.ring.Ring.head
  let occupancy q = Ring.occupancy q.ring

  (* {!Ring.space} read straight off the ring's fields.  Without flambda
     a helper in a functor is inlined only when asked. *)
  let[@inline] free q =
    let r = q.ring in
    match r.Ring.cursors with
    | [] -> r.Ring.cap
    | _ :: _ -> r.Ring.cap - (r.Ring.head - r.Ring.retired)

  let[@inline] at_head c = c.cur.Ring.pos >= c.c_queue.ring.Ring.head

  let[@inline] open_ q = not (q.closed || q.poisoned)

  let[@inline] check_poison q = if q.poisoned then raise Sched.Terminated

  let check_open p =
    if not p.open_ then invalid_arg ("cgsim: put on finished producer of " ^ name p.p_queue)

  (* The unlock of a locked operation that raised. *)
  let unlock_reraise q exn =
    let bt = Printexc.get_raw_backtrace () in
    W.unlock q.w;
    Printexc.raise_with_backtrace exn bt

  (* For the operations off the per-element path: the lock calls are
     no-ops for fibers. *)
  let locked q f =
    W.lock q.w;
    match f () with
    | r ->
      W.unlock q.w;
      r
    | exception exn -> unlock_reraise q exn

  let waker () = { mine = []; owes = false }

  let add_consumer ?(waker = waker ()) q =
    locked q (fun () ->
        let c = { c_queue = q; cur = Ring.add_cursor q.ring; c_waker = waker; c_owes = false } in
        waker.mine <- c :: waker.mine;
        c)

  let add_producer ?(waker = waker ()) q =
    locked q (fun () ->
        if q.closed then invalid_arg ("cgsim: adding producer to closed queue " ^ name q);
        let p = { p_queue = q; p_waker = waker; open_ = true } in
        q.producers <- p :: q.producers;
        q.producers_open <- q.producers_open + 1;
        p)

  (* {1 Waits and wakes} — with the lock held.  A side's count is the
     waits begun since its last wake, which wakes them all: a woken
     waiter that must wait again counts again, so the count is never
     below the waiters that need a wake, and a wake with none is skipped
     without a call.  A count left by a cancelled fiber or a spurious
     wake-up costs one wake call that finds nobody. *)

  let[@inline] wait_space q =
    q.put_waiting <- q.put_waiting + 1;
    W.wait_space q.w

  let[@inline] wait_data q =
    q.get_waiting <- q.get_waiting + 1;
    W.wait_data q.w

  let[@inline] wake_writers q =
    if q.put_waiting > 0 then begin
      q.put_waiting <- 0;
      W.wake_writers q.w
    end

  let[@inline] wake_readers q =
    if q.get_waiting > 0 then begin
      q.get_waiting <- 0;
      W.wake_readers q.w
    end

  (* With no queue lock held: one queue lock at a time, so delivery
     cannot deadlock against another kernel's. *)
  let deliver w =
    if w.owes then begin
      w.owes <- false;
      List.iter
        (fun c ->
          if c.c_owes then begin
            c.c_owes <- false;
            W.lock c.c_queue.w;
            wake_writers c.c_queue;
            W.unlock c.c_queue.w
          end)
        w.mine
    end

  (* Occupancy (elements the slowest consumer has not retired) emits a
     counter event only on a new high-water mark, so the trace shows the
     staircase without one event per element. *)
  let note_put q =
    let occ = Ring.occupancy q.ring in
    if occ > q.occ_hw then begin
      q.occ_hw <- occ;
      Obs.Trace.high_water q.k_occ (float_of_int occ);
      Obs.Trace.counter ~track:(name q) ~cat:"queue" ~name:"occupancy" (float_of_int occ)
    end

  (* Retire lag: how far the slowest cursor of a broadcast trails the
     fastest. *)
  let note_get q =
    match q.ring.Ring.cursors with
    | [] | [ _ ] -> ()
    | c :: rest ->
      let mn, mx =
        List.fold_left
          (fun (mn, mx) (c : Ring.cursor) -> min mn c.pos, max mx c.pos)
          (c.pos, c.pos) rest
      in
      Obs.Trace.high_water q.k_retire (float_of_int (mx - mn))

  (* Elements were stored: wake the readers once. *)
  let[@inline] published q =
    if !Obs.Trace.on then note_put q;
    wake_readers q

  (* Move [cur] by [n]; true when that retired elements. *)
  let[@inline] retire q cur n =
    let r = q.ring in
    let before = r.Ring.retired in
    Ring.advance r cur n;
    if !Obs.Trace.on then note_get q;
    r.Ring.retired > before

  (* [c]'s read retired elements: wake the waiting writers now, or owe
     it.  A writer that is not waiting yet will see the space. *)
  let[@inline] freed c =
    let q = c.c_queue in
    if q.put_waiting > 0 then
      if W.wake_now q.ring then wake_writers q
      else begin
        c.c_owes <- true;
        c.c_waker.owes <- true
      end

  (* {1 Global I/O} — with the lock held. *)

  (* Push on full: drain every sink up to the head.  A sink that raises
     is detached: its cursor skips to the head from then on, so it
     cannot hold the ring full, and the first failure surfaces as
     [Endpoint_failed] in the writer that pushed. *)
  let push_sinks q =
    match q.sinks with
    | [] -> ()
    | sinks ->
      List.iter
        (fun k ->
          let behind () = q.ring.Ring.head - k.k_cur.Ring.pos in
          let skip () = if retire q k.k_cur (behind ()) then wake_writers q in
          if k.k_failed then skip ()
          else
            try
              while behind () > 0 do
                k.k_emit ()
              done
            with exn ->
              k.k_failed <- true;
              skip ();
              raise (Endpoint_failed (k.k_name, exn)))
        sinks

  (* No free slot even after the sinks drained: only a slower reader can
     make room now. *)
  let[@inline] full q = free q <= 0 && (push_sinks q; free q <= 0)

  let shut q =
    q.closed <- true;
    wake_readers q;
    wake_writers q

  let close q =
    if not q.closed then begin
      shut q;
      if not q.poisoned then push_sinks q
    end

  (* Pull on empty: copy the next segment of the source, at most the
     free space, into the ring; close when the payload runs out.  A
     failing copy closes the queue and surfaces as [Endpoint_failed]. *)
  let pull q s =
    let n = Int.min (free q) (s.s_len - s.s_off) in
    match s.s_copy s.s_off n with
    | () ->
      s.s_off <- s.s_off + n;
      if s.s_off >= s.s_len then close q
    | exception exn ->
      s.s_off <- s.s_len;
      shut q;
      raise (Endpoint_failed (s.s_name, exn))

  (* {1 Blocking} — with the lock held.  A wait is entered, and traced,
     only when the caller must block.  Before each block the waiter
     delivers the wakes its kernel owes, outside the lock, and re-checks:
     a writer it stranded may be the one that would wake it. *)

  let settle q w =
    W.unlock q.w;
    deliver w;
    W.lock q.w

  let rec block_put p =
    let q = p.p_queue in
    if open_ q && full q then begin
      if p.p_waker.owes then settle q p.p_waker else wait_space q;
      block_put p
    end

  let rec block_get c =
    let q = c.c_queue in
    if open_ q && at_head c then begin
      if c.c_waker.owes then settle q c.c_waker else wait_data q;
      block_get c
    end

  (* A reader at the head of a source net waits only while a slower
     reader holds the ring full. *)
  let rec block_pull c =
    let q = c.c_queue in
    if open_ q && at_head c && full q then begin
      if c.c_waker.owes then settle q c.c_waker else wait_space q;
      block_pull c
    end

  let traced key block x =
    if !Obs.Trace.on then begin
      let t0 = Obs.Trace.now_ns () in
      block x;
      let dt = Obs.Trace.now_ns () -. t0 in
      let track = W.track () in
      Obs.Trace.span ~track ~cat:"queue" ~name:key ~ts_ns:t0 ~dur_ns:dt ();
      Obs.Trace.observe_ns key dt;
      Option.iter (fun prefix -> Obs.Trace.observe_ns (prefix ^ track) dt) W.track_histogram
    end
    else block x

  let await_space p =
    let q = p.p_queue in
    if open_ q && full q then traced q.k_bput block_put p;
    check_poison q;
    if q.closed then invalid_arg ("cgsim: put on closed queue " ^ name q)

  (* Wait for data; [false] when the queue closed and [c] drained it. *)
  let await_data c =
    let q = c.c_queue in
    (match q.source with
     | None -> if open_ q && at_head c then traced q.k_bget block_get c
     | Some s ->
       while open_ q && at_head c do
         if full q then traced q.k_bget block_pull c;
         if open_ q && at_head c then pull q s
       done);
    check_poison q;
    not (at_head c)

  (* {1 Transfers}

     A transfer allocates nothing unless it waits.  The ring checks a
     value as it stores it; a put or a block that must wait is checked
     first, so a bad value raises rather than waits and a bad element
     publishes nothing.  The kind's copies are passed unapplied, so that
     a transfer builds no closure.  The [_held] bodies run with the lock
     held, and a policy without a lock runs them bare. *)

  let[@inline] put_held p v =
    let q = p.p_queue in
    if q.poisoned || q.closed || free q <= 0 then begin
      if not (q.ring.Ring.check v) then Ring.reject q.ring v;
      await_space p
    end;
    Ring.push q.ring v;
    published q

  let[@inline] get_held c =
    let q = c.c_queue in
    if (q.poisoned || at_head c) && not (await_data c) then raise Sched.End_of_stream;
    let before = q.ring.Ring.retired in
    let v = Ring.take q.ring c.cur in
    if q.ring.Ring.retired > before then freed c;
    if !Obs.Trace.on then note_get q;
    v

  let write_held (k : _ Ring.kind) p b off n =
    let q = p.p_queue in
    if n > free q then k.Ring.check q.ring b off n;
    let stop = off + n in
    let pos = ref off in
    while !pos < stop do
      if q.poisoned || q.closed || free q <= 0 then await_space p;
      let len = Int.min (free q) (stop - !pos) in
      k.Ring.copy_in q.ring b !pos len;
      pos := !pos + len;
      published q
    done

  (* Closed and drained mid-block: what was read stays read, exactly
     like the element loop. *)
  let read_held (k : _ Ring.kind) c b off n =
    let q = c.c_queue in
    let stop = off + n in
    let filled = ref off in
    while !filled < stop do
      if (q.poisoned || at_head c) && not (await_data c) then raise Sched.End_of_stream;
      let len = Int.min (q.ring.Ring.head - c.cur.Ring.pos) (stop - !filled) in
      k.Ring.copy_out q.ring c.cur b !filled len;
      if retire q c.cur len then freed c;
      filled := !filled + len
    done

  let read_upto_held (k : _ Ring.kind) c b off n =
    let q = c.c_queue in
    if (q.poisoned || at_head c) && not (await_data c) then raise Sched.End_of_stream;
    let len = Int.min (q.ring.Ring.head - c.cur.Ring.pos) n in
    k.Ring.copy_out q.ring c.cur b off len;
    if retire q c.cur len then freed c;
    len

  let put p v =
    check_open p;
    if not W.locking then put_held p v
    else begin
      let q = p.p_queue in
      W.lock q.w;
      match put_held p v with
      | () -> W.unlock q.w
      | exception exn -> unlock_reraise q exn
    end

  let get c =
    if not W.locking then get_held c
    else begin
      let q = c.c_queue in
      W.lock q.w;
      match get_held c with
      | v ->
        W.unlock q.w;
        v
      | exception exn -> unlock_reraise q exn
    end

  let write (k : _ Ring.kind) p b off n =
    let q = p.p_queue in
    k.Ring.require q.ring b off n;
    check_open p;
    if not W.locking then write_held k p b off n
    else begin
      W.lock q.w;
      match write_held k p b off n with
      | () -> W.unlock q.w
      | exception exn -> unlock_reraise q exn
    end

  let read (k : _ Ring.kind) c b off n =
    let q = c.c_queue in
    k.Ring.require q.ring b off n;
    if not W.locking then read_held k c b off n
    else begin
      W.lock q.w;
      match read_held k c b off n with
      | () -> W.unlock q.w
      | exception exn -> unlock_reraise q exn
    end

  let read_upto (k : _ Ring.kind) c b off n =
    let q = c.c_queue in
    k.Ring.require q.ring b off n;
    if n = 0 then invalid_arg ("cgsim: read_upto needs a positive count on " ^ name q);
    if not W.locking then read_upto_held k c b off n
    else begin
      W.lock q.w;
      match read_upto_held k c b off n with
      | len ->
        W.unlock q.w;
        len
      | exception exn -> unlock_reraise q exn
    end

  (* A port's [w_space] probe: the lock taken directly, no closure. *)
  let space p =
    let q = p.p_queue in
    W.lock q.w;
    match
      ignore (full q);
      free q
    with
    | n ->
      W.unlock q.w;
      if n <= 0 then deliver p.p_waker;
      n
    | exception exn -> unlock_reraise q exn

  let producer_done p =
    if p.open_ then begin
      p.open_ <- false;
      let q = p.p_queue in
      W.lock q.w;
      match
        q.producers_open <- q.producers_open - 1;
        if q.producers_open <= 0 then close q
      with
      | () -> W.unlock q.w
      | exception exn -> unlock_reraise q exn
    end

  let poison q =
    locked q (fun () ->
        if not q.poisoned then begin
          q.poisoned <- true;
          wake_readers q;
          wake_writers q
        end)

  (* Nothing waits, so a wake only drops the waiters a cancelled run
     left behind. *)
  let reset q =
    W.lock q.w;
    Ring.reset q.ring;
    List.iter (fun p -> p.open_ <- true) q.producers;
    q.producers_open <- List.length q.producers;
    q.closed <- false;
    q.poisoned <- false;
    q.occ_hw <- 0;
    wake_readers q;
    wake_writers q;
    W.unlock q.w

  let attach_source q src =
    locked q (fun () ->
        if q.source <> None || q.producers_open > 0 then
          invalid_arg ("cgsim: a source net has exactly one writer: " ^ name q);
        let r = q.ring in
        let write = { Io.write = (fun k b off n -> k.Ring.copy_in r b off n) } in
        q.source <-
          Some
            {
              s_name = Io.source_name src;
              s_copy = Io.transfer r.Ring.dtype src ~chunk:r.Ring.cap write;
              s_len = Io.source_length src;
              s_off = 0;
            })

  let attach_sink q snk =
    locked q (fun () ->
        let r = q.ring in
        let cur = Ring.add_cursor r in
        (* The sink reads from [cur] and retires what it read. *)
        let read =
          {
            Io.read =
              (fun k dst off n ->
                let n = Int.min (r.Ring.head - cur.Ring.pos) n in
                k.Ring.copy_out r cur dst off n;
                if retire q cur n then wake_writers q;
                n);
          }
        in
        let o = Io.outlet r.Ring.dtype ~capacity:r.Ring.cap snk in
        q.sinks <-
          { k_name = Io.sink_name snk; k_cur = cur; k_emit = (fun () -> Io.emit o read); k_failed = false }
          :: q.sinks)

  (* With no kernel cursor on the ring, every pull finds the sinks
     drained and the ring empty, so each one moves a full ring. *)
  let flush q =
    locked q (fun () ->
        match q.source with
        | None -> ()
        | Some s ->
          while not q.closed do
            check_poison q;
            ignore (full q);
            pull q s
          done)

  let reader ~name c =
    {
      Port.r_name = name;
      r_dtype = dtype c.c_queue;
      r_get = (fun () -> get c);
      r_read = (fun k b off n -> read k c b off n);
    }

  let writer ~name p =
    {
      Port.w_name = name;
      w_dtype = dtype p.p_queue;
      w_put = (fun v -> put p v);
      w_write = (fun k b off n -> write k p b off n);
      w_space = (fun () -> space p);
    }

  let net_queues (g : Serialized.t) ~capacity =
    Array.mapi
      (fun id (n : Serialized.net) ->
        create ~name:(Printf.sprintf "%s/net%d" g.gname n.net_id) ~dtype:n.dtype
          ~capacity:(capacity id) ())
      g.nets

  let wire queues (inst : Serialized.kernel_inst) =
    let waker = waker () in
    let inputs = ref [] and outputs = ref [] and producers = ref [] in
    Array.iteri
      (fun i (spec : Kernel.port_spec) ->
        let q = queues.(inst.port_nets.(i)) in
        let name = Printf.sprintf "%s.%s" inst.inst_name spec.pname in
        match spec.dir with
        | Kernel.In -> inputs := (i, reader ~name (add_consumer ~waker q)) :: !inputs
        | Kernel.Out ->
          let p = add_producer ~waker q in
          producers := p :: !producers;
          outputs := (i, writer ~name p) :: !outputs)
      inst.kernel.Kernel.ports;
    let producers = !producers in
    {
      inputs = Array.of_list (List.rev !inputs);
      outputs = Array.of_list (List.rev !outputs);
      finish =
        (fun () ->
          deliver waker;
          List.iter producer_done producers);
    }
end
