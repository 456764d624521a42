(* The threaded queue: a {!Cgsim.Ring} behind one mutex, with condition
   variables for the two waits, poison for deadline teardown and timed
   waits for the trace.  Every ring access happens under [lock].

   Global I/O needs no thread of its own.  An attached source is copied
   into the ring by the reader that finds its cursor at [head] (pull on
   empty); an attached sink is a cursor the writers drain into the sink
   when a put finds the ring full and when the last producer closes the
   queue (push on full).

   Writers blocked on a full ring are woken in batches.  A kernel's
   retirement that leaves at least half the ring free broadcasts
   [nonfull] at once; a smaller one marks the reading cursor as owing a
   wake in its kernel's [waker], and the kernel delivers what it owes
   before it waits on any queue, when its writer's [space] reads 0 and
   when its body ends.  The ring state is always current, so a writer
   still waits only while the ring is full; only its wake is late. *)

module Ring = Cgsim.Ring

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
  mutable producers_open : int;
  mutable closed : bool;
  mutable poisoned : bool;  (* deadline teardown: blocked ops raise Terminated *)
  lock : Mutex.t;
  nonfull : Condition.t;
  nonempty : Condition.t;
  k_wput : string;  (* precomputed obs keys, cf. Cgsim.Bqueue *)
  k_wget : string;
  mutable source : source option;
  mutable sinks : sink list;
}

and consumer = {
  c_queue : t;
  cur : Ring.cursor;
  c_waker : waker;
  mutable c_owes : bool;  (* retired elements since this cursor last woke the writers *)
}

and producer = {
  p_queue : t;
  p_waker : waker;
  mutable open_ : bool;
}

(* One per kernel, touched only by the kernel's own domain: its
   cursors, and whether any of them owes the writers a wake. *)
and waker = {
  mutable mine : consumer list;
  mutable owes : bool;
}

let create ~name ~dtype ~capacity () =
  {
    ring = Ring.create ~name ~dtype ~capacity;
    producers_open = 0;
    closed = false;
    poisoned = false;
    lock = Mutex.create ();
    nonfull = Condition.create ();
    nonempty = Condition.create ();
    k_wput = "queue.wait_put:" ^ name;
    k_wget = "queue.wait_get:" ^ name;
    source = None;
    sinks = [];
  }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* The exception-safe unlock of the transfers, which take the lock
   directly rather than through [with_lock]'s closure. *)
let unlock_reraise q exn =
  let bt = Printexc.get_raw_backtrace () in
  Mutex.unlock q.lock;
  Printexc.raise_with_backtrace exn bt

let name q = q.ring.Ring.name

let waker () = { mine = []; owes = false }

let add_consumer w q =
  with_lock q (fun () ->
      let c = { c_queue = q; cur = Ring.add_cursor q.ring; c_waker = w; c_owes = false } in
      w.mine <- c :: w.mine;
      c)

let add_producer w q =
  with_lock q (fun () ->
      if q.closed then invalid_arg ("x86sim: adding producer to closed queue " ^ name q);
      q.producers_open <- q.producers_open + 1;
      { p_queue = q; p_waker = w; open_ = true })

(* Call with no queue lock held: one queue lock at a time, so delivery
   cannot deadlock against another kernel's. *)
let deliver w =
  if w.owes then begin
    w.owes <- false;
    List.iter
      (fun c ->
        if c.c_owes then begin
          c.c_owes <- false;
          let q = c.c_queue in
          Mutex.lock q.lock;
          Condition.broadcast q.nonfull;
          Mutex.unlock q.lock
        end)
      w.mine
  end

(* Call with the lock held once [c]'s read moved the retirement point:
   wake the writers now if at least half the ring is free, else owe
   them the wake. *)
let wake_or_owe q c =
  if 2 * Ring.space q.ring >= q.ring.Ring.cap then Condition.broadcast q.nonfull
  else begin
    c.c_owes <- true;
    c.c_waker.owes <- true
  end

(* Call with the lock held after consumer [c] read [n] elements. *)
let retire q c n =
  let before = q.ring.Ring.retired in
  Ring.advance q.ring c.cur n;
  if q.ring.Ring.retired > before then wake_or_owe q c

(* A sink cursor's reads wake the writers at once: the writer that
   pushes is the one that would wait. *)
let advance q cur n =
  let before = q.ring.Ring.retired in
  Ring.advance q.ring cur n;
  if q.ring.Ring.retired > before then Condition.broadcast q.nonfull

(* Deadline teardown.  Once poisoned, every queue operation — blocked or
   about to block — raises {!Cgsim.Sched.Terminated}: the watchdog in
   {!Sim.run} poisons all queues when the wall-clock budget expires and
   the OS threads unwind at their next queue touch (the preemptive
   analogue of cgsim's park/wake stop token). *)
let check_poison q = if q.poisoned then raise Cgsim.Sched.Terminated

let poison q =
  with_lock q (fun () ->
      if not q.poisoned then begin
        q.poisoned <- true;
        Condition.broadcast q.nonempty;
        Condition.broadcast q.nonfull
      end)

(* Measured condition wait: attributes blocked time both to the queue
   endpoint and to the calling OS thread (the per-thread lock-wait
   breakdown Table 2's x86sim/cgsim comparison is really about).  The
   span is emitted only when the caller actually had to wait, so an
   uncontended run traces nothing here.  Before each wait the caller
   delivers the wakes its kernel [w] owes, outside [q]'s lock, and then
   re-checks: a writer it stranded may be the one that would wake it. *)
let timed_wait ~key cond q w predicate =
  (* Poison ends any wait: the loop predicate drops out and the trailing
     check raises, whether or not the caller ever blocked. *)
  let predicate () = predicate () && not q.poisoned in
  let block () =
    while predicate () do
      if w.owes then begin
        Mutex.unlock q.lock;
        deliver w;
        Mutex.lock q.lock
      end
      else Condition.wait cond q.lock
    done
  in
  if predicate () then begin
    if !Obs.Trace.on then begin
      let track = Obs.Trace.thread_label () in
      let t0 = Obs.Trace.now_ns () in
      block ();
      let dt = Obs.Trace.now_ns () -. t0 in
      Obs.Trace.span ~track ~cat:"queue" ~name:key ~ts_ns:t0 ~dur_ns:dt ();
      Obs.Trace.observe_ns key dt;
      Obs.Trace.observe_ns ("x86.wait:" ^ track) dt
    end
    else block ()
  end;
  check_poison q

(* {1 Global I/O} — every function here runs with the lock held. *)

(* Push on full: drain every attached sink up to [head].  A sink that
   raises is detached: its cursor skips to [head] from then on, so it
   cannot hold the ring full, and the first failure surfaces as
   [Endpoint_failed] in the writer that pushed. *)
let push_sinks q =
  List.iter
    (fun k ->
      let behind () = q.ring.Ring.head - k.k_cur.Ring.pos in
      if k.k_failed then advance q k.k_cur (behind ())
      else
        try
          while behind () > 0 do
            k.k_emit ()
          done
        with exn ->
          k.k_failed <- true;
          advance q k.k_cur (behind ());
          raise (Endpoint_failed (k.k_name, exn)))
    q.sinks

(* No free slot even after the sinks drained: only a slower kernel
   reader can make room now. *)
let full q = Ring.space q.ring <= 0 && (push_sinks q; Ring.space q.ring <= 0)

let shut q =
  q.closed <- true;
  Condition.broadcast q.nonempty;
  Condition.broadcast q.nonfull

(* The last producer, or the reader that exhausts a source, closes the
   queue and pushes what is left into the sinks. *)
let close q =
  shut q;
  if not q.poisoned then push_sinks q

(* Pull on empty: copy the next segment of the source, at most the free
   space, into the ring; close when the payload runs out.  A failing
   copy closes the queue and surfaces as [Endpoint_failed]. *)
let pull q s =
  let n = min (Ring.space q.ring) (s.s_len - s.s_off) in
  match s.s_copy s.s_off n with
  | () ->
    s.s_off <- s.s_off + n;
    if s.s_off >= s.s_len then close q
  | exception exn ->
    s.s_off <- s.s_len;
    shut q;
    raise (Endpoint_failed (s.s_name, exn))

let wait_space q w =
  timed_wait ~key:q.k_wput q.nonfull q w (fun () -> full q && not q.closed);
  if q.closed then invalid_arg ("x86sim: put on closed queue " ^ name q)

(* Wait for data; [false] when the queue closed and [c] drained it.  On
   a source net the reader at [head] pulls the next segment itself; it
   waits only while the ring is full because a slower reader of the
   broadcast has not retired its elements. *)
let wait_data q c =
  let at_head () = c.cur.Ring.pos >= q.ring.Ring.head && not q.closed in
  (match q.source with
   | None -> timed_wait ~key:q.k_wget q.nonempty q c.c_waker at_head
   | Some s ->
     while
       check_poison q;
       at_head ()
     do
       timed_wait ~key:q.k_wget q.nonfull q c.c_waker (fun () -> at_head () && full q);
       if at_head () then pull q s
     done);
  c.cur.Ring.pos < q.ring.Ring.head

let check_open p =
  if not p.open_ then invalid_arg ("x86sim: put on finished producer of " ^ name p.p_queue)

(* The transfers allocate nothing when they need not wait: the wait,
   with its predicate closures, is entered only when the ring is full
   (or empty), closed or poisoned.  The ring checks a value as it
   stores it; a put that must wait checks first, so a bad value raises
   rather than blocks. *)
let put p v =
  let q = p.p_queue in
  check_open p;
  Mutex.lock q.lock;
  match
    if q.poisoned || q.closed || Ring.space q.ring <= 0 then begin
      if not (q.ring.Ring.check v) then Ring.reject q.ring v;
      wait_space q p.p_waker
    end;
    Ring.push q.ring v;
    Condition.broadcast q.nonempty
  with
  | () -> Mutex.unlock q.lock
  | exception exn -> unlock_reraise q exn

let get c =
  let q = c.c_queue in
  Mutex.lock q.lock;
  match
    if (q.poisoned || c.cur.Ring.pos >= q.ring.Ring.head) && not (wait_data q c) then
      raise Cgsim.Sched.End_of_stream;
    let before = q.ring.Ring.retired in
    let v = Ring.take q.ring c.cur in
    if q.ring.Ring.retired > before then wake_or_owe q c;
    v
  with
  | v ->
    Mutex.unlock q.lock;
    v
  | exception exn -> unlock_reraise q exn

(* The block transfers: one lock acquisition for the whole block
   (condition waits release it while blocked); readers are woken once
   per stored chunk, writers by [retire]'s rule.  The kind's [require]
   runs before the lock.  The ring checks each element as it stores
   it, and a block that does not fit the free space read under the lock
   is checked whole first, so a bad element publishes nothing.  The
   kind's copies are passed unapplied, so that a transfer builds no
   closure; [off] and [n] count payload elements. *)
let write (k : _ Ring.kind) p b off n =
  let q = p.p_queue in
  k.Ring.require q.ring b off n;
  check_open p;
  if n > 0 then begin
    Mutex.lock q.lock;
    match
      if n > Ring.space q.ring then k.Ring.check q.ring b off n;
      let stop = off + n in
      let pos = ref off in
      while !pos < stop do
        if q.poisoned || q.closed || Ring.space q.ring <= 0 then wait_space q p.p_waker;
        let chunk = min (Ring.space q.ring) (stop - !pos) in
        k.Ring.copy_in q.ring b !pos chunk;
        pos := !pos + chunk;
        Condition.broadcast q.nonempty
      done
    with
    | () -> Mutex.unlock q.lock
    | exception exn -> unlock_reraise q exn
  end

let read (k : _ Ring.kind) c b off n =
  let q = c.c_queue in
  k.Ring.require q.ring b off n;
  if n > 0 then begin
    Mutex.lock q.lock;
    match
      let stop = off + n in
      let filled = ref off in
      while !filled < stop do
        (* Closed and drained mid-block: consumed elements stay
           consumed, exactly like the element loop. *)
        if (q.poisoned || c.cur.Ring.pos >= q.ring.Ring.head) && not (wait_data q c) then
          raise Cgsim.Sched.End_of_stream;
        let take = min (q.ring.Ring.head - c.cur.Ring.pos) (stop - !filled) in
        k.Ring.copy_out q.ring c.cur b !filled take;
        retire q c take;
        filled := !filled + take
      done
    with
    | () -> Mutex.unlock q.lock
    | exception exn -> unlock_reraise q exn
  end

let producer_done p =
  if p.open_ then begin
    p.open_ <- false;
    let q = p.p_queue in
    with_lock q (fun () ->
        q.producers_open <- q.producers_open - 1;
        if q.producers_open <= 0 then close q)
  end

(* Advisory free space: stale by the time the caller acts on it, which
   is fine — block writes re-check under the lock.  A full ring drains
   its sinks first, and a writer that reads 0 delivers the wakes its
   kernel owes, so a writer that polls [space] still progresses. *)
let space p =
  let q = p.p_queue in
  let n =
    with_lock q (fun () ->
        ignore (full q);
        Ring.space q.ring)
  in
  if n <= 0 then deliver p.p_waker;
  n

(* {1 Attaching global I/O} *)

let attach_source q src =
  with_lock q (fun () ->
      if q.source <> None || q.producers_open > 0 then
        invalid_arg ("x86sim: a source net has exactly one writer: " ^ name q);
      let r = q.ring in
      q.source <-
        Some
          {
            s_name = Cgsim.Io.source_name src;
            s_copy =
              Cgsim.Io.transfer r.Ring.dtype src ~chunk:r.Ring.cap
                { Cgsim.Io.write = (fun k b off n -> k.Ring.copy_in r b off n) };
            s_len = Cgsim.Io.source_length src;
            s_off = 0;
          })

let attach_sink q snk =
  with_lock q (fun () ->
      let r = q.ring in
      let cur = Ring.add_cursor r in
      (* The reader fills from [cur] and retires what it read. *)
      let read =
        {
          Cgsim.Io.read =
            (fun k dst off n ->
              let n = min (r.Ring.head - cur.Ring.pos) n in
              k.Ring.copy_out r cur dst off n;
              advance q cur n;
              n);
        }
      in
      let o = Cgsim.Io.outlet r.Ring.dtype ~capacity:r.Ring.cap snk in
      q.sinks <-
        {
          k_name = Cgsim.Io.sink_name snk;
          k_cur = cur;
          k_emit = (fun () -> Cgsim.Io.emit o read);
          k_failed = false;
        }
        :: q.sinks)

(* With no kernel cursor on the ring, every pull finds the sinks drained
   and the ring empty, so each one moves a full ring. *)
let flush q =
  with_lock q (fun () ->
      match q.source with
      | None -> ()
      | Some s ->
        while not q.closed do
          check_poison q;
          ignore (full q);
          pull q s
        done)
