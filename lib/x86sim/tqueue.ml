(* The threaded queue: a {!Cgsim.Ring} behind one mutex, with condition
   variables for the two waits, poison for deadline teardown and timed
   waits for the trace.  Every ring access happens under [lock]. *)

module Ring = Cgsim.Ring

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
}

and consumer = {
  c_queue : t;
  cur : Ring.cursor;
}

and producer = {
  p_queue : t;
  mutable open_ : bool;
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
  }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let name q = q.ring.Ring.name

let add_consumer q = with_lock q (fun () -> { c_queue = q; cur = Ring.add_cursor q.ring })

let add_producer q =
  with_lock q (fun () ->
      if q.closed then invalid_arg ("x86sim: adding producer to closed queue " ^ name q);
      q.producers_open <- q.producers_open + 1;
      { p_queue = q; open_ = true })

(* Call with the lock held after [c] read [n] elements: producers are
   woken only when the retirement point actually moved. *)
let advance q c n =
  let before = q.ring.Ring.retired in
  Ring.advance q.ring c.cur n;
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

let is_poisoned q = with_lock q (fun () -> q.poisoned)

(* Measured condition wait: attributes blocked time both to the queue
   endpoint and to the calling OS thread (the per-thread lock-wait
   breakdown Table 2's x86sim/cgsim comparison is really about).  The
   span is emitted only when the caller actually had to wait, so an
   uncontended run traces nothing here. *)
let timed_wait ~key cond q predicate =
  (* Poison ends any wait: the loop predicate drops out and the trailing
     check raises, whether or not the caller ever blocked. *)
  let predicate () = predicate () && not q.poisoned in
  if predicate () then begin
    if !Obs.Trace.on then begin
      let track = Obs.Trace.thread_label () in
      let t0 = Obs.Trace.now_ns () in
      while predicate () do
        Condition.wait cond q.lock
      done;
      let dt = Obs.Trace.now_ns () -. t0 in
      Obs.Trace.span ~track ~cat:"queue" ~name:key ~ts_ns:t0 ~dur_ns:dt ();
      Obs.Trace.observe_ns key dt;
      Obs.Trace.observe_ns ("x86.wait:" ^ track) dt
    end
    else
      while predicate () do
        Condition.wait cond q.lock
      done
  end;
  check_poison q

let wait_space q =
  timed_wait ~key:q.k_wput q.nonfull q (fun () -> Ring.space q.ring <= 0 && not q.closed);
  if q.closed then invalid_arg ("x86sim: put on closed queue " ^ name q)

(* Wait for data; [false] when the queue closed and [c] drained it. *)
let wait_data q c =
  timed_wait ~key:q.k_wget q.nonempty q (fun () ->
      c.cur.Ring.pos >= q.ring.Ring.head && not q.closed);
  c.cur.Ring.pos < q.ring.Ring.head

let check_open p =
  if not p.open_ then invalid_arg ("x86sim: put on finished producer of " ^ name p.p_queue)

let put p v =
  let q = p.p_queue in
  check_open p;
  if not (q.ring.Ring.check v) then Ring.reject q.ring v;
  with_lock q (fun () ->
      wait_space q;
      Ring.push q.ring v;
      Condition.broadcast q.nonempty)

let get c =
  let q = c.c_queue in
  with_lock q (fun () ->
      if not (wait_data q c) then raise Cgsim.Sched.End_of_stream;
      let before = q.ring.Ring.retired in
      let v = Ring.take q.ring c.cur in
      if q.ring.Ring.retired > before then Condition.broadcast q.nonfull;
      v)

(* Chunk loops: one lock acquisition for the whole block (condition
   waits release it while blocked), the other side woken once per
   stored/retired chunk.  [copy off len] moves [len] payload elements
   starting at [off] into/out of the ring. *)
let put_loop p len copy =
  let q = p.p_queue in
  check_open p;
  if len > 0 then
    with_lock q (fun () ->
        let off = ref 0 in
        while !off < len do
          wait_space q;
          let chunk = min (Ring.space q.ring) (len - !off) in
          copy !off chunk;
          off := !off + chunk;
          Condition.broadcast q.nonempty
        done)

let get_loop c n copy =
  let q = c.c_queue in
  if n > 0 then
    with_lock q (fun () ->
        let filled = ref 0 in
        while !filled < n do
          (* Closed and drained mid-block: consumed elements stay
             consumed, exactly like the element loop. *)
          if not (wait_data q c) then raise Cgsim.Sched.End_of_stream;
          let take = min (q.ring.Ring.head - c.cur.Ring.pos) (n - !filled) in
          copy !filled take;
          advance q c take;
          filled := !filled + take
        done)

(* Wait for data, then run [read take] with the lock held and retire
   what it read: [take] is between 1 and [max] available elements. *)
let read_some c ~max read =
  if max <= 0 then invalid_arg "x86sim: get_some needs a positive max";
  let q = c.c_queue in
  with_lock q (fun () ->
      if not (wait_data q c) then raise Cgsim.Sched.End_of_stream;
      let take = min (q.ring.Ring.head - c.cur.Ring.pos) max in
      let out = read take in
      advance q c take;
      out)

let check_count n = if n < 0 then invalid_arg "x86sim: get_block with negative count"

let put_block p vs =
  let q = p.p_queue in
  (* Validate the whole block before taking the lock. *)
  Ring.check_values q.ring vs;
  put_loop p (Array.length vs) (Ring.push_values q.ring vs)

let get_block c n =
  check_count n;
  let out = Array.make n (Cgsim.Value.Int 0) in
  get_loop c n (Ring.read_values c.c_queue.ring c.cur out);
  out

let get_some c ~max =
  read_some c ~max (fun n ->
      let out = Array.make n (Cgsim.Value.Int 0) in
      Ring.read_values c.c_queue.ring c.cur out 0 n;
      out)

(* {1 Unboxed block transfers} — flat payloads, same locking discipline;
   dtype and int range are checked on the whole block before the lock. *)

let put_floats p fs =
  let q = p.p_queue in
  Ring.require_float q.ring "float block write";
  put_loop p (Array.length fs) (Ring.push_floats q.ring fs)

let get_floats c dst =
  Ring.require_float c.c_queue.ring "float block read";
  get_loop c (Array.length dst) (Ring.read_floats c.c_queue.ring c.cur dst)

(* The flat drains fill the caller's buffer and return the count. *)
let get_floats_into c dst =
  Ring.require_float c.c_queue.ring "float block read";
  read_some c ~max:(Array.length dst) (fun n ->
      Ring.read_floats c.c_queue.ring c.cur dst 0 n;
      n)

let put_ints p is =
  let q = p.p_queue in
  Ring.require_int q.ring "int block write";
  Ring.check_ints q.ring is;
  put_loop p (Array.length is) (Ring.push_ints q.ring is)

let get_ints c dst =
  Ring.require_int c.c_queue.ring "int block read";
  get_loop c (Array.length dst) (Ring.read_ints c.c_queue.ring c.cur dst)

let get_ints_into c dst =
  Ring.require_int c.c_queue.ring "int block read";
  read_some c ~max:(Array.length dst) (fun n ->
      Ring.read_ints c.c_queue.ring c.cur dst 0 n;
      n)

let peek c =
  let q = c.c_queue in
  with_lock q (fun () ->
      check_poison q;
      if c.cur.Ring.pos < q.ring.Ring.head then Some (Ring.peek q.ring c.cur)
      else if q.closed then raise Cgsim.Sched.End_of_stream
      else None)

let available c =
  let q = c.c_queue in
  with_lock q (fun () -> q.ring.Ring.head - c.cur.Ring.pos)

let producer_done p =
  if p.open_ then begin
    p.open_ <- false;
    let q = p.p_queue in
    with_lock q (fun () ->
        q.producers_open <- q.producers_open - 1;
        if q.producers_open <= 0 then begin
          q.closed <- true;
          Condition.broadcast q.nonempty;
          Condition.broadcast q.nonfull
        end)
  end

let total_put q = with_lock q (fun () -> q.ring.Ring.head)

let capacity q = q.ring.Ring.cap

(* Advisory free space: stale by the time the caller acts on it, which
   is fine — block writes re-check under the lock. *)
let space q = with_lock q (fun () -> Ring.space q.ring)
