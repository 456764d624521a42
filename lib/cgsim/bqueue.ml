(* The cooperative queue: a {!Ring} plus producers, close and Sched
   park/wake.  Storage, slots, segment copies and the cached
   retirement point all live in the ring. *)

type t = {
  ring : Ring.t;
  mutable producer_records : producer list;  (* for [reset] to reopen *)
  mutable producers_open : int;
  mutable producers_total : int;
  mutable closed : bool;
  mutable put_waiters : Sched.waker list;
  mutable get_waiters : Sched.waker list;
  (* Observability: keys are precomputed so the traced hot path does no
     string building; occ_hw gates counter emission to new high-waters. *)
  mutable occ_hw : int;
  k_occ : string;
  k_retire : string;
  k_bput : string;
  k_bget : string;
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
    producer_records = [];
    producers_open = 0;
    producers_total = 0;
    closed = false;
    put_waiters = [];
    get_waiters = [];
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
let space q = Ring.space q.ring
let occupancy q = Ring.occupancy q.ring

(* The runtime attaches all consumers before execution, so in practice
   every cursor starts at 0. *)
let add_consumer q = { c_queue = q; cur = Ring.add_cursor q.ring }

let add_producer q =
  if q.closed then invalid_arg ("cgsim: adding producer to closed queue " ^ name q);
  let p = { p_queue = q; open_ = true } in
  q.producer_records <- p :: q.producer_records;
  q.producers_open <- q.producers_open + 1;
  q.producers_total <- q.producers_total + 1;
  p

(* Restore the queue to its just-created-and-wired state: cursors back to
   zero, every registered producer reopened, contents discarded.  The
   endpoint set is untouched — warm runtime instances reuse queue,
   endpoints and validator without reallocation. *)
let reset q =
  Ring.reset q.ring;
  List.iter (fun p -> p.open_ <- true) q.producer_records;
  q.producers_open <- q.producers_total;
  q.closed <- false;
  q.put_waiters <- [];
  q.get_waiters <- [];
  q.occ_hw <- 0

let wake_all_put q =
  match q.put_waiters with
  | [] -> ()
  | ws ->
    q.put_waiters <- [];
    Sched.wake_batch ws

let wake_all_get q =
  match q.get_waiters with
  | [] -> ()
  | ws ->
    q.get_waiters <- [];
    Sched.wake_batch ws

let close q =
  if not q.closed then begin
    q.closed <- true;
    wake_all_get q;
    wake_all_put q
  end

(* Free slots as the producer sees them: {!Ring.space} read straight off
   the ring's fields, without the call. *)
let free q =
  let r = q.ring in
  match r.Ring.cursors with
  | [] -> r.Ring.cap
  | _ :: _ -> r.Ring.cap - (r.Ring.head - r.Ring.retired)

(* Occupancy: elements the slowest consumer has not yet retired (for a
   broadcast queue that is also the retire lag that holds buffer space).
   Counter events are emitted only on a new high-water mark, so the
   trace shows the staircase without one event per element. *)
let note_put q =
  let occ = Ring.occupancy q.ring in
  if occ > q.occ_hw then begin
    q.occ_hw <- occ;
    Obs.Trace.high_water q.k_occ (float_of_int occ);
    Obs.Trace.counter ~track:(name q) ~cat:"queue" ~name:"occupancy" (float_of_int occ)
  end

(* Spread between the fastest and slowest consumer cursor: how far the
   laggard of a broadcast trails (0 with a single consumer). *)
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

(* Park until the queue has space, attributing the blocked time to the
   queue and the calling fiber when a trace session is active. *)
let wait_for_space q =
  let spin () =
    while free q <= 0 do
      Sched.park (fun w -> q.put_waiters <- w :: q.put_waiters)
    done
  in
  if !Obs.Trace.on then begin
    let track = Sched.current_name () in
    let t0 = Obs.Trace.now_ns () in
    spin ();
    let dt = Obs.Trace.now_ns () -. t0 in
    Obs.Trace.span ~track ~cat:"queue" ~name:q.k_bput ~ts_ns:t0 ~dur_ns:dt ();
    Obs.Trace.observe_ns q.k_bput dt
  end
  else spin ()

(* Park until data is available for [c] (or the queue closes). *)
let wait_for_data c =
  let q = c.c_queue in
  let spin () =
    while c.cur.Ring.pos >= q.ring.Ring.head && not q.closed do
      Sched.park (fun w -> q.get_waiters <- w :: q.get_waiters)
    done
  in
  if !Obs.Trace.on then begin
    let track = Sched.current_name () in
    let t0 = Obs.Trace.now_ns () in
    spin ();
    let dt = Obs.Trace.now_ns () -. t0 in
    Obs.Trace.span ~track ~cat:"queue" ~name:q.k_bget ~ts_ns:t0 ~dur_ns:dt ();
    Obs.Trace.observe_ns q.k_bget dt
  end
  else spin ()

(* Elements were published: trace and wake consumers once. *)
let published q =
  if !Obs.Trace.on then note_put q;
  wake_all_get q

(* [c] read [len] elements.  Advancing the slowest consumer may free
   space, and producers are woken only when it did. *)
let advance c len =
  let r = c.c_queue.ring in
  let before = r.Ring.retired in
  Ring.advance r c.cur len;
  if r.Ring.retired > before then wake_all_put c.c_queue;
  if !Obs.Trace.on then note_get c.c_queue

let check_open p =
  if not p.open_ then invalid_arg ("cgsim: put on finished producer of " ^ name p.p_queue)

(* The ring checks the value as it stores it; a put that must wait
   checks first, so a bad value raises rather than parks. *)
let put p v =
  let q = p.p_queue in
  check_open p;
  if free q <= 0 then begin
    if not (q.ring.Ring.check v) then Ring.reject q.ring v;
    wait_for_space q
  end;
  Ring.push q.ring v;
  published q

let get c =
  let q = c.c_queue in
  if c.cur.Ring.pos >= q.ring.Ring.head then begin
    if q.closed then raise Sched.End_of_stream;
    wait_for_data c;
    if c.cur.Ring.pos >= q.ring.Ring.head then raise Sched.End_of_stream (* closed while parked *)
  end;
  (* One ring call for read and retire. *)
  let r = q.ring in
  let before = r.Ring.retired in
  let v = Ring.take r c.cur in
  if r.Ring.retired > before then wake_all_put q;
  if !Obs.Trace.on then note_get q;
  v

(* ------------------------------------------------------------------ *)
(* Block transfers                                                     *)
(* ------------------------------------------------------------------ *)

(* Blocks move as contiguous ring slices (the ring's segment copies),
   and waiters are woken once per chunk rather than once per element.
   Blocks larger than the free space stream through in chunks,
   interleaving with the consumers/producers.  [copy] is a kind's
   [copy_in] or [copy_out], applied to the ring (and, reading, the
   cursor), the payload, an offset and a length; it is passed unapplied
   so that a transfer builds no closure.  [off] and [n] count elements
   of the payload. *)

(* Producer chunk loop: wait for free slots, copy a chunk at [head]. *)
let put_loop q src off n copy =
  let stop = off + n in
  let pos = ref off in
  while !pos < stop do
    let room = free q in
    if room > 0 then begin
      let len = min room (stop - !pos) in
      copy q.ring src !pos len;
      pos := !pos + len;
      published q
    end
    else wait_for_space q
  done

(* Consumer chunk loop for window reads that fill [n] elements of [dst]
   from [off]. *)
let get_loop c dst off n copy =
  let q = c.c_queue in
  let stop = off + n in
  let filled = ref off in
  while !filled < stop do
    let avail = q.ring.Ring.head - c.cur.Ring.pos in
    if avail > 0 then begin
      let len = min avail (stop - !filled) in
      copy q.ring c.cur dst !filled len;
      advance c len;
      filled := !filled + len
    end
    else if q.closed then raise Sched.End_of_stream
    else wait_for_data c
  done

(* The ring checks each element as it stores it.  A block that must
   stream in several chunks is checked whole up front, so a bad element
   publishes nothing; the kind's [require] runs before any wait. *)
let write (k : _ Ring.kind) p b off n =
  let q = p.p_queue in
  check_open p;
  k.Ring.require q.ring b off n;
  if n > free q then k.Ring.check q.ring b off n;
  put_loop q b off n k.Ring.copy_in

let read (k : _ Ring.kind) c b off n =
  k.Ring.require c.c_queue.ring b off n;
  get_loop c b off n k.Ring.copy_out

(* The drain fills at most [n] elements of a caller-owned buffer and
   returns the count, parking only while the queue is empty: a
   steady-state consumer (an I/O pump, a bench) reuses one buffer
   instead of allocating a fresh array per chunk. *)
let read_upto (k : _ Ring.kind) c b off n =
  let q = c.c_queue in
  k.Ring.require q.ring b off n;
  if n = 0 then invalid_arg ("cgsim: read_upto needs a positive count on " ^ name q);
  let rec avail () =
    let a = q.ring.Ring.head - c.cur.Ring.pos in
    if a > 0 then a
    else if q.closed then raise Sched.End_of_stream
    else begin
      wait_for_data c;
      avail ()
    end
  in
  let len = min (avail ()) n in
  k.Ring.copy_out q.ring c.cur b off len;
  advance c len;
  len

let producer_done p =
  if p.open_ then begin
    p.open_ <- false;
    let q = p.p_queue in
    q.producers_open <- q.producers_open - 1;
    if q.producers_open <= 0 then close q
  end
