(* The queue over domains: one mutex per queue and a condition variable
   for each side.  Writers blocked on a full ring are woken in batches:
   a read that leaves at least half the ring free wakes them at once,
   and a smaller one is owed in the reading kernel's waker. *)

include Cgsim.Netq.Make (struct
  type cell = {
    lock : Mutex.t;
    nonfull : Condition.t;
    nonempty : Condition.t;
  }

  let cell () =
    { lock = Mutex.create (); nonfull = Condition.create (); nonempty = Condition.create () }

  let locking = true

  let lock c = Mutex.lock c.lock

  let unlock c = Mutex.unlock c.lock

  let wait_space c = Condition.wait c.nonfull c.lock

  let wait_data c = Condition.wait c.nonempty c.lock

  let wake_writers c = Condition.broadcast c.nonfull

  let wake_readers c = Condition.broadcast c.nonempty

  let wake_now r = 2 * Cgsim.Ring.space r >= r.Cgsim.Ring.cap

  let track = Obs.Trace.thread_label

  let track_histogram = Some "x86.wait:"
end)
