(* The queue over cooperative fibers: a side that must wait parks on
   {!Sched}, and a wake hands every parked waiter of one side back to
   its scheduler in one batch. *)

include Netq.Make (struct
  type cell = {
    mutable put_waiters : Sched.waker list;
    mutable get_waiters : Sched.waker list;
  }

  let cell () = { put_waiters = []; get_waiters = [] }

  (* One fiber runs at a time, and it yields only where it parks. *)
  let locking = false

  let lock _ = ()

  let unlock _ = ()

  let wait_space c = Sched.park (fun w -> c.put_waiters <- w :: c.put_waiters)

  let wait_data c = Sched.park (fun w -> c.get_waiters <- w :: c.get_waiters)

  (* The queue calls a wake only when a wait began since the last one. *)
  let wake_writers c =
    let ws = c.put_waiters in
    c.put_waiters <- [];
    Sched.wake_batch ws

  let wake_readers c =
    let ws = c.get_waiters in
    c.get_waiters <- [];
    Sched.wake_batch ws

  (* A wake costs one scheduler hand-off, so nothing is deferred. *)
  let wake_now _ = true

  let track = Sched.current_name

  let track_histogram = None
end)
