(** x86sim's broadcast queue: {!Cgsim.Netq} over domains.

    x86sim runs every kernel on its own domain, like AMD's functional
    simulator (Section 5.2), so each queue has a mutex and a condition
    variable per side: the overhead the paper's Table 2 contrasts with
    cgsim's cooperative {!Cgsim.Bqueue}.  The queue, its transfers and
    its semantics are {!Cgsim.Netq}'s; what differs is the wait:

    - Readers are woken once per stored chunk.  Writers blocked on a
      full ring are woken in batches: a read that leaves at least half
      the ring free wakes them at once, and a smaller one is owed in the
      reading kernel's {!waker}.  {!wire} gives each kernel one
      waker, and the kernel delivers what it owes before it waits on any
      queue, when its writer's {!space} reads 0, and (through
      its wiring's [finish]) when its body ends.
    - {!poison} is the teardown: {!Sim.run} poisons every queue on the
      first failure and when its deadline watchdog fires, and each
      domain unwinds with {!Cgsim.Sched.Terminated} at its next queue
      touch.
    - Waits are timed on the waiting domain's track, and each is also
      observed in [x86.wait:THREAD].

    Global I/O runs on the domains that touch the queue: a source
    attached with {!attach_source} is pulled by the reader that finds
    the queue empty, and a sink attached with {!attach_sink} is pushed
    by the writer that finds it full or closes it. *)

include Cgsim.Netq.S
