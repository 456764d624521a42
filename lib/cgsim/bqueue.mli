(** cgsim's broadcast queue: {!Netq} over cooperative fibers.

    A full queue parks its writers and an empty one its readers on the
    {!Sched} of whichever fiber touches them ({!Sched.park} uses the
    running fiber's scheduler), so a queue belongs to whatever run it is
    used in.  A read that retires elements wakes the writers at once:
    the waker ledger never owes anything, and the lock is a no-op.
    Blocked spans land on the waiting fiber's track.  [X86sim.Tqueue]
    is the same queue over domains.

    {!Runtime} wires a graph with {!net_queues} and {!wire}, as x86sim
    does, and its source and sink fibers use {!write} and the drain
    {!read_upto}.
    Deadline teardown is the scheduler's stop token, so nothing poisons
    a cgsim queue. *)

include Netq.S
