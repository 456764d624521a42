(** Thread-per-kernel functional simulator (the x86sim analogue).

    Runs the same serialized graphs and the same kernel bodies as cgsim's
    runtime, but with the execution model of AMD's functional simulator:
    every kernel instance runs on a dedicated OS thread (a domain) and
    blocks preemptively in queue operations.  This is the comparison
    point of Table 2 — faster than cgsim when several compute-heavy
    kernels genuinely run in parallel; slower when frequent small
    transfers between kernels make mutex/condvar synchronisation
    dominate.

    Global sources and sinks have no threads of their own.  They are
    attached to their nets' {!Tqueue}s and served from the domains of the
    kernels that read or write those nets: a reader that finds a source
    net empty copies the next segment of the payload in, and a writer
    that finds a sink net full, or closes it, pushes into the sink.  A
    scalar net moves flat float or int segments end to end, so sources
    and sinks never box on it.  A source net no kernel reads is moved on
    the calling domain after the kernels finish.

    Each kernel gets one {!Tqueue.waker} for the writer wakes its reads
    defer: a read that leaves less than half a ring free wakes the
    blocked writer later, when the kernel next waits on a queue, reads
    0 from its writer's space, or ends its body, so a writer refills
    half a ring per wake instead of one slot.

    Queues and kernel endpoints are wired as cgsim wires them
    ({!Cgsim.Netq.S.wire}), a run returns cgsim's
    {!Cgsim.Runtime.outcome} and refuses a graph with cgsim's
    {!Cgsim.Runtime.Runtime_error}, and a failure is cgsim's record,
    built by {!Cgsim.Runtime.failure_of} on the failing domain.  The
    first failure ends the run: it poisons every {!Tqueue}, so each
    domain unwinds with [Terminated] at its next queue touch.

    Execution knobs come from the shared {!Cgsim.Run_config.t}; the
    fields that make sense here are [queue_capacity], [lint] and
    [deadline_ns] (enforced by a watchdog that poisons every {!Tqueue}
    on expiry, as a failure does).  The cooperative-scheduler knobs —
    [faults], [max_steps], retry/breaker — do not apply to the threaded
    backend, and neither does [auto_capacity] (queues keep their
    declared depths); all are ignored. *)

(** Re-exported because [benchmark/sim_wl.ml] matches on [X86sim.Sim.Completed]. *)
type outcome = Cgsim.Runtime.outcome =
  | Completed of Cgsim.Sched.stats
  | Deadline_exceeded of Cgsim.Runtime.progress
  | Cancelled
  | Kernel_failed of Cgsim.Runtime.failure

(** Re-exported because [benchmark/sim_wl.ml] calls [X86sim.Sim.outcome_label]. *)
val outcome_label : outcome -> string

(** [run g ~sources ~sinks] executes the graph to completion, deadline
    expiry or first failure, joining every kernel domain (and the
    watchdog domain, spawned only when a deadline is set) before
    returning cgsim's {!Cgsim.Runtime.outcome}.  Its stats (in
    [Completed], or [p_stats] at a deadline) count the kernel domains in
    [spawned], [completed] and [cancelled] (still running at the
    deadline), and the wall time in [total_ns]; x86sim does not measure
    [slices] or [kernel_ns], which read 0.  A deadline stops with
    [`Wall_clock]: [p_parked] names the kernels still running when the
    watchdog fired, [p_occupancy] holds each queue's occupancy after the
    join, [p_flight] is the calling domain's flight window and
    [p_last_kernel] is [None].  x86sim never returns [Cancelled] or a
    [`Max_steps] stop.
    The graph is compiled by {!Cgsim.Runtime.compile} (validation,
    pre-flight lint, per-net depths), so an invalid graph (two kernels
    under one name, a net with no producer or no consumer among them)
    or an [`Error]-level lint finding raises
    {!Cgsim.Runtime.Runtime_error} up front with cgsim's message; so do
    wrong source/sink counts ({!Cgsim.Runtime.check_io}).
    {!Cgsim.Runtime.stats_exn} turns any other outcome than [Completed]
    into the same exception. *)
val run :
  ?config:Cgsim.Run_config.t ->
  Cgsim.Serialized.t ->
  sources:Cgsim.Io.source list ->
  sinks:Cgsim.Io.sink list ->
  outcome
