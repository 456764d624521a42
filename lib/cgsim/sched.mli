(** Cooperative task scheduler.

    The OCaml analogue of cgsim's C++20-coroutine runtime (Sections 3.6 and
    3.8): every kernel, data source and data sink runs as a user-mode fiber
    on a single OS thread, implemented with OCaml 5 effect handlers.
    Suspension points correspond exactly to the paper's [co_await]ed stream
    operations — a fiber parks when a queue operation cannot proceed and is
    woken by the peer endpoint.

    Execution proceeds as in the paper: all fibers are created suspended
    and registered as pending tasks; the scheduling loop then invokes
    runnable tasks until no fiber can continue (there is no explicit
    termination condition, cf. the paper's footnote 2).  Remaining parked
    fibers are then cancelled with {!Terminated} so their cleanup runs, and
    the run returns statistics.

    The scheduler also keeps the kernel-time vs. scheduling-time accounting
    used to reproduce the paper's Section 5.2 perf profile (99.94 % of
    cgsim's bitonic runtime is kernel execution).

    A fiber carries no data of its own beyond its name: what a kernel
    needs from its run (its ports, aiesim's trace recorder) reaches it
    through its {!Kernel.binding}. *)

type t

(** Handle used to resume one specific park of one specific fiber.  Waking
    is idempotent and ignores stale wakers from earlier parks. *)
type waker

(** Raised inside a fiber when the scheduler cancels it at end of run. *)
exception Terminated

(** Raised by blocking operations on a closed, drained stream; kernels
    written as infinite loops terminate cleanly through it. *)
exception End_of_stream

(** Why a run was stopped before quiescence. *)
type stop_reason =
  | Cancel_requested  (** {!cancel} was called. *)
  | Deadline  (** The wall-clock budget of {!run} expired. *)
  | Out_of_fuel  (** The slice budget of {!run} was exhausted. *)

(** Progress snapshot taken the instant the stop was detected, before any
    fiber was torn down — the post-mortem for stuck or divergent graphs. *)
type stop = {
  reason : stop_reason;
  parked : string list;  (** Fibers parked at stop time, in spawn order. *)
  last_task : string option;  (** The last fiber that executed a slice. *)
  stop_slices : int;  (** Slices executed when the stop fired. *)
}

type stats = {
  spawned : int;  (** Fibers registered. *)
  completed : int;  (** Fibers that returned or ended via {!End_of_stream}. *)
  cancelled : int;  (** Fibers parked at stall time, ended via {!Terminated}. *)
  failed : (string * exn) list;  (** Fibers that raised any other exception. *)
  slices : int;  (** Resume-to-suspend execution slices. *)
  kernel_ns : float;  (** Wall time spent inside fiber code. *)
  total_ns : float;  (** Wall time of the whole run. *)
  stopped : stop option;
      (** [Some _] when the run ended via cancellation, deadline or fuel
          exhaustion rather than quiescence. *)
}

(** Fraction of run time spent inside fibers, [kernel_ns /. total_ns]. *)
val kernel_fraction : stats -> float

val pp_stats : Format.formatter -> stats -> unit

val create : unit -> t

(** [spawn t ~name fn] registers a fiber in the suspended state.  Allowed
    both before {!run} and from inside a running fiber.  [prof_key]
    overrides the per-kernel profiler key (default
    [Obs.Profile.prefix ^ name]); warm runtimes pass a precomputed key so
    respawning a fiber never allocates the string again. *)
val spawn : ?prof_key:string -> t -> name:string -> (unit -> unit) -> unit

(** Restore the scheduler to its freshly-{!create}d state: empties the
    task set and ready queue and zeroes all counters and the stop token.
    Every prior {!run} drives fibers to quiescence (or terminates them),
    so no live continuation is dropped.  Raises [Invalid_argument] if
    called from inside {!run}. *)
val reset : t -> unit

(** Run until no fiber can continue.  Not reentrant.

    [deadline_ns] bounds the run's wall-clock time (relative to its
    start) and [max_steps] bounds the number of execution slices — the
    fuel budget.  Both are checked between every two slices, i.e. at
    every park/wake boundary of the cooperative schedule.  When either
    trips (or {!cancel} was called), the scheduler snapshots progress
    into [stats.stopped], then terminates every remaining fiber with
    {!Terminated} so cleanup code runs.  Once the stop token is set,
    {!park} and {!yield} raise {!Terminated} instead of suspending, so
    teardown cannot wedge; only a fiber that never reaches a suspension
    point can outlive its budget. *)
val run : ?deadline_ns:float -> ?max_steps:int -> t -> stats

(** Cooperatively request cancellation: sets the stop token checked at
    every park/wake boundary.  Callable from inside a fiber (the caller
    itself is terminated at its next suspension point) or from the host
    before {!run}.  Idempotent; the first stop reason wins. *)
val cancel : t -> unit

(** {1 Operations available inside a fiber} *)

(** Reschedule the calling fiber at the back of the ready queue. *)
val yield : unit -> unit

(** [park register] suspends the calling fiber after handing a fresh
    {!waker} to [register] (which typically stores it in a queue's waiter
    list).  The fiber resumes when the waker is passed to {!wake_batch}. *)
val park : (waker -> unit) -> unit

(** [wake_batch ws] wakes every valid waker in [ws] in one pass with a
    single metrics update, so wake cost is proportional to the number of
    waiters actually resumed.  Stale and duplicate wakers are skipped. *)
val wake_batch : waker list -> unit

(** Name of the currently running fiber, for diagnostics. *)
val current_name : unit -> string
