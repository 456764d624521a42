(** Runtime graph instantiation and execution.

    The deserializer and [RuntimeContext] of Sections 3.6–3.8: it takes
    the flattened {!Serialized.t} produced at construction time and
    reconstructs a live graph — one {!Bqueue} per net, one fiber per
    kernel instance running the {!Kernel.t} the instance holds, plus
    source and sink fibers on the global I/O nets — then drives the cooperative scheduler
    until no fiber can continue, the configured deadline or step budget
    expires, a kernel fails, or the run is cancelled.

    Execution knobs are carried by a {!Run_config.t}; {!run} returns a
    structured {!outcome} instead of raising on failure.  Use
    {!run_exn}/{!execute_exn} for the raising convenience.

    The lifecycle is split between an immutable {!compiled} graph
    (validation, lint verdict, queue capacities,
    profiler keys — everything derivable from the {!Serialized.t} +
    {!Run_config.t} pair alone) and cheap per-request
    instances: {!new_instance} builds one, a run uses it, and {!reset}
    restores it to pristine without reallocation so warm serving reuses
    queues and endpoints.  {!instantiate} remains the one-shot
    convenience (compile + new instance).

    Every run taps the kernel ports ({!Port.tap}) with, in order: the
    fault plan's tap when [config.faults] is set, the per-port element
    counters [port.get:NAME]/[port.put:NAME] when an {!Obs.Trace}
    session is active, and the caller's [?tap].  A run with none of
    these binds kernels to the raw queue closures.  Each kernel's binding
    also carries the caller's [?context] for it ({!Kernel.No_context}
    unless given), the one way a run hands a kernel anything besides its
    ports.  Kernel bodies are
    supervised (a raise becomes [Kernel_failed]) and, when traced, emit
    [body-start]/[body-end]/[body-raise] instants. *)

type t

(** An immutable compiled graph: share freely, build instances from it. *)
type compiled

exception Runtime_error of string

(** A source of port taps: [src inst port_idx name] is the tap for port
    [port_idx] (indexing [inst.ports]) of kernel instance [inst], whose
    port name ([r_name]/[w_name], ["<instance>.<port>"]) is [name], or
    [None] to leave that port alone.  It is called afresh for every
    {!run}, so a tap may keep per-run state.  aiesim captures its event
    trace this way. *)
type tap_source = Serialized.kernel_inst -> int -> string -> Port.tap option

(** A source of kernel contexts: [src inst] is the {!Kernel.context} in
    kernel instance [inst]'s binding.  Like a tap source it is called
    afresh for every {!run}.  aiesim's capture gives each kernel its
    trace recorder this way. *)
type context_source = Serialized.kernel_inst -> Kernel.context

(** {1 Structured outcomes} *)

(** A kernel body raised: who, what, where. *)
type failure = {
  f_graph : string;  (** Graph name. *)
  f_kernel : string;  (** Fiber name (kernel instance, source or sink). *)
  f_exn : exn;
  f_backtrace : string;  (** Empty when backtrace recording is off. *)
  f_src : Srcspan.t option;  (** Construction-site span, when known. *)
  f_flight : Obs.Flight.entry list;
      (** Flight-recorder window from the failing domain (oldest first):
          the last {!Obs.Flight.capacity} scheduler/pool events leading
          up to the failure.  Captured whether or not tracing is on. *)
}

(** Post-mortem snapshot of a run stopped by deadline or fuel: which
    fibers were parked (blocked on queue I/O), how many unretired
    elements each net held, and the last fiber that advanced — enough to
    tell a stalled pipeline from a busy-divergent kernel. *)
type progress = {
  p_graph : string;
  p_reason : [ `Wall_clock | `Max_steps ];
  p_parked : string list;
  p_occupancy : (string * int) list;  (** (net name, unretired elements) *)
  p_last_kernel : string option;
  p_stats : Sched.stats;
  p_flight : Obs.Flight.entry list;  (** As {!failure.f_flight}. *)
}

(** [failure_of ~graph ~who ~src ~backtrace exn]: [who] (a kernel
    instance, source or sink) raised [exn].  It snapshots the calling
    domain's flight window, so call it on the failing domain. *)
val failure_of :
  graph:string -> who:string -> src:Srcspan.t option -> backtrace:string -> exn -> failure

val failure_message : failure -> string

type outcome =
  | Completed of Sched.stats
  | Deadline_exceeded of progress
  | Cancelled  (** {!cancel} (or [Sched.cancel]) was called mid-run. *)
  | Kernel_failed of failure

(** Stable one-word label: ["completed"], ["deadline"], ["max-steps"],
    ["cancelled"], ["failed"] — used as metric/JSON keys. *)
val outcome_label : outcome -> string

val progress_message : progress -> string
val pp_outcome : Format.formatter -> outcome -> unit

(** [Completed stats] returns [stats]; every other outcome raises
    {!Runtime_error} with the corresponding message. *)
val stats_exn : outcome -> Sched.stats

(** [instantiate g] is [new_instance (compile ?config g)]: it
    reconstructs the graph under [config] (default
    {!Run_config.default}).  Queue capacities derive from each net's
    resolved settings unless [config.queue_capacity] overrides them all.
    Ports always take the block transfers and scalar nets always use
    flat storage.  [tap] is the caller's port tap and [context] its
    per-kernel context (default {!Kernel.No_context}), both applied on
    every run.  Raises exactly as {!compile} does. *)
val instantiate :
  ?config:Run_config.t -> ?tap:tap_source -> ?context:context_source -> Serialized.t -> t

(** {1 Compile-once serving}

    [compile g] does the per-graph work once, in order:
    - validation: {!Serialized.validate_diags} once, plus the one check
      only a run needs, that every net has a consumer (a kernel reader
      or a global output; [CG-E008]: a net nobody drains would hang its
      writers).  An invalid graph raises {!Runtime_error}
      ["cannot instantiate <graph>: ..."] rendering every diagnostic of
      both, e.g. a net read but never written ([CG-E005]) or two
      kernels under one name ([CG-E007]);
    - the pre-flight {!Lint.passes} at [config.lint]: [`Warn] prints
      warning- and error-level findings to stderr, and at [`Error] a
      graph with error-level findings is refused here, before any
      kernel body runs;
    - per-net queue capacities, raised to {!Capacity.suggest}'s
      minimal deadlock-free depths when [config.auto_capacity] is on;
    - the per-kernel profiler keys.

    Instances built from the artifact (and their resets) never re-lint.
    An exception raised inside an analysis pass propagates unchanged. *)
val compile : ?config:Run_config.t -> Serialized.t -> compiled

(** What another backend reads from a compiled graph (x86sim sizes its
    own queues from it): the queue capacity resolved for net [id]. *)
val compiled_capacity : compiled -> int -> int

(** [new_instance c] builds the per-request state: queues at the
    compiled capacities and all kernel and global-I/O endpoints
    registered (so endpoint counts are static across resets), the
    kernels wired by {!Bqueue.wire} in graph order, then one producer
    per global input and one consumer per global output.
    [tap] and [context] are as for {!instantiate}.  The instance is ready
    for one {!run}; {!reset} readies it for the next. *)
val new_instance : ?tap:tap_source -> ?context:context_source -> compiled -> t

(** [reset t] restores a used instance to its just-built state without
    reallocating: ring cursors and sequence numbers return to zero,
    producers reopen, the scheduler empties and the failure slot clears,
    while the endpoint set is preserved.  Works after any outcome, including [Kernel_failed] and
    [Deadline_exceeded] (every run drives remaining fibers to
    termination first).  Must not be called while {!run} is in progress
    (raises [Invalid_argument]). *)
val reset : t -> unit

(** [run t ~sources ~sinks] attaches positional sources to the graph's
    global inputs and sinks to its global outputs (counts must match;
    {!Runtime_error} otherwise), then executes under the context's
    {!Run_config.t}: the wall-clock deadline and step budget are
    enforced at every scheduling boundary, and a kernel failure is
    captured with its backtrace and source span rather than escaping.
    [deadline_ns] overrides the config's deadline for this run only: it
    is a run budget, not part of the compiled graph, so a warm instance
    serves any deadline.

    Wrong source/sink counts still raise — those are caller bugs, not
    run outcomes. *)
val run : ?deadline_ns:float -> t -> sources:Io.source list -> sinks:Io.sink list -> outcome

(** [check_io g ~sources ~sinks] raises {!Runtime_error} unless there is
    one source per global input of [g] and one sink per global output.
    {!run} and x86sim both check their I/O with it. *)
val check_io : Serialized.t -> sources:Io.source list -> sinks:Io.sink list -> unit

(** {!run} then {!stats_exn}: raises {!Runtime_error} on any outcome
    other than [Completed]. *)
val run_exn : t -> sources:Io.source list -> sinks:Io.sink list -> Sched.stats

(** Convenience: instantiate + run in one step. *)
val execute :
  ?config:Run_config.t -> Serialized.t -> sources:Io.source list -> sinks:Io.sink list -> outcome

val execute_exn :
  ?config:Run_config.t ->
  Serialized.t ->
  sources:Io.source list ->
  sinks:Io.sink list ->
  Sched.stats

(** Request cooperative cancellation of a run in progress (thread-safe;
    callable from another domain or from inside a port tap).  The run winds
    down at the next scheduling boundary and {!run} returns [Cancelled]. *)
val cancel : t -> unit

val graph : t -> Serialized.t

val config : t -> Run_config.t

(** Total elements that crossed each net during the last run, indexed by
    net id (diagnostics and bench reporting). *)
val net_traffic : t -> int array
