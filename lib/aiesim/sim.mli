(** The cycle-approximate AIE simulator (the aiesim analogue).

    Simulation happens in two phases:

    + {b Capture}: the graph runs functionally under the cgsim cooperative
      runtime with tracing enabled — every kernel fiber records its
      architectural op trace and every port access is tagged with its
      transport.  Functional outputs land in the caller's sinks, so
      correctness and timing come from the same execution.
    + {b Replay}: each kernel's trace is compiled to a segment program
      ({!Segments}) and replayed on a virtual-time event engine in which
      kernels, global sources (PLIO) and sinks advance local clocks and
      synchronise through finite-capacity stream channels with hop
      latency, transfer bandwidth, window ping-pong locks and
      backpressure.

    {!run} is {!capture} then {!replay}.

    The replay engine is array-backed.  Each kernel's ports resolve to
    their channels once, before its trace compiles; a compiled program
    is a [Segments.seg array] that its process walks with an int
    cursor.  Processes are created kernels first, in graph order, then
    each global net's PLIO source and sink; they sit in one array in
    reverse creation order.  Each step advances the runnable process
    with the smallest local time; a tie goes to the process earlier in
    that array, i.e. the one created later.  A process's read
    cursors are indexed by channel id, and a channel's write log is two
    parallel arrays (the cycle each write becomes visible, and the
    cumulative byte count it reaches).

    The report carries the paper's Table 1 metric: steady-state time
    between kernel iterations, in cycles and nanoseconds at 1250 MHz. *)

exception Sim_error of string

type kernel_report = {
  k_name : string;
  iterations : int;  (** number of Iteration_marks replayed *)
  first_mark_cycles : float;  (** pipeline-fill latency to first block *)
  avg_interval_cycles : float;  (** steady-state cycles between blocks *)
  busy_cycles : int;  (** total core-busy cycles *)
  marks : float list;  (** iteration timestamps, in cycles *)
}

type report = {
  label : string;
  total_cycles : float;  (** makespan of the replay *)
  blocks : int;  (** iterations of the reporting (output-side) kernel *)
  ns_per_block : float;  (** Table 1's "processing time per input block" *)
  kernels : kernel_report list;
  capture_stats : Cgsim.Sched.stats;  (** functional-phase scheduler stats *)
  trace_events : int;  (** total captured events (simulation effort) *)
}

val pp_report : Format.formatter -> report -> unit

type capture_result = {
  traces : (string * Aie.Trace.event list) list;
      (** each kernel instance's recorded events, in graph order *)
  traffic : int array;  (** elements moved per net *)
  stats : Cgsim.Sched.stats;
  events_total : int;
}

(** [capture deploy ~sources ~sinks] is {!run}'s first phase alone: one
    functional execution under tracing, returning every kernel's event
    list.  Raises {!Sim_error} when the execution does not complete. *)
val capture :
  ?config:Cgsim.Run_config.t ->
  Deploy.t ->
  sources:Cgsim.Io.source list ->
  sinks:Cgsim.Io.sink list ->
  capture_result

(** [replay deploy cap] is {!run}'s second phase alone: it compiles
    every kernel's trace in [cap] and replays it, with PLIO sources and
    sinks sized by [cap.traffic], in virtual time.  Emits the timeline
    like {!run}.  Raises {!Sim_error} on replay deadlock, naming each
    blocked process and its head segment. *)
val replay : Deploy.t -> capture_result -> report

(** [run deploy ~sources ~sinks] simulates one execution.  Sinks receive
    the functional outputs.  [config] governs the functional capture
    phase (queue knobs, deadline/fuel, fault plan); capture taps every
    kernel port after any fault tap, so it records only transfers that
    happened.  Raises {!Sim_error} on replay
    deadlock (a graph whose traffic cannot fit the modelled buffering)
    or when the capture phase does not complete — deadline, cancellation
    or kernel failure, with the structured outcome in the message. *)
val run :
  ?config:Cgsim.Run_config.t ->
  Deploy.t ->
  sources:Cgsim.Io.source list ->
  sinks:Cgsim.Io.sink list ->
  report

(** Emit the replay timeline into the active {!Obs.Trace} session on
    the virtual-time pid: per kernel, a pipeline-fill span plus one span
    per iteration interval, with matching [aie.iter_ns:*] histograms.
    {!run} already does this when tracing is on; exposed for replaying a
    stored report into a session started later.  No-op when tracing is
    off. *)
val report_to_trace : report -> unit

(** Throughput ratio [baseline/extracted] of two reports (Table 1's
    "relative throughput" column, in percent). *)
val relative_throughput_percent : baseline:report -> extracted:report -> float

(** CSV timeline of the replay: one line per kernel iteration
    ([kernel,iteration,start_cycles,start_ns]), in execution order —
    the equivalent of the execution trace the paper reads Table 1's
    inter-iteration times from. *)
val timeline_csv : report -> string
