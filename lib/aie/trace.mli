(** Instruction-level operation tracing.

    aiesim is cycle-approximate: it first executes a graph functionally
    under the cgsim scheduler while recording, per kernel fiber, the
    sequence of architectural operations the kernel performed (vector ops,
    scalar ops, loads/stores, stream and window accesses, pipelined-loop
    regions, iteration marks).  A timed replay then assigns cycles to the
    trace using the VLIW issue model.

    A recorder rides the kernel's fiber: aiesim's capture spawns each
    kernel fiber with its own recorder as the fiber-local value
    ({!Recorder}, see {!Cgsim.Sched.local}), so events go to the kernel
    that performed them, whatever else runs on other domains.  The same
    kernel bodies run untraced under plain cgsim, x86sim or a serving
    pool, where the fiber's local is not a recorder (a
    {!Cgsim.Sched.local} call and a branch).  The {!Intrinsics} module emits compute events;
    the simulator's port taps push I/O events into the recorder. *)

type transport =
  | Stream
  | Window of int  (** window size in bytes *)
  | Rtp
  | Gmio

type event =
  | Vop of { name : string; slots : int }
      (** Vector-unit operation occupying [slots] issue slots (usually 1;
          wide shuffles or 128-bit stream pushes may take more). *)
  | Sop of { name : string; count : int }  (** [count] scalar-unit ops. *)
  | Load of { bytes : int }  (** Data-memory read through a load unit. *)
  | Store of { bytes : int }
  | Port_read of { port : string; bytes : int; transport : transport; thunked : bool }
  | Port_write of { port : string; bytes : int; transport : transport; thunked : bool }
  | Loop_enter of { trip : int }
      (** Start of a software-pipelined loop region executing [trip]
          iterations; events until the matching {!Loop_exit} describe ONE
          iteration's body (the body is executed [trip] times functionally
          but recorded once; see {!with_pipelined_loop}). *)
  | Loop_exit
  | Loop_abort
      (** The recorded first iteration ended exceptionally (end of stream
          or cancellation); the region must not be scaled by the trip
          count. *)
  | Iteration_mark
      (** Kernel main-loop boundary; aiesim reports the time between marks
          as the paper's "time between iterations" (Table 1). *)

val pp_event : Format.formatter -> event -> unit

type recorder

(** The fiber-local value that makes a fiber record into a recorder:
    spawn the fiber with [~local:(Recorder r)]. *)
type Cgsim.Sched.local += Recorder of recorder

val create_recorder : unit -> recorder

val events : recorder -> event list

val event_count : recorder -> int

(** [false] while [r] replays the unrecorded iterations of a pipelined
    loop ({!with_pipelined_loop}): test it before building an event. *)
val recording : recorder -> bool

(** Append an event to [r], unless it is not {!recording}. *)
val push : recorder -> event -> unit

(** {!push} into the running fiber's recorder; a no-op when the fiber
    has none (sources, sinks, untraced runs and host code). *)
val emit : event -> unit

(** {1 Emission helpers}

    Kernel bodies charge costs through {!Intrinsics}, which matches the
    fiber's recorder and builds its event itself; a non-constant
    [?count] here allocates its [Some] on every call, traced or not. *)

val sop : ?count:int -> string -> unit

val mark_iteration : unit -> unit

(** [with_pipelined_loop ~trip body] marks a software-pipelined inner
    loop: functionally [body i] runs for every [i] in [0..trip-1], but
    only the first iteration's events are recorded inside a
    [Loop_enter]/[Loop_exit] pair (the VLIW model multiplies by the trip
    count).  This keeps traces compact and mirrors how the hardware
    pipeliner charges II * trip + prologue. *)
val with_pipelined_loop : trip:int -> (int -> unit) -> unit
