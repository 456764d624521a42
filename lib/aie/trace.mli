(** Instruction-level operation tracing.

    aiesim is cycle-approximate: it first executes a graph functionally
    under the cgsim scheduler while recording, per kernel fiber, the
    sequence of architectural operations the kernel performed (vector ops,
    scalar ops, loads/stores, stream and window accesses, pipelined-loop
    regions, iteration marks).  A timed replay then assigns cycles to the
    trace using the VLIW issue model.

    Recording is keyed by the running fiber's name ({!Cgsim.Sched}), so the
    same kernel bodies run untraced under plain cgsim or x86sim (a single
    branch on {!enabled}) and traced under aiesim.  The {!Intrinsics}
    module emits compute events; the simulator's port wrappers emit I/O
    events. *)

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

val create_recorder : unit -> recorder

val events : recorder -> event list

val event_count : recorder -> int

(** {1 Global recording control} *)

(** Master switch; when [false] (the default) every emit is a no-op. *)
val enabled : bool ref

(** Bind a recorder to a fiber name (the kernel instance name).  Events
    performed while that fiber runs land in its recorder. *)
val bind : string -> recorder -> unit

val unbind : string -> unit

val clear_bindings : unit -> unit

(** Emit an event for the current fiber (no-op when disabled or when the
    current fiber has no recorder — sources, sinks and host code). *)
val emit : event -> unit

(** {1 Emission helpers}

    Kernel bodies charge costs through {!Intrinsics}, which tests
    {!enabled} and builds its event itself; a non-constant [?slots] or
    [?count] here allocates its [Some] on every call, traced or not. *)

val vop : ?slots:int -> string -> unit

val sop : ?count:int -> string -> unit

val mark_iteration : unit -> unit

(** [with_pipelined_loop ~trip body] marks a software-pipelined inner
    loop: functionally [body i] runs for every [i] in [0..trip-1], but
    only the first iteration's events are recorded inside a
    [Loop_enter]/[Loop_exit] pair (the VLIW model multiplies by the trip
    count).  This keeps traces compact and mirrors how the hardware
    pipeliner charges II * trip + prologue. *)
val with_pipelined_loop : trip:int -> (int -> unit) -> unit
