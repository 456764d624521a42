(** Instruction-level operation tracing.

    aiesim is cycle-approximate: it first executes a graph functionally
    under the cgsim scheduler while recording, per kernel instance, the
    sequence of architectural operations the kernel performed (vector ops,
    scalar ops, loads/stores, stream and window accesses, pipelined-loop
    regions, iteration marks).  A timed replay then assigns cycles to the
    trace using the VLIW issue model.

    A recorder rides the kernel's binding: aiesim's capture binds each
    kernel with its own recorder as the {!Cgsim.Kernel.context}
    ({!Recorder}), and a kernel body reads it once with {!recorder} and
    passes it to every {!Intrinsics} op and to the helpers below, as an
    AIE kernel gets everything it uses as an argument.  The same kernel
    bodies run untraced under plain cgsim, x86sim or a serving pool,
    where the context is not a recorder and every op is handed [None]
    (one branch).  The {!Intrinsics} module emits compute events; the
    simulator's port taps push I/O events into the recorder. *)

type event =
  | Vop of { name : string; slots : int }
      (** Vector-unit operation occupying [slots] issue slots (usually 1;
          wide shuffles or 128-bit stream pushes may take more). *)
  | Sop of { name : string; count : int }  (** [count] scalar-unit ops. *)
  | Load of { bytes : int }  (** Data-memory read through a load unit. *)
  | Store of { bytes : int }
  | Port_read of {
      port : string;
      bytes : int;
      transport : Cgsim.Settings.transport;
      thunked : bool;
    }
  | Port_write of {
      port : string;
      bytes : int;
      transport : Cgsim.Settings.transport;
      thunked : bool;
    }
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

(** The kernel context that makes a kernel record into a recorder: bind
    the kernel with [Recorder r] (see {!Cgsim.Runtime.instantiate}'s
    [?context]). *)
type Cgsim.Kernel.context += Recorder of recorder

(** The recorder a kernel was bound with, [None] when its context is not
    a {!Recorder}.  Kernel bodies call it once, not per op. *)
val recorder : Cgsim.Kernel.binding -> recorder option

val create_recorder : unit -> recorder

val events : recorder -> event list

val event_count : recorder -> int

(** [false] while [r] replays the unrecorded iterations of a pipelined
    loop ({!with_pipelined_loop}): test it before building an event. *)
val recording : recorder -> bool

(** Append an event to [r], unless it is not {!recording}. *)
val push : recorder -> event -> unit

(** {1 Emission helpers}

    Each takes the kernel's recorder ({!recorder}) first and does
    nothing with [None].  Kernel bodies charge costs through
    {!Intrinsics}, which builds its event itself; a non-constant
    [?count] here allocates its [Some] on every call, traced or not. *)

val sop : recorder option -> ?count:int -> string -> unit

val mark_iteration : recorder option -> unit

(** [with_pipelined_loop tr ~trip body] marks a software-pipelined inner
    loop: functionally [body i] runs for every [i] in [0..trip-1], but
    only the first iteration's events are recorded into [tr] inside a
    [Loop_enter]/[Loop_exit] pair (the VLIW model multiplies by the trip
    count).  This keeps traces compact and mirrors how the hardware
    pipeliner charges II * trip + prologue. *)
val with_pipelined_loop : recorder option -> trip:int -> (int -> unit) -> unit
