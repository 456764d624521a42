(** Trace compilation: architectural op traces to timed segment programs.

    A kernel's captured {!Aie.Trace} is compiled into a linear program of
    {!seg}ments: straight-line compute regions packed by the VLIW model,
    interleaved with the blocking I/O points where the discrete-event
    engine synchronises kernels through stream channels.

    Pipelined-loop regions compile to II*trip + prologue cycles; their
    stream traffic is re-expanded in bounded chunks so the event engine
    still sees producer/consumer overlap without one segment per
    iteration. *)

type seg =
  | Compute of int  (** core busy for this many cycles *)
  | Rd of { chan : int; bytes : int; core : int }
      (** Consume [bytes] from channel; the core is busy [core] cycles
          once data is available (0 when the issue cost is already inside
          a loop's II). *)
  | Wr of { chan : int; bytes : int; core : int }
  | Win_in of { chan : int; bytes : int; core : int }
      (** Acquire a full input window: blocks until [bytes] have arrived,
          then costs the lock-acquire [core] cycles. *)
  | Win_out of { chan : int; bytes : int; core : int }
      (** Release a full output window to the DMA. *)
  | Rtp_in of { chan : int }
  | Mark  (** Kernel iteration boundary (Table 1's inter-iteration time). *)

val pp_seg : Format.formatter -> seg -> unit

(** A kernel's ports, resolved once before its trace compiles: each
    port name maps to a small slot index and the slot to its channel. *)
type port_env

(** [port_env ports]: [ports.(slot)] is the name a trace gives the port
    in slot [slot] ([inst.port], as captured) and its channel. *)
val port_env : (string * int) array -> port_env

exception Compile_error of string

(** [compile ?thunk ~env events] is the kernel's segment program, in
    execution order — [thunk] is the extracted adapter's
    cost model ({!Deploy.Thunk}), charged on the port accesses the trace
    marks [thunked]; without it they cost nothing extra (a [Direct]
    deploy's trace marks none).  Raises {!Compile_error} on malformed
    traces (unbalanced loop markers, unknown ports). *)
val compile : ?thunk:Deploy.thunk_costs -> env:port_env -> Aie.Trace.event list -> seg array
