(** Kernel-side stream endpoints.

    The runtime analogue of [KernelReadPort<T>] / [KernelWritePort<T>]:
    the objects a kernel body actually reads from and writes to.  They are
    closure records so the same kernel body can be bound to

    - cgsim's cooperative queues ({!Bqueue}, via {!Runtime}; aiesim
      captures its event trace through a {!tap} on these), and
    - x86sim's thread-safe queues (one OS thread per kernel),

    mirroring how the paper's extractor swaps port-type implementations per
    realm (Section 4.4) without touching kernel code.

    A reader has four read forms (element, boxed block, flat float and
    flat int block) and a writer the four matching write forms plus an
    advisory free-space probe ({!put_window2} sizes its chunks with it).
    Struct-typed streams carry {!Value.Rec} elements. *)

type reader = {
  r_name : string;
  r_dtype : Dtype.t;
  r_get : unit -> Value.t;  (** May suspend; raises {!Sched.End_of_stream}. *)
  r_get_block : int -> Value.t array;
      (** Block read: equivalent to [n] calls of [r_get] but routed
          through the transport's block fast path when it has one. *)
  r_get_floats : float array -> unit;
      (** Unboxed block read into a caller-owned buffer (float-dtype
          ports): fills [dst] with what [r_get_block (Array.length dst)]
          would return, with no boxing and no allocation when the
          transport stores unboxed. *)
  r_get_ints : int array -> unit;  (** Unboxed block read, integer dtypes. *)
}

type writer = {
  w_name : string;
  w_dtype : Dtype.t;
  w_put : Value.t -> unit;  (** May suspend. *)
  w_put_block : Value.t array -> unit;  (** Block write, cf. [r_get_block]. *)
  w_put_floats : float array -> unit;
      (** Unboxed block write (float-dtype ports); F32 payloads round to
          single precision on store ({!Value.round_f32}). *)
  w_put_ints : int array -> unit;
      (** Unboxed block write, integer dtypes; range-checked. *)
  w_space : unit -> int;
      (** Advisory free space of the transport (never suspends); the
          interleave-aware {!put_window2} sizes its lockstep chunks with
          it. *)
}

(** {1 Access taps}

    A tap observes a port's transfers without touching their payloads:
    the per-port element counters of a trace session, fault injection
    ({!Faults}) and aiesim's event capture are all taps. *)

type tap = {
  before : unit -> unit;
      (** Called before every transfer; may suspend or raise (an injected
          fault), in which case the transfer does not happen. *)
  after : int -> unit;
      (** Called with the number of elements moved once a transfer has
          returned; a read that raises {!Sched.End_of_stream} reports
          nothing. *)
  hold_space : unit -> bool;
      (** Writer side: while [true] the port's [w_space] reports 0. *)
}

(** The tap that does nothing; build others with [{ no_tap with ... }]. *)
val no_tap : tap

(** [tap_reader taps r] routes [r]'s four read forms through [taps]
    ([before]s and [after]s in list order).  With [taps = []] the result
    is [r] itself. *)
val tap_reader : tap list -> reader -> reader

(** [tap_writer taps w]: the writer counterpart; [w_space] reports 0
    while any tap holds space.  With [taps = []] the result is [w]. *)
val tap_writer : tap list -> writer -> writer

val get : reader -> Value.t
val put : writer -> Value.t -> unit

(** Window (block) transfers, used by buffer-port kernels such as the IIR
    example.  [get_window r n] reads [n] elements through the binding's
    block path (one queue transaction per chunk rather than per element). *)
val get_window : reader -> int -> Value.t array

(** Unboxed windows: flat float/int payloads through the transport's
    unboxed block path.  On a bigarray-backed queue the transfer is a
    bounds-checked blit with no {!Value.t} allocation; elsewhere it
    boxes at the boundary with identical semantics.  [get_window_f32 r
    dst] reads [Array.length dst] elements into [dst], so a kernel that
    keeps one window buffer reads every window without allocating. *)

val get_window_f32 : reader -> float array -> unit

val put_window_f32 : writer -> float array -> unit

val get_window_int : reader -> int array -> unit

val put_window_int : writer -> int array -> unit

(** [put_window2 wa wb va vb] writes two equal-length windows to two
    ports in lockstep chunks sized by the free space of the tighter
    queue — the block path for producers whose consumer drains the two
    streams interleaved (farrow stage 1).  A whole-window burst on one
    port could deadlock such a pair; this cannot, because whenever
    neither queue has space it degrades to the scalar interleave.
    Raises [Invalid_argument] if the arrays differ in length. *)
val put_window2 : writer -> writer -> Value.t array -> Value.t array -> unit

(** {1 Scalar conveniences} *)

val get_f32 : reader -> float
val get_int : reader -> int
val put_f32 : writer -> float -> unit
val put_int : writer -> int -> unit

(** Fail-fast dtype agreement check used when binding endpoints. *)
val check_dtype : expected:Dtype.t -> actual:Dtype.t -> what:string -> unit
