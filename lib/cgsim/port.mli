(** Kernel-side stream endpoints.

    The runtime analogue of [KernelReadPort<T>] / [KernelWritePort<T>]:
    the objects a kernel body actually reads from and writes to.  They are
    closure records so the same kernel body can be bound to

    - cgsim's cooperative queues ({!Bqueue}, via {!Runtime}; aiesim
      captures its event trace through a {!tap} on these), and
    - x86sim's thread-safe queues (one OS thread per kernel),

    mirroring how the paper's extractor swaps port-type implementations per
    realm (Section 4.4) without touching kernel code.

    A reader has two read forms, the element read and one block read,
    and a writer the two matching write forms plus an advisory
    free-space probe ({!put_window2} sizes its chunks with it).  A block
    form takes a payload kind ({!Ring.values}, {!Ring.floats},
    {!Ring.ints} or {!Ring.lanes}), so the kernel API below is one-line
    wrappers over it.  A [Vector] or [Struct] stream moves as scalar
    lanes: its lane windows fill and read caller-owned {!lanes} buffers
    without a {!Value.t}, and its element form builds and unpacks
    {!Value.Vec}/{!Value.Rec} values at the port. *)

(** Lane buffers: element [i] of a lane block has its int lanes at
    [ints.(i * n_int ..)] and its float lanes at [floats.(i * n_float ..)],
    Vector lanes in order, then Struct fields in declaration order
    (recursively).  Float lanes are moved as given, not rounded. *)
type lanes = Ring.lanes = {
  ints : int array;
  floats : float array;
}

type reader = {
  r_name : string;
  r_dtype : Dtype.t;
  r_get : unit -> Value.t;  (** May suspend; raises {!Sched.End_of_stream}. *)
  r_read : 'b. 'b Ring.kind -> 'b -> int -> int -> unit;
      (** [r_read k b off n]: block read of exactly [n] elements into
          [b] from element [off], through the transport's block path
          (one queue transaction per chunk rather than per element);
          equivalent to [n] calls of [r_get], with no boxing and no
          allocation for the float, int and lane kinds.  Raises
          [Invalid_argument] before it waits when the kind does not fit
          the dtype or [off]/[n] fall outside [b]. *)
}

type writer = {
  w_name : string;
  w_dtype : Dtype.t;
  w_put : Value.t -> unit;  (** May suspend. *)
  w_write : 'b. 'b Ring.kind -> 'b -> int -> int -> unit;
      (** [w_write k b off n]: block write of elements
          [off .. off + n - 1] of [b], cf. [r_read].  F32 nets round to
          single precision on store ({!Value.round_f32}); int payloads
          and int lanes are range-checked. *)
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

(** [tap_reader taps r] routes [r]'s two read forms through [taps]
    ([before]s and [after]s in list order).  With [taps = []] the result
    is [r] itself. *)
val tap_reader : tap list -> reader -> reader

(** [tap_writer taps w]: the writer counterpart for its two write
    forms; [w_space] reports 0 while any tap holds space.  With
    [taps = []] the result is [w]. *)
val tap_writer : tap list -> writer -> writer

val get : reader -> Value.t
val put : writer -> Value.t -> unit

(** {1 Windows}

    Flat float and int windows, used by buffer-port kernels such as the
    IIR example: one block read or write of the whole array through the
    transport's block path.  On a bigarray-backed queue the transfer is
    a bounds-checked blit with no {!Value.t} allocation.  [get_window_f32
    r dst] reads [Array.length dst] elements into [dst], so a kernel
    that keeps one window buffer reads every window without
    allocating. *)

val get_window_f32 : reader -> float array -> unit

val put_window_f32 : writer -> float array -> unit

val get_window_int : reader -> int array -> unit

val put_window_int : writer -> int array -> unit

(** {1 Lane windows}

    The flat transfers of [Vector] and [Struct] ports.  Both count [off]
    and [n] in elements, allocate nothing, report [n] elements to a
    tap's [after], and raise [Invalid_argument] on a scalar port or when
    the buffers hold fewer than [off + n] elements. *)

(** [lanes dtype n] allocates buffers for [n] elements of the aggregate
    [dtype]; [Invalid_argument] for a scalar dtype. *)
val lanes : Dtype.t -> int -> lanes

(** [get_lanes r b off n] reads [n] elements into [b] from element
    [off]. *)
val get_lanes : reader -> lanes -> int -> int -> unit

(** [put_lanes w b off n] writes elements [off .. off + n - 1] of [b]. *)
val put_lanes : writer -> lanes -> int -> int -> unit

(** [put_window2 wa wb la lb n] writes the first [n] elements of [la]
    to [wa] and of [lb] to [wb] in lockstep chunks sized by the free
    space of the tighter queue — the block path for producers whose
    consumer drains the two streams interleaved (farrow stage 1).  A
    whole-window burst on one port could deadlock such a pair; this
    cannot, because whenever neither queue has space it degrades to the
    scalar interleave.  Each chunk is a lane write at its offset into
    the buffers, so nothing is copied or allocated; a buffer that holds
    fewer than [n] elements raises [Invalid_argument] at the first chunk
    past its end. *)
val put_window2 : writer -> writer -> lanes -> lanes -> int -> unit

(** {1 Scalar conveniences} *)

val get_f32 : reader -> float
val get_int : reader -> int
val put_f32 : writer -> float -> unit
val put_int : writer -> int -> unit
