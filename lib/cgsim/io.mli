(** Global graph I/O: data sources and sinks (Section 3.7).

    A source is a name and one immutable payload: flat floats
    ({!of_f32_array}), flat ints ({!of_int_array}) or boxed values
    ({!of_array}, {!of_list}, {!rtp}).  cgsim's runtime attaches one pump
    per global input and output — the paper's "specialized kernel
    coroutines" that stream standard containers into and out of the
    graph — and runs {!feed} and {!drain} as fibers.  x86sim has no
    pumps: its queues pull from a source when a reader finds them empty,
    and push into a sink when a writer finds them full or closes them.
    Both simulators move data through the same {!transfer} and {!emit}.
    Runtime parameters are single-value sources and sinks.

    The three buffer sinks ({!buffer}, {!f32_buffer}, {!int_buffer})
    store what a run pushes flat: each push is copied once into chunks
    of 16 to 256 elements, floats, ints or boxed values as they arrive,
    in arrival order.  Nothing is boxed during the run except what was
    boxed already (the values of an aggregate net).  Boxing happens when
    {!buffer}'s reader builds its [Value.t] list; {!f32_buffer} and
    {!int_buffer} convert when their readers build one array of the
    exact length.  Readers leave the store as it is, so reading twice
    gives equal results. *)

type source

type sink

(** {1 Sources}

    Sources are restartable: every run streams the payload from its
    first element. *)

(** Stream every element of the list, then close the net. *)
val of_list : Value.t list -> source

val of_array : Value.t array -> source

(** Stream the whole array as F32 elements, rounded once when the source
    is built. *)
val of_f32_array : float array -> source

(** Stream the whole array as integer elements of the given dtype,
    wrapped into its range once when the source is built. *)
val of_int_array : Dtype.t -> int array -> source

(** Runtime-parameter source: writes one scalar, then closes. *)
val rtp : Value.t -> source

val source_name : source -> string

(** [source_pull s] returns a fresh pull function over the payload. *)
val source_pull : source -> unit -> Value.t option

(** Every element of the payload, in order. *)
val elements : source -> Value.t list

(** {1 Sinks} *)

(** Collect everything; read it after the run as one list. *)
val buffer : unit -> sink * (unit -> Value.t list)

(** Collect into a float array (integer nets convert with
    [float_of_int]).  A boxed value that is not a scalar raises
    [Invalid_argument] when it is pushed, so the run names the sink. *)
val f32_buffer : unit -> sink * (unit -> float array)

(** Collect into an int array (float nets convert with [int_of_float]).
    A boxed value that is not an integer raises [Invalid_argument] when
    it is pushed. *)
val int_buffer : unit -> sink * (unit -> int array)

(** Runtime-parameter sink: captures the last scalar written (the paper's
    RTP sinks pass variables back to the host). *)
val rtp_sink : unit -> sink * (unit -> Value.t option)

(** Discard everything. *)
val null : unit -> sink

val sink_name : sink -> string

(** {1 Transfers}

    The data movement both simulators share.  Each direction takes one
    kind-polymorphic block write or read, and the payload or the net's
    dtype picks the {!Ring.kind} it moves.  Data moves in chunks of at
    most [chunk] elements; the pumps use [max 1 (min capacity 1024)], so
    a chunk is at most one full ring. *)

(** Number of elements in the payload. *)
val source_length : source -> int

(** A kind-polymorphic block write: [write k b off n] moves elements
    [off .. off + n - 1] of [b] into a net ({!Bqueue.write}, or a ring's
    [copy_in] under x86sim's lock). *)
type write = { write : 'b. 'b Ring.kind -> 'b -> int -> int -> unit }

(** A kind-polymorphic drain: [read k b off n] fills between 0 and [n]
    elements of [b] from [off] and returns how many it wrote
    ({!Bqueue.read_upto}, or a sink cursor's [copy_out]). *)
type read = { read : 'b. 'b Ring.kind -> 'b -> int -> int -> int }

(** [transfer dtype s ~chunk w off len] hands the payload elements
    [off .. off + len - 1] of [s], chunk by chunk, to [w] with the
    payload's kind: {!Ring.floats}, {!Ring.ints} or {!Ring.values}.
    Boxed values go through on any net, where the queue checks them
    against its dtype.  A flat payload of the wrong kind raises
    [Invalid_argument] naming the source before anything is handed
    over.  cgsim's {!feed} and x86sim's pull-on-empty readers both copy
    through it. *)
val transfer : Dtype.t -> source -> chunk:int -> write -> int -> int -> unit

(** A sink bound to its net's dtype, with the one drain buffer of that
    kind every {!emit} reuses. *)
type outlet

val outlet : Dtype.t -> capacity:int -> sink -> outlet

(** [emit o r] reads one chunk with [r], into the outlet's buffer and
    with the kind of the net's dtype (flat floats, flat ints, or boxed
    values on an aggregate net), and pushes what [r] wrote into the
    sink.  cgsim's {!drain} and x86sim's push-on-full writers both push
    through it. *)
val emit : outlet -> read -> unit

(** {1 cgsim's pumps}

    The source and sink fibers of {!Runtime}.  Both take the net's
    dtype, the queue's capacity and the queue's block transfer. *)

(** [feed dtype ~capacity w s] writes the whole payload of [s] through
    {!transfer}, each chunk in place at its offset. *)
val feed : Dtype.t -> capacity:int -> write -> source -> unit

(** [drain dtype ~capacity r k] pushes everything the queue delivers
    into [k] through {!emit} until the queue's end-of-stream exception
    ends it. *)
val drain : Dtype.t -> capacity:int -> read -> sink -> unit
