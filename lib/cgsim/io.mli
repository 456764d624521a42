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
    Runtime parameters are single-value sources and sinks. *)

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

(** Collect everything into a buffer; read it after the run. *)
val buffer : unit -> sink * (unit -> Value.t list)

(** Collect into a float array (integer nets convert with
    [float_of_int]). *)
val f32_buffer : unit -> sink * (unit -> float array)

(** Collect into an int array (float nets convert with [int_of_float]). *)
val int_buffer : unit -> sink * (unit -> int array)

(** Runtime-parameter sink: captures the last scalar written (the paper's
    RTP sinks pass variables back to the host). *)
val rtp_sink : unit -> sink * (unit -> Value.t option)

(** Discard everything. *)
val null : unit -> sink

val sink_name : sink -> string

(** {1 Transfers}

    The per-kind data movement both simulators share.  The net's dtype
    picks the transfer: flat floats on a float net, flat ints on an
    integer net, boxed values otherwise.  Data moves in chunks of at
    most [chunk] elements; the pumps use [max 1 (min capacity 1024)], so
    a chunk is at most one full ring. *)

(** Number of elements in the payload. *)
val source_length : source -> int

(** [transfer dtype s ~chunk ~floats ~ints ~values off len] hands the
    payload elements [off .. off + len - 1] of [s], chunk by chunk, to
    the transfer of its kind as [(payload, offset, count)].  Boxed values
    go through [values] on any net, where the queue checks them against
    its dtype.  A flat payload of the wrong kind raises [Invalid_argument]
    naming the source before anything is handed over.  cgsim's {!feed}
    and x86sim's pull-on-empty readers both copy through it. *)
val transfer :
  Dtype.t ->
  source ->
  chunk:int ->
  floats:(float array -> int -> int -> unit) ->
  ints:(int array -> int -> int -> unit) ->
  values:(Value.t array -> int -> int -> unit) ->
  int ->
  int ->
  unit

(** A sink bound to its net's dtype, with the one drain buffer of that
    kind every {!emit} reuses. *)
type outlet

val outlet : Dtype.t -> capacity:int -> sink -> outlet

(** [emit o ~floats ~ints ~values] reads one chunk with the reader of
    the net's kind and pushes it into the sink.  [floats]/[ints] fill
    the outlet's buffer and return how many they wrote; [values ~max]
    returns at most [max] elements.  cgsim's {!drain} and x86sim's
    push-on-full writers both push through it. *)
val emit :
  outlet ->
  floats:(float array -> int) ->
  ints:(int array -> int) ->
  values:(max:int -> Value.t array) ->
  unit

(** {1 cgsim's pumps}

    The source and sink fibers of {!Runtime}.  Both take the net's
    dtype, the queue's capacity and the queue's transfer functions. *)

(** [feed dtype ~capacity ~put_floats ~put_ints ~put_values s] puts the
    whole payload of [s] through {!transfer}, one array per chunk.  The
    array may be reused for the next chunk, so a put must copy it before
    it returns (the queue's puts do). *)
val feed :
  Dtype.t ->
  capacity:int ->
  put_floats:(float array -> unit) ->
  put_ints:(int array -> unit) ->
  put_values:(Value.t array -> unit) ->
  source ->
  unit

(** [drain dtype ~capacity ~get_floats_into ~get_ints_into ~get_some k]
    pushes everything the queue delivers into [k] through {!emit} until
    the queue's end-of-stream exception ends it. *)
val drain :
  Dtype.t ->
  capacity:int ->
  get_floats_into:(float array -> int) ->
  get_ints_into:(int array -> int) ->
  get_some:(max:int -> Value.t array) ->
  sink ->
  unit
