(** Global graph I/O: data sources and sinks (Section 3.7).

    A source is a name and one immutable payload: flat floats
    ({!of_f32_array}), flat ints ({!of_int_array}) or boxed values
    ({!of_array}, {!of_list}, {!rtp}).  The runtime attaches one pump per
    global input and output — the paper's "specialized kernel
    coroutines" that stream standard containers into and out of the
    graph.  cgsim and x86sim run the same two pumps, {!feed} and
    {!drain}, over their own queues; runtime parameters are single-value
    sources and sinks. *)

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

(** {1 The pumps (used by {!Runtime} and x86sim)}

    Both take the net's dtype, the queue's capacity and the queue's
    transfer functions.  The dtype picks the transfer: flat floats on a
    float net, flat ints on an integer net, boxed blocks otherwise.
    Data moves in chunks of [max 1 (min capacity 1024)] elements, so a
    chunk is at most one full ring. *)

(** [feed dtype ~capacity ~put_floats ~put_ints ~put_values s] puts the
    payload of [s] in chunks.  Boxed values go through [put_values] on
    any net, where the queue checks them against its dtype.  A flat
    payload of the wrong kind raises [Invalid_argument] naming the
    source before anything is put. *)
val feed :
  Dtype.t ->
  capacity:int ->
  put_floats:(float array -> unit) ->
  put_ints:(int array -> unit) ->
  put_values:(Value.t array -> unit) ->
  source ->
  unit

(** [drain dtype ~capacity ~get_floats_into ~get_ints_into ~get_some k]
    pushes everything the queue delivers into [k] until the queue's
    end-of-stream exception ends it.  The flat drains fill one buffer per
    pump and push it with its element count. *)
val drain :
  Dtype.t ->
  capacity:int ->
  get_floats_into:(float array -> int) ->
  get_ints_into:(int array -> int) ->
  get_some:(max:int -> Value.t array) ->
  sink ->
  unit
