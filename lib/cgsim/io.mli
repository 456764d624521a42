(** Global graph I/O: data sources and sinks (Section 3.7).

    Sources and sinks are specifications that the runtime turns into
    dedicated fibers attached to the graph's external nets after
    instantiation — exactly the paper's "specialized kernel coroutines"
    that stream standard containers into and out of the graph.  Runtime
    parameters are single-value sources/sinks. *)

type source

type sink

(** {1 Sources} *)

(** Stream every element of the list, then close the net. *)
val of_list : Value.t list -> source

val of_array : Value.t array -> source

(** Stream the whole array as F32 elements. *)
val of_f32_array : float array -> source

(** Stream the whole array as integer elements of the given dtype. *)
val of_int_array : Dtype.t -> int array -> source

(** [repeat n src_list] streams the list [n] times (the paper repeats test
    vectors to extend simulation time, Section 5.2). *)
val repeat : int -> Value.t list -> source

(** Pull-based source: called until it returns [None]. *)
val of_fun : (unit -> Value.t option) -> source

(** Runtime-parameter source: writes one scalar, then closes. *)
val rtp : Value.t -> source

val source_name : source -> string
val with_source_name : string -> source -> source

(** {1 Sinks} *)

(** Collect everything into a buffer; read it after the run. *)
val buffer : unit -> sink * (unit -> Value.t list)

(** Collect into a float array view (F32/F64 nets). *)
val f32_buffer : unit -> sink * (unit -> float array)

val int_buffer : unit -> sink * (unit -> int array)

(** Count elements, discarding them. *)
val counter : unit -> sink * (unit -> int)

(** Runtime-parameter sink: captures the last scalar written (the paper's
    RTP sinks pass variables back to the host). *)
val rtp_sink : unit -> sink * (unit -> Value.t option)

(** Discard everything. *)
val null : unit -> sink

(** Push-based sink. *)
val of_consumer : (Value.t -> unit) -> sink

val sink_name : sink -> string
val with_sink_name : string -> sink -> sink

(** {1 Runtime wiring (used by {!Runtime} and the simulators)} *)

(** [source_pull s] returns a fresh pull function for one run of [s].
    Sources are restartable: each call restarts from the beginning. *)
val source_pull : source -> unit -> Value.t option

(** [source_pull_block s] returns a fresh block-pull function: [pull n]
    yields at most [n] elements, [[||]] once exhausted.  Array-backed
    sources serve [Array.sub] slices (one copy per chunk); others fall
    back to an element loop.  Independent iterator from {!source_pull} —
    a run drives one or the other, never both. *)
val source_pull_block : source -> int -> Value.t array

(** Unboxed block pulls, same contract as {!source_pull_block} with flat
    float/int payloads.  Sources with native float/int backing
    ({!of_f32_array}, {!of_int_array}) serve
    [Array.sub] slices with no boxing; others unbox a boxed block at the
    boundary.  The runtime drives these on every scalar net so source
    data goes straight into bigarray queue storage. *)
val source_pull_floats : source -> int -> float array

val source_pull_ints : source -> int -> int array

(** Push a whole block; equivalent to pushing each element in order. *)
val sink_push_block : sink -> Value.t array -> unit

(** Unboxed block pushes; equivalent to boxing each element and pushing.
    {!f32_buffer}, {!int_buffer}, {!counter} and {!null} accept them
    without boxing. *)
val sink_push_floats : sink -> float array -> unit

val sink_push_ints : sink -> int array -> unit
