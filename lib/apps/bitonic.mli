(** 16-wide bitonic sort (the paper's [bitonic-sorting] example).

    A single-kernel graph: the kernel reads 16 fp32 values from its input
    stream, sorts them ascending with a 10-stage bitonic compare-exchange
    network built from AIE vector min/max/shuffle/select intrinsics, and
    writes the sorted block to its output stream.  Block size: 64 bytes
    (Table 1).

    Its heavy use of the vector API and its tiny blocks (one sort per 16
    elements, so synchronisation every few dozen cycles) are exactly why
    the paper uses it to stress API coverage and scheduler overhead. *)

val lanes : int
(** 16 *)

val block_bytes : int
(** 64 *)

(** The compare-exchange network: for each stage, the partner permutation
    and the per-lane "keep the minimum" mask.  Exposed for tests. *)
val stages : (int array * bool array) array

(** The three 16-lane vectors a sort works in (partner, min, max) and
    the recorder its intrinsics charge. *)
type scratch

(** [scratch tr]: [tr] is the kernel's {!Aie.Trace.recorder}, [None]
    outside an aiesim capture. *)
val scratch : Aie.Trace.recorder option -> scratch

(** [sort_vector s v] sorts the 16 lanes of [v] in place through the
    network, working in [s]; it allocates nothing.  The kernel keeps one
    [v] and one [s] for its whole life. *)
val sort_vector : scratch -> float array -> unit

val kernel : Cgsim.Kernel.t

(** Single-kernel graph: in stream -> bitonic -> out stream. *)
val graph : unit -> Cgsim.Serialized.t

(** [sources ~reps] — [reps] blocks of deterministic random floats. *)
val sources : reps:int -> Cgsim.Io.source list

val input_floats : reps:int -> float array
(** The exact stream [sources] produces, for checking. *)
