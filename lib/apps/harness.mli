(** Uniform driver interface over the four evaluation applications.

    Benches and integration tests treat every app the same way: build the
    graph, make sources for N repetitions, collect sink outputs, check
    them against the golden reference.  One repetition is one input block
    as defined by the paper's Table 1 (bitonic 64 B, farrow 4096 B, IIR
    8192 B, bilinear 2048 B). *)

type t = {
  name : string;
  block_bytes : int;
  table2_reps : int;  (** The paper's Table 2 repetition count. *)
  graph : unit -> Cgsim.Serialized.t;
  sources : reps:int -> Cgsim.Io.source list;
  make_sinks : unit -> Cgsim.Io.sink list * (unit -> Cgsim.Value.t list);
      (** Sinks plus a thunk reading the primary output stream. *)
  check : reps:int -> Cgsim.Value.t list -> (unit, string) result;
      (** Validate the primary output against the scalar reference. *)
}

val bitonic : t
val farrow : t
val iir : t
val bilinear : t

(** In the paper's Table 1/2 row order. *)
val all : t list

val find : string -> t option

(** The five app kernels, the executable twins of the kernels that
    [examples/cgc] declares: [Cgc.Consteval.eval_graph]'s [~twins] for
    the extractor and [cgx lint]. *)
val twins : Cgsim.Kernel.t list

(** Run the app once under the plain cgsim runtime and check outputs;
    convenience used by tests and the quickstart of the bench harness.
    Any non-[Completed] outcome (deadline, cancellation, kernel failure
    — e.g. under a [config] with faults) is rendered into the [Error]. *)
val run_cgsim : ?config:Cgsim.Run_config.t -> t -> reps:int -> (Cgsim.Sched.stats, string) result
