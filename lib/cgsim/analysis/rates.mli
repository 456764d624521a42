(** Rate / balance analysis (synchronous-dataflow style).

    Each kernel port has a rate: the number of beats (elements) it
    produces or consumes per steady-state firing of its kernel.  Rates
    come from three sources, in order of preference:

    - rates declared on the kernel definition ({!Kernel.define}'s
      [?rates]), read from each instance's kernel;
    - window transports, which imply [window_bytes / elem_bytes] beats
      per firing (a window kernel fires once per full window);
    - RTP transports, which imply rate 0 (a scalar written out-of-band,
      not per-firing traffic).

    Plain streams with no declaration stay unknown and generate no
    balance constraints.

    Over the known rates the pass solves the SDF balance equations
    [rep(w) * rate(w.port) = rep(r) * rate(r.port)] for every
    single-writer, non-RTP net (merge nets have no well-defined
    per-writer split, so they are skipped).  Inconsistent nets are
    reported as [CG-E101] errors naming both offending kernel ports;
    consistently solved components of two or more kernels get a
    [CG-I102] info carrying the minimal integer repetition vector. *)

(** Beats per firing of port [port_idx] of kernel [kernel_idx], or
    [None] when unknown.  Exposed for the deadlock pass. *)
val port_rate : Serialized.t -> int -> int -> int option

val analyze : Serialized.t -> Diagnostic.t list

(** Programmatic form of the balance solve, for passes that need the
    repetition vector itself rather than rendered findings (capacity
    synthesis, throughput bounds, the fuzzer oracle). *)
type solution = {
  balanced : bool;
      (** No [CG-E101] inconsistency anywhere in the graph. *)
  repetitions : (int * int) list;
      (** Minimal positive integer repetitions [(kernel_idx, rep)],
          sorted by kernel index, one entry per kernel that appears in a
          balance-constrained component.  Kernels with no known-rate
          constraints (isolated sources/sinks, plain streams without
          declarations) are absent — treat them as repetition 1.  When
          [balanced] is false the entries of inconsistent components are
          best-effort and should not be trusted. *)
}

val solve : Serialized.t -> solution
