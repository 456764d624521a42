(** Static throughput / bottleneck bound.

    Weights every kernel by [repetition × per-firing cost], where
    repetitions come from the SDF balance solve ({!Rates.solve}) and the
    cost model is either unit (structural analysis: the kernel that
    fires most per steady-state iteration) or measured nanoseconds
    (e.g. per-kernel [kernel.self_ns] rows from {!Obs.Profile}), in
    which case the weights turn into a predicted request-rate ceiling.

    The sum of the weights bounds single-domain (sequential) throughput;
    the largest single stage — one kernel, or a whole cyclic SCC, since
    kernels on a cycle cannot overlap each other — bounds pipelined
    throughput (the maximum-cycle-ratio reading of the netgraph). *)

type bound = {
  b_weights : (string * float) list;
      (** Per kernel-instance weight, in kernel order.  Unit cost:
          repetitions per iteration.  Measured: ns per request. *)
  b_bottleneck : string;  (** Kernel with the largest weight. *)
  b_share : float;  (** Its fraction of {!b_total}, in [0, 1]. *)
  b_total : float;  (** Sum of all weights (sequential iteration cost). *)
  b_critical : float;
      (** Largest single stage: max kernel weight, or max cyclic-SCC
          weight sum where a cycle exists.  [b_critical >= ] max weight. *)
  b_measured : bool;  (** Whether a cost model was supplied. *)
}

(** [bound ?cost g]: [cost] maps a kernel instance name to its measured
    cost in ns per request ([None] entries count as 0 — e.g. a kernel
    that never fired); omitting it selects unit cost.  Returns [None]
    for empty graphs or all-zero weights. *)
val bound : ?cost:(string -> float option) -> Serialized.t -> bound option

(** [1e9 / b_total] resp. [1e9 / b_critical] — requests per second.
    [None] unless the bound was built from a measured cost model. *)
val sequential_per_sec : bound -> float option

val pipelined_per_sec : bound -> float option

(** The [CG-I105] finding: unit-cost bottleneck for graphs with a
    balanced, non-empty repetition vector.  At most one finding. *)
val analyze : Serialized.t -> Diagnostic.t list
