(** Pool-safety / determinism pass.

    {!Pool} instantiates and runs the same serialized graph on
    several domains at once; a kernel body that captures shared mutable
    state (declared [~pure:false]) makes those runs interfere.  This
    pass resolves every kernel instance through the registry and
    reports:

    - [CG-W401]: an instance of a kernel declared stateful — concurrent
      pool serving (or even back-to-back runs) may observe cross-request
      interference;
    - [CG-I402]: a single info listing the kernel definitions that never
      declared their purity, as a nudge to annotate them. *)

val analyze : Serialized.t -> Diagnostic.t list

(** [batching_safe g] is [true] iff every kernel instance resolves
    through the registry to a definition declared [~pure:true] {e and}
    [~stateless:true] — the property {!Pool} requires before
    multiplexing several requests through one warm run (compiled into
    {!Runtime.compiled_batchable}).  Purity alone is weaker: it admits kernels with local
    per-run memory (delay lines, accumulators), which are pool-safe but
    not concatenation-safe. *)
val batching_safe : Serialized.t -> bool
