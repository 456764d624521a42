(** Pool-safety / determinism pass.

    {!Pool} instantiates and runs the same serialized graph on
    several domains at once; a kernel body that captures shared mutable
    state (declared [~pure:false]) makes those runs interfere.  This
    pass reads each kernel instance's declared purity and reports:

    - [CG-W401]: an instance of a kernel declared stateful — concurrent
      pool serving (or even back-to-back runs) may observe cross-request
      interference;
    - [CG-I402]: a single info listing the kernel definitions that never
      declared their purity, as a nudge to annotate them. *)

val analyze : Serialized.t -> Diagnostic.t list
