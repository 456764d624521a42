(** AI Engine array architecture parameters.

    Models the first-generation AIE array of AMD Versal SoCs as described
    in UG1079 and the paper's evaluation setup: a 2D grid of VLIW/SIMD
    cores at 1250 MHz, stream switches with 32-bit stream ports, 128 KB of
    local data memory per tile group (8 banks), and PLIO interfaces at
    625 MHz.  The numbers here feed the cycle-approximate simulator
    ({!Aiesim}); they are compile-time constants of real hardware, not
    tunables fitted to the paper's tables. *)

val clock_mhz : float
(** AIE core clock used in the paper's evaluation (1250 MHz). *)

val array_cols : int
val array_rows : int
(** Default array size modelled (VC1902: 50 x 8). *)

(** {1 VLIW issue slots per cycle}

    The AIE core is a 7-way VLIW: two load units, one store unit, one
    vector (fixed/float SIMD) unit, one scalar unit, plus move slots.
    Stream access shares dedicated stream ports: one read and one write
    per cycle (32-bit each, or one 128-bit access every 4 cycles). *)

val slots_vector : int
val slots_scalar : int
val slots_load : int
val slots_store : int
val slots_stream_read : int
val slots_stream_write : int

(** {1 SIMD throughput} *)

val fp32_macs_per_cycle : int
(** 8 single-precision MACs per cycle. *)

val int16_macs_per_cycle : int
(** 32 16-bit MACs per cycle. *)

val int32_macs_per_cycle : int
(** 8 32-bit MACs per cycle. *)

(** {1 Memory and streams} *)

val stream_bytes_per_cycle : int
(** 4 bytes per cycle per 32-bit stream port. *)

val plio_bytes_per_pl_cycle : int
(** 8 bytes per PL cycle for a 64-bit PLIO port. *)

val gmio_latency_cycles : int
(** One-way DDR access latency charged on GMIO routes. *)

val stream_switch_fifo_words : int
(** Per-hop stream-switch FIFO depth in 32-bit words. *)

val stream_hop_latency_cycles : int
(** Latency added per stream-switch hop. *)

val dm_bytes_per_cycle : int
(** Local data-memory bandwidth per load/store unit (256-bit = 32 B). *)

val lock_acquire_cycles : int
(** Cycles to acquire a ping-pong window lock when free. *)

val pipeline_depth : int
(** Software-pipeline fill depth charged as loop prologue/epilogue. *)

val kernel_invocation_overhead_cycles : int
(** Per-invocation graph-runtime overhead (kernel wrapper entry/exit). *)

val cycles_to_ns : float -> float
