let clock_mhz = 1250.0

let ns_per_cycle = 1000.0 /. clock_mhz

let array_cols = 50

let array_rows = 8

let slots_vector = 1

let slots_scalar = 1

let slots_load = 2

let slots_store = 1

let slots_stream_read = 1

let slots_stream_write = 1

let fp32_macs_per_cycle = 8

let int16_macs_per_cycle = 32

let int32_macs_per_cycle = 8

let stream_bytes_per_cycle = 4

let plio_bytes_per_pl_cycle = 8

let gmio_latency_cycles = 300

let stream_switch_fifo_words = 32

let stream_hop_latency_cycles = 2

let dm_bytes_per_cycle = 32

let lock_acquire_cycles = 7

let pipeline_depth = 6

let kernel_invocation_overhead_cycles = 24

let cycles_to_ns cycles = cycles *. ns_per_cycle
