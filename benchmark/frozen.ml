(* Workload sizes and the exact values every run is checked against.

   Sizes were fixed when the benchmark was defined and must not change
   in a change that claims a gain: a later commit is compared with its
   parent on exactly this work.  The exact values are counts the
   program makes (scheduler slices, elements that crossed nets, aiesim
   trace events) and aiesim's simulated times; they depend only on the
   graphs and inputs, so any simulator-speed change must leave them
   identical.  A mismatch counts as a failed operation. *)

type size = {
  serve_setups : int;  (* daemon spawns timed up front; one more per round *)
  serve_warmup : int;  (* untimed requests before the first round *)
  serve_window1 : int;  (* phase 1 per round: closed loop, window 1 *)
  serve_window16 : int;  (* phase 2 per round: closed loop, window 16 *)
  serve_open : int;  (* phase 3 (traced run): Poisson requests *)
  pool_setups : int;  (* set-ups timed up front; one more per round *)
  pool_round : int;  (* requests submitted up front per round *)
  sim_setups : int;  (* set-ups timed up front; one more per round *)
  sim_scale : int;  (* divides [sim_reps] *)
  runtime_loop : int;  (* iterations of the sequential Runtime layer loop *)
  codec_calls : int;
  trace_rounds : int;  (* rounds of each pass of the traced run *)
}

let full =
  {
    serve_setups = 5;
    serve_warmup = 500;
    serve_window1 = 1000;
    serve_window16 = 2000;
    serve_open = 3000;
    pool_setups = 5;
    pool_round = 10000;
    sim_setups = 5;
    sim_scale = 1;
    runtime_loop = 400;
    codec_calls = 2000;
    trace_rounds = 3;
  }

let smoke =
  {
    serve_setups = 1;
    serve_warmup = 20;
    serve_window1 = 40;
    serve_window16 = 160;
    serve_open = 100;
    pool_setups = 1;
    pool_round = 300;
    sim_setups = 1;
    sim_scale = 64;
    runtime_loop = 10;
    codec_calls = 20;
    trace_rounds = 1;
  }

(* The reference host speed: [Util.host_probe_ms] on a quiet host.
   End-to-end times and rates are reported at this speed. *)
let host_probe_ms = 10.0

(* serve_remote: every request is bitonic at this many reps. *)
let serve_reps = 8

let serve_window = 16

let open_rate_rps = 1000.0

(* pool_mix, per 100 requests: (app, reps, count). *)
let pool_mix = [ "bitonic", 4, 80; "bilinear", 1, 18; "farrow", 2, 1; "iir", 1, 1 ]

let pool_domains = 2

(* sim_*: reps per app per round, picked so that each app takes about a
   quarter of a cgsim round.  aiesim runs at reps / aiesim_divisor. *)
let sim_reps = [ "bitonic", 8192; "farrow", 96; "iir", 96; "bilinear", 768 ]

let aiesim_divisor = 16

(* Table 1: reps per aiesim pass, as in the paper reproduction. *)
let table1_reps = 8

(* The paper's Table 1 relative throughput, percent. *)
let paper_rel_pct = [ "bitonic", 85.32; "farrow", 89.58; "iir", 100.46; "bilinear", 85.33 ]

(* Exact values, keyed by (app, reps). *)
let sched_slices =
  [
    ("bilinear", 768), 9218;
    ("bilinear", 12), 146;
    ("bitonic", 8192), 6146;
    ("bitonic", 128), 98;
    ("farrow", 96), 9316;
    ("farrow", 1), 102;
    ("iir", 96), 146;
    ("iir", 1), 5;
  ]

let runtime_elements =
  [
    ("bilinear", 768), 393216;
    ("bilinear", 12), 6144;
    ("bitonic", 8192), 262144;
    ("bitonic", 128), 4096;
    ("farrow", 96), 786433;
    ("farrow", 1), 8193;
    ("iir", 96), 393216;
    ("iir", 1), 4096;
  ]

let aiesim_trace_events =
  [
    ("bilinear", 48), 2499;
    ("bilinear", 1), 55;
    ("bitonic", 512), 37889;
    ("bitonic", 8), 593;
    ("farrow", 6), 13511;
    ("farrow", 1), 2256;
    ("iir", 6), 24913;
    ("iir", 1), 4153;
  ]

(* Simulated ns per block at [table1_reps]: (baseline, extracted). *)
let aie_ns_per_block =
  [
    "bitonic", (108.80000000000001, 133.59999999999999);
    "farrow", (3508.4000000000001, 3953.2000000000003);
    "iir", (8541.6000000000004, 8560.8000000000011);
    "bilinear", (409.60000000000002, 497.60000000000002);
  ]
