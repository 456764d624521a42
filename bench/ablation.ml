(* Ablation benchmarks for the design choices DESIGN.md calls out:

   1. adapter-thunk cost sweep — how the extracted/hand-written relative
      throughput (Table 1's result) depends on the two thunk cost
      parameters, showing the mechanism rather than a single point;
   2. queue capacity — cooperative-scheduler context-switch frequency vs.
      buffering (cgsim wall-clock);
   3. x86sim buffer depth — the deep-host-buffering choice of the
      thread-per-kernel simulator;
   4. placement — stream-route length (hops) vs. per-block latency on the
      cycle-approximate simulator;
   5. flight recorder — on/off A/B of the always-on per-domain ring on
      the Table 2 cgsim path; the design claim is < 2 % overhead. *)

let measure_rel ~thunk (h : Apps.Harness.t) =
  let run deploy =
    let sinks, _ = h.make_sinks () in
    Aiesim.Sim.run deploy ~sources:(h.sources ~reps:6) ~sinks
  in
  let base = run (Aiesim.Deploy.baseline (h.graph ())) in
  let adapter = Aiesim.Deploy.Thunk thunk in
  let extr = run (Aiesim.Deploy.make ~label:"cgsim-extracted" ~adapter (h.graph ())) in
  Aiesim.Sim.relative_throughput_percent ~baseline:base ~extracted:extr

let thunk_sweep () =
  Printf.printf "\n-- ablation 1: adapter thunk cost vs relative throughput --\n";
  Printf.printf "%8s %9s | %8s %8s %8s\n" "scalar" "loop-frac" "bitonic" "farrow" "bilinear";
  let calibrated = Aiesim.Deploy.default_thunk in
  List.iter
    (fun (s, l) ->
      let thunk =
        { calibrated with
          Aiesim.Deploy.scalar_ops_per_stream_access = s;
          loop_extra_per_access = l }
      in
      Printf.printf "%8d %9.2f | %7.1f%% %7.1f%% %7.1f%%\n" s l
        (measure_rel ~thunk Apps.Harness.bitonic)
        (measure_rel ~thunk Apps.Harness.farrow)
        (measure_rel ~thunk Apps.Harness.bilinear))
    [ 0, 0.0; 0, 0.1; 1, 0.0; 1, 0.1; 1, 0.2; 2, 0.1; 2, 0.4; 4, 0.4 ];
  Printf.printf "(zero thunk cost = parity by construction; the calibrated point is %d / %.2f)\n"
    calibrated.Aiesim.Deploy.scalar_ops_per_stream_access
    calibrated.Aiesim.Deploy.loop_extra_per_access

let queue_capacity_sweep () =
  Printf.printf "\n-- ablation 2: cgsim queue capacity vs wall time (farrow x16) --\n";
  Printf.printf "%10s %12s %10s\n" "capacity" "wall (ms)" "slices";
  List.iter
    (fun queue_capacity ->
      let h = Apps.Harness.farrow in
      let sinks, _ = h.make_sinks () in
      let t0 = Unix.gettimeofday () in
      let stats =
        Cgsim.Runtime.execute_exn
          ~config:Cgsim.Run_config.(with_queue_capacity queue_capacity default)
          (h.graph ()) ~sources:(h.sources ~reps:16) ~sinks
      in
      let ms = (Unix.gettimeofday () -. t0) *. 1e3 in
      Printf.printf "%10d %12.1f %10d\n" queue_capacity ms stats.Cgsim.Sched.slices)
    [ 2; 8; 32; 128; 512; 4096 ];
  Printf.printf "(small queues force one context switch per element; the default is per-net,\n\
                \ derived from window sizes / %d elements for streams)\n"
    Cgsim.Settings.default_stream_depth

let x86_buffer_sweep () =
  Printf.printf "\n-- ablation 3: x86sim queue depth vs wall time (farrow x16) --\n";
  Printf.printf "%10s %12s\n" "capacity" "wall (ms)";
  List.iter
    (fun queue_capacity ->
      let h = Apps.Harness.farrow in
      let sinks, _ = h.make_sinks () in
      let t0 = Unix.gettimeofday () in
      let _ =
        Cgsim.Runtime.stats_exn
          (X86sim.Sim.run
             ~config:Cgsim.Run_config.(with_queue_capacity queue_capacity default)
             (h.graph ()) ~sources:(h.sources ~reps:16) ~sinks)
      in
      Printf.printf "%10d %12.1f\n" queue_capacity ((Unix.gettimeofday () -. t0) *. 1e3))
    [ 4; 64; 1024; 8192 ]

let placement_sweep () =
  Printf.printf "\n-- ablation 4: placement (route hops) vs per-block time (farrow) --\n";
  let h = Apps.Harness.farrow in
  let run label place =
    let d = Aiesim.Deploy.make ?place ~label ~adapter:Aiesim.Deploy.Direct (h.graph ()) in
    let sinks, _ = h.make_sinks () in
    let report = Aiesim.Sim.run d ~sources:(h.sources ~reps:6) ~sinks in
    Printf.printf "%12s: %8.1f ns/block\n" label report.Aiesim.Sim.ns_per_block
  in
  run "adjacent" None;
  run "spread"
    (Some
       (fun name ->
         (* Pin the two farrow stages to opposite corners of the array. *)
         if String.equal name "farrow_stage1_0" then
           Some { Aie.Array_model.col = 0; row = 1 }
         else if String.equal name "farrow_stage2_0" then
           Some { Aie.Array_model.col = Aie.Cfg.array_cols - 1; row = Aie.Cfg.array_rows }
         else None));
  Printf.printf "(spread placement adds stream-switch hop latency to every cascade transfer;\n\
                \ with shallow switch FIFOs the latency couples into throughput, which is why\n\
                \ the aiecompiler and our auto-placer keep communicating kernels adjacent)\n"

let flight_overhead () =
  Printf.printf "\n-- ablation 5: flight recorder on/off (cgsim, farrow x16) --\n";
  let h = Apps.Harness.farrow in
  let one enabled =
    Obs.Flight.set_enabled enabled;
    let sinks, _ = h.make_sinks () in
    let t0 = Unix.gettimeofday () in
    ignore (Cgsim.Runtime.execute_exn (h.graph ()) ~sources:(h.sources ~reps:16) ~sinks);
    (Unix.gettimeofday () -. t0) *. 1e3
  in
  (* Interleaved best-of-N pairs: alternating configs cancels slow host
     drift, and the minimum is the least noise-contaminated estimate of
     the true cost on a shared host. *)
  ignore (one true);
  ignore (one false);
  let off = ref Float.infinity and on = ref Float.infinity in
  for _ = 1 to 8 do
    off := Float.min !off (one false);
    on := Float.min !on (one true)
  done;
  let off = !off and on = !on in
  Obs.Flight.set_enabled true;
  let overhead = (on -. off) /. off *. 100.0 in
  Printf.printf "%10s %12s\n" "flight" "wall (ms)";
  Printf.printf "%10s %12.2f\n%10s %12.2f\n" "off" off "on" on;
  Printf.printf "overhead: %+.2f%% (events are per scheduler slice, never per element;\n\
                \ the design budget is < 2%%)\n"
    overhead

let run () =
  Printf.printf "\n== Ablations ==\n";
  thunk_sweep ();
  queue_capacity_sweep ();
  x86_buffer_sweep ();
  placement_sweep ();
  flight_overhead ()
