(* Sorting-network example: run the paper's bitonic-sorting graph on all
   three simulators and compare their behaviour on the same input.

     dune exec examples/sorting_network.exe *)

let reps = 64

let () =
  let h = Apps.Harness.bitonic in
  let graph = h.Apps.Harness.graph () in
  Printf.printf "== bitonic 16-wide sorting network ==\n";
  Printf.printf "%s\n\n" (Cgsim.Serialized.stats graph);

  (* cgsim: cooperative, single thread *)
  let sinks, contents = h.Apps.Harness.make_sinks () in
  let stats = Cgsim.Runtime.execute_exn graph ~sources:(h.Apps.Harness.sources ~reps) ~sinks in
  (match h.Apps.Harness.check ~reps (contents ()) with
   | Ok () -> Printf.printf "cgsim:  %d blocks sorted correctly (%d fiber slices)\n" reps
                stats.Cgsim.Sched.slices
   | Error e -> failwith e);

  (* x86sim: one OS thread per kernel *)
  let sinks, contents = h.Apps.Harness.make_sinks () in
  let x86 = X86sim.Sim.run_exn graph ~sources:(h.Apps.Harness.sources ~reps) ~sinks in
  (match h.Apps.Harness.check ~reps (contents ()) with
   | Ok () -> Printf.printf "x86sim: identical outputs on %d threads\n" x86.X86sim.Sim.threads
   | Error e -> failwith e);

  (* aiesim: cycle-approximate, hand-written vs extracted deploys *)
  let timed label deploy =
    let sinks, _ = h.Apps.Harness.make_sinks () in
    let report = Aiesim.Sim.run deploy ~sources:(h.Apps.Harness.sources ~reps) ~sinks in
    Printf.printf "aiesim (%s): %.1f ns per 64-byte block\n" label report.Aiesim.Sim.ns_per_block;
    report
  in
  let base = timed "hand-written" (Aiesim.Deploy.baseline graph) in
  let extr = timed "extracted   " (Aiesim.Deploy.extracted graph) in
  Printf.printf "relative throughput after extraction: %.1f %%\n"
    (Aiesim.Sim.relative_throughput_percent ~baseline:base ~extracted:extr);

  (* Show one sorted block. *)
  let input = Apps.Bitonic.input_floats ~reps:1 in
  let sorted = Array.copy input in
  Apps.Bitonic.sort_vector (Apps.Bitonic.scratch None) sorted;
  Printf.printf "\nexample block:\n  in:  %s\n  out: %s\n"
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%+.2f") input)))
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%+.2f") sorted)))
