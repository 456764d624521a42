(* Warm-instance serving tests: the compile-once / reset lifecycle must
   be observationally identical to fresh instantiation — across all four
   evaluation apps, under deterministic fault injection, and after
   failed or fuel-exhausted runs — and the pool's warm cache must never
   hand a request an instance compiled under a different config. *)

module R = Cgsim.Runtime

(* ------------------------------------------------------------------ *)
(* Fixtures                                                           *)
(* ------------------------------------------------------------------ *)

(* Elementwise doubler declared pure. *)
let pure_scale =
  Cgsim.Kernel.define ~realm:Cgsim.Kernel.Aie ~name:"warm_scale" ~pure:true
    [
      Cgsim.Kernel.in_port "in" Cgsim.Dtype.F32;
      Cgsim.Kernel.out_port "out" Cgsim.Dtype.F32;
    ]
    (fun b ->
      let i = Cgsim.Kernel.rd b 0 and o = Cgsim.Kernel.wr b 0 in
      while true do
        Cgsim.Port.put_f32 o (2.0 *. Cgsim.Port.get_f32 i)
      done)

(* Running-sum kernel: pure — its running total lives in the body
   closure, so every instance starts from zero and is pool-safe. *)
let prefix_sum_kernel =
  Cgsim.Kernel.define ~realm:Cgsim.Kernel.Aie ~name:"warm_prefix_sum" ~pure:true
    [
      Cgsim.Kernel.in_port "in" Cgsim.Dtype.F32;
      Cgsim.Kernel.out_port "out" Cgsim.Dtype.F32;
    ]
    (fun b ->
      let i = Cgsim.Kernel.rd b 0 and o = Cgsim.Kernel.wr b 0 in
      let acc = ref 0.0 in
      while true do
        acc := !acc +. Cgsim.Port.get_f32 i;
        Cgsim.Port.put_f32 o !acc
      done)

(* Identity kernel that never declared its purity. *)
let opaque_kernel =
  Cgsim.Kernel.define ~realm:Cgsim.Kernel.Aie ~name:"warm_opaque"
    [
      Cgsim.Kernel.in_port "in" Cgsim.Dtype.F32;
      Cgsim.Kernel.out_port "out" Cgsim.Dtype.F32;
    ]
    (fun b ->
      let i = Cgsim.Kernel.rd b 0 and o = Cgsim.Kernel.wr b 0 in
      while true do
        Cgsim.Port.put_f32 o (Cgsim.Port.get_f32 i)
      done)

(* in -> warm_scale_0 -> warm_scale_1 -> out  (x4 elementwise) *)
let pure_graph () =
  Cgsim.Builder.make ~name:"warm_pure_chain" ~inputs:[ "x", Cgsim.Dtype.F32 ]
    (fun b conns ->
      let mid = Cgsim.Builder.net b Cgsim.Dtype.F32 in
      let out = Cgsim.Builder.net b Cgsim.Dtype.F32 in
      ignore (Cgsim.Builder.add_kernel b pure_scale [ List.hd conns; mid ]);
      ignore (Cgsim.Builder.add_kernel b pure_scale [ mid; out ]);
      [ out ])

let prefix_sum_graph () =
  Cgsim.Builder.make ~name:"warm_prefix_graph" ~inputs:[ "x", Cgsim.Dtype.F32 ]
    (fun b conns ->
      let out = Cgsim.Builder.net b Cgsim.Dtype.F32 in
      ignore (Cgsim.Builder.add_kernel b prefix_sum_kernel [ List.hd conns; out ]);
      [ out ])

let opaque_graph () =
  Cgsim.Builder.make ~name:"warm_opaque_graph" ~inputs:[ "x", Cgsim.Dtype.F32 ]
    (fun b conns ->
      let out = Cgsim.Builder.net b Cgsim.Dtype.F32 in
      ignore (Cgsim.Builder.add_kernel b opaque_kernel [ List.hd conns; out ]);
      [ out ])

let values_equal msg (a : Cgsim.Value.t list) (b : Cgsim.Value.t list) =
  Alcotest.(check int) (msg ^ ": output count") (List.length a) (List.length b);
  Alcotest.(check bool) (msg ^ ": outputs equal") true
    (List.for_all2 Cgsim.Value.equal a b)

let run_checked msg (h : Apps.Harness.t) inst ~reps =
  let sinks, contents = h.Apps.Harness.make_sinks () in
  (match R.run inst ~sources:(h.Apps.Harness.sources ~reps) ~sinks with
   | R.Completed _ -> ()
   | o -> Alcotest.failf "%s: expected Completed, got %a" msg R.pp_outcome o);
  let out = contents () in
  (match h.Apps.Harness.check ~reps out with
   | Ok () -> ()
   | Error e -> Alcotest.failf "%s: %s" msg e);
  out

(* ------------------------------------------------------------------ *)
(* Reset equivalence across apps                                      *)
(* ------------------------------------------------------------------ *)

(* reset-and-rerun == fresh run, for every app.  The first run after
   [new_instance] is the fresh baseline; the post-reset run must match it
   bit for bit. *)
let test_reset_matches_fresh_all_apps () =
  List.iter
    (fun (h : Apps.Harness.t) ->
      let label = h.Apps.Harness.name in
      let inst = R.new_instance (R.compile (h.Apps.Harness.graph ())) in
      let fresh = run_checked (label ^ " fresh") h inst ~reps:2 in
      R.reset inst;
      let warm = run_checked (label ^ " after reset") h inst ~reps:2 in
      values_equal label fresh warm)
    Apps.Harness.all

(* Many reset cycles on one instance: no drift, no resource leak into
   wrong answers. *)
let test_reset_many_cycles () =
  let h = Apps.Harness.bitonic in
  let inst = R.new_instance (R.compile (h.Apps.Harness.graph ())) in
  let baseline = run_checked "cycle 0" h inst ~reps:3 in
  for cycle = 1 to 5 do
    R.reset inst;
    let out = run_checked (Printf.sprintf "cycle %d" cycle) h inst ~reps:3 in
    values_equal (Printf.sprintf "cycle %d" cycle) baseline out
  done

(* Allocation ceiling of one warm run at the request sizes the pool_mix
   benchmark serves: kernel bodies compute into lanes they allocate once
   and aggregate nets move as flat lanes (bilinear's requests, farrow's
   cascade), a scheduler slice allocates nothing of its own, and the
   buffer sink copies outputs into flat chunks, so what a warm run
   allocates is the effect round trips, the ports' own bookkeeping, the
   source pump's chunk array and the sink's chunks.  Sources and sinks
   are built before the measured call; a reset between runs is not
   measured.  Each ceiling sits about 15 % above the measured words
   (674, 1 462, 13 044 and 6 422); with a boxed sink and allocating
   slices the same runs took 1 147, 2 836, 35 074 and 18 736. *)
let test_warm_run_allocation () =
  List.iter
    (fun (name, reps, ceiling) ->
      let h =
        match Apps.Harness.find name with Some h -> h | None -> Alcotest.failf "no app %s" name
      in
      let inst = R.new_instance (R.compile (h.Apps.Harness.graph ())) in
      ignore (run_checked (name ^ " first run") h inst ~reps);
      let words () =
        R.reset inst;
        let sources = h.Apps.Harness.sources ~reps in
        let sinks, contents = h.Apps.Harness.make_sinks () in
        let before = Gc.minor_words () in
        let o = R.run inst ~sources ~sinks in
        let w = Gc.minor_words () -. before in
        (match o with
         | R.Completed _ -> ()
         | o -> Alcotest.failf "%s: expected Completed, got %a" name R.pp_outcome o);
        (match h.Apps.Harness.check ~reps (contents ()) with
         | Ok () -> ()
         | Error e -> Alcotest.failf "%s: %s" name e);
        w
      in
      let w = Float.min (words ()) (words ()) in
      if w > ceiling then
        Alcotest.failf "%s@%d: a warm run allocates %.0f minor words (ceiling %.0f)" name reps w
          ceiling)
    [ "bitonic", 4, 780.; "bilinear", 1, 1_700.; "farrow", 2, 15_000.; "iir", 1, 7_400. ]

let test_reset_during_run_rejected () =
  let h = Apps.Harness.bitonic in
  let inst = R.new_instance (R.compile (h.Apps.Harness.graph ())) in
  ignore (run_checked "pre" h inst ~reps:1);
  (* A used instance refuses a second run until reset. *)
  let sinks, _ = h.Apps.Harness.make_sinks () in
  (match R.run inst ~sources:(h.Apps.Harness.sources ~reps:1) ~sinks with
   | exception R.Runtime_error msg ->
     Alcotest.(check bool) ("mentions reset: " ^ msg) true
       (let nl = String.length "reset" in
        let rec at i =
          i + nl <= String.length msg && (String.sub msg i nl = "reset" || at (i + 1))
        in
        at 0)
   | _ -> Alcotest.fail "second run without reset must raise");
  R.reset inst;
  ignore (run_checked "post" h inst ~reps:1)

(* ------------------------------------------------------------------ *)
(* Reset equivalence under deterministic fault injection              *)
(* ------------------------------------------------------------------ *)

(* Two identically-seeded fault plans drive two sequences of three runs:
   one re-instantiating from scratch every time, one resetting a single
   warm instance.  Outcome labels and sink contents (including the
   partial output of the faulted run) must agree run by run. *)
let test_reset_equivalence_under_faults () =
  let h = Apps.Harness.bitonic in
  let specs seed =
    Cgsim.Faults.plan ~seed [ Cgsim.Faults.raise_on ~kernel:"*" ~after:1 ~fires:1 () ]
  in
  let run_sequence make_inst =
    List.map
      (fun i ->
        let inst = make_inst () in
        let sinks, contents = h.Apps.Harness.make_sinks () in
        let o = R.run inst ~sources:(h.Apps.Harness.sources ~reps:1) ~sinks in
        ignore i;
        R.outcome_label o, contents ())
      [ 0; 1; 2 ]
  in
  let fresh_cfg = Cgsim.Run_config.(with_faults (specs 11) default) in
  let fresh_graph = h.Apps.Harness.graph () in
  let fresh_seq =
    run_sequence (fun () -> R.instantiate ~config:fresh_cfg fresh_graph)
  in
  let warm_cfg = Cgsim.Run_config.(with_faults (specs 11) default) in
  let warm_inst = ref None in
  let warm_seq =
    run_sequence (fun () ->
        match !warm_inst with
        | None ->
          let inst = R.new_instance (R.compile ~config:warm_cfg (h.Apps.Harness.graph ())) in
          warm_inst := Some inst;
          inst
        | Some inst ->
          R.reset inst;
          inst)
  in
  List.iteri
    (fun i ((fl, fo), (wl, wo)) ->
      Alcotest.(check string) (Printf.sprintf "run %d outcome" i) fl wl;
      values_equal (Printf.sprintf "run %d" i) fo wo)
    (List.combine fresh_seq warm_seq);
  (* The fire budget must have been spent exactly once per sequence:
     first run fails, the rest complete. *)
  match fresh_seq with
  | (l0, _) :: rest ->
    Alcotest.(check string) "first run faulted" "failed" l0;
    List.iter (fun (l, _) -> Alcotest.(check string) "later runs clean" "completed" l) rest
  | [] -> assert false

(* A poisoned instance — one whose run ended in [Kernel_failed] — must
   reset to a clean, correct instance. *)
let test_reset_after_kernel_failed () =
  let h = Apps.Harness.farrow in
  let faults = Cgsim.Faults.plan ~seed:7 [ Cgsim.Faults.raise_on ~kernel:"*" ~after:1 ~fires:1 () ] in
  let config = Cgsim.Run_config.(with_faults faults default) in
  let inst = R.new_instance (R.compile ~config (h.Apps.Harness.graph ())) in
  let sinks, _ = h.Apps.Harness.make_sinks () in
  (match R.run inst ~sources:(h.Apps.Harness.sources ~reps:1) ~sinks with
   | R.Kernel_failed f ->
     (match f.R.f_exn with
      | Cgsim.Faults.Injected _ -> ()
      | e -> Alcotest.failf "unexpected failure exn %s" (Printexc.to_string e))
   | o -> Alcotest.failf "expected Kernel_failed, got %a" R.pp_outcome o);
  R.reset inst;
  ignore (run_checked "after Kernel_failed + reset" h inst ~reps:2)

(* Same for a run stopped by the fuel budget ([Deadline_exceeded] with
   [`Max_steps]): a one-shot stall burns the fuel, the reset instance
   then completes well inside the same budget. *)
let test_reset_after_max_steps () =
  let h = Apps.Harness.bitonic in
  let faults = Cgsim.Faults.plan ~seed:3 [ Cgsim.Faults.stall_on ~kernel:"*" ~after:1 ~fires:1 () ] in
  let config = Cgsim.Run_config.(default |> with_faults faults |> with_max_steps 100_000) in
  let inst = R.new_instance (R.compile ~config (h.Apps.Harness.graph ())) in
  let sinks, _ = h.Apps.Harness.make_sinks () in
  (match R.run inst ~sources:(h.Apps.Harness.sources ~reps:1) ~sinks with
   | R.Deadline_exceeded p ->
     Alcotest.(check bool) "stopped by fuel" true (p.R.p_reason = `Max_steps)
   | o -> Alcotest.failf "expected Deadline_exceeded, got %a" R.pp_outcome o);
  R.reset inst;
  ignore (run_checked "after Max_steps + reset" h inst ~reps:2)

(* ------------------------------------------------------------------ *)
(* Declared purity                                                    *)
(* ------------------------------------------------------------------ *)

(* Each kernel's declared purity reaches the graph's instances
   unchanged: the running-sum kernel keeps state yet is pure (its state
   is per instance), and an undeclared kernel stays [Unknown]. *)
let test_declared_purity () =
  let purities g =
    Array.to_list
      (Array.map
         (fun (inst : Cgsim.Serialized.kernel_inst) ->
           Cgsim.Kernel.purity_to_string inst.Cgsim.Serialized.kernel.Cgsim.Kernel.purity)
         g.Cgsim.Serialized.kernels)
  in
  Alcotest.(check (list string)) "scale chain" [ "pure"; "pure" ] (purities (pure_graph ()));
  Alcotest.(check (list string)) "prefix sum" [ "pure" ] (purities (prefix_sum_graph ()));
  Alcotest.(check (list string)) "undeclared" [ "unknown" ] (purities (opaque_graph ()));
  (* Every evaluation app is pool-safe, so CG-W401 stays silent on it. *)
  List.iter
    (fun (h : Apps.Harness.t) ->
      let g = h.Apps.Harness.graph () in
      Alcotest.(check bool) (h.Apps.Harness.name ^ " all pure") true
        (List.for_all (String.equal "pure") (purities g)))
    Apps.Harness.all

(* ------------------------------------------------------------------ *)
(* Pool warm cache                                                    *)
(* ------------------------------------------------------------------ *)

let n_requests = 8
let req_len = 8

let request_input r = Array.init req_len (fun i -> float_of_int ((r * 100) + i))

let pool_io bufs r =
  let sink, contents = Cgsim.Io.f32_buffer () in
  bufs.(r) <- contents;
  [ Cgsim.Io.of_f32_array (request_input r) ], [ sink ]

let check_scaled_outputs msg (stats : Cgsim.Pool.stats) bufs =
  Array.iteri
    (fun r (res : Cgsim.Pool.request_result) ->
      (match res.Cgsim.Pool.outcome with
       | R.Completed _ -> ()
       | o -> Alcotest.failf "%s: request %d: %a" msg r R.pp_outcome o);
      let expected = Array.map (fun v -> 4.0 *. v) (request_input r) in
      Alcotest.(check (array (float 1e-6)))
        (Printf.sprintf "%s: request %d output" msg r)
        expected (bufs.(r) ()))
    stats.Cgsim.Pool.results

(* Warm pool reuse across requests: after the first build per domain,
   requests are served from reset instances. *)
let test_warm_reuse_counts () =
  let g = pure_graph () in
  let bufs = Array.make n_requests (fun () -> [||]) in
  let stats = Cgsim.Pool.run ~domains:1 ~requests:n_requests ~io:(pool_io bufs) g in
  check_scaled_outputs "warm" stats bufs;
  Alcotest.(check bool) "at most one cold build" true (stats.Cgsim.Pool.cold_builds <= 1);
  Alcotest.(check int) "the rest are warm hits" (n_requests - stats.Cgsim.Pool.cold_builds)
    stats.Cgsim.Pool.warm_hits

(* A warm cache compiles under its pool's config: the same graph
   compiled without capacity synthesis must not serve a later request
   that asks for it.  The under-buffered cycle deadlocks at its declared
   depth and completes only at the synthesized one, so a shared compile
   shows up as a cancelled fiber. *)
let test_cache_keys_auto_capacity () =
  let case = Workloads.Sdf_gen.generate ~defect:Workloads.Sdf_gen.Under_capacity ~seed:11 () in
  let base = Cgsim.Run_config.(default |> with_lint `Off |> with_max_steps 10_000_000) in
  let auto = Cgsim.Run_config.with_auto_capacity true base in
  let serve config =
    let out = ref (fun () -> [||]) in
    let io _ =
      let sink, contents = Cgsim.Io.f32_buffer () in
      out := contents;
      [ Cgsim.Io.of_f32_array case.Workloads.Sdf_gen.c_input ], [ sink ]
    in
    let stats = Cgsim.Pool.run ~config ~domains:1 ~requests:1 ~io case.Workloads.Sdf_gen.c_graph in
    match stats.Cgsim.Pool.results.(0).Cgsim.Pool.outcome with
    | R.Completed st -> st.Cgsim.Sched.cancelled, Array.length (!out ())
    | o -> Alcotest.failf "expected Completed, got %a" R.pp_outcome o
  in
  let expected = case.Workloads.Sdf_gen.c_expected_out in
  Alcotest.(check (pair int int)) "auto_capacity on a fresh cache" (0, expected) (serve auto);
  let cancelled, _ = serve base in
  Alcotest.(check bool) "declared depth deadlocks" true (cancelled > 0);
  Alcotest.(check (pair int int)) "auto_capacity after a default-config request" (0, expected)
    (serve auto)

let () =
  Alcotest.run "warm"
    [
      ( "reset-equivalence",
        [
          Alcotest.test_case "reset matches fresh (all apps, fast paths)" `Quick
            test_reset_matches_fresh_all_apps;
          Alcotest.test_case "many reset cycles" `Quick test_reset_many_cycles;
          Alcotest.test_case "second run without reset rejected" `Quick
            test_reset_during_run_rejected;
          Alcotest.test_case "warm run allocation ceilings" `Quick test_warm_run_allocation;
        ] );
      ( "reset-faults",
        [
          Alcotest.test_case "fresh vs warm under seeded faults" `Quick
            test_reset_equivalence_under_faults;
          Alcotest.test_case "reset after Kernel_failed" `Quick test_reset_after_kernel_failed;
          Alcotest.test_case "reset after Max_steps" `Quick test_reset_after_max_steps;
        ] );
      ( "purity",
        [ Alcotest.test_case "declared purity reaches the registry" `Quick test_declared_purity ] );
      ( "warm-cache",
        [
          Alcotest.test_case "warm reuse counts" `Quick test_warm_reuse_counts;
          Alcotest.test_case "auto_capacity keys the cache" `Quick test_cache_keys_auto_capacity;
        ] );
    ]
