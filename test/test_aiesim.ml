(* Tests for the cycle-approximate AIE simulator: the VLIW issue model,
   the trace-to-segment compiler, the array/placement model, deployment
   descriptors, and end-to-end timing behaviours. *)

(* ------------------------------------------------------------------ *)
(* Array model                                                        *)
(* ------------------------------------------------------------------ *)

let test_array_auto_placement () =
  let a = Aie.Array_model.create ~cols:4 ~rows:2 () in
  let c1 = Aie.Array_model.place a ~name:"k1" in
  let c2 = Aie.Array_model.place a ~name:"k2" in
  Alcotest.(check bool) "first tile col 0 row 1" true
    (Aie.Array_model.equal_coord c1 { Aie.Array_model.col = 0; row = 1 });
  Alcotest.(check bool) "second tile col 0 row 2" true
    (Aie.Array_model.equal_coord c2 { Aie.Array_model.col = 0; row = 2 });
  Alcotest.(check bool) "lookup" true
    (match Aie.Array_model.placement a ~name:"k1" with
     | Some c -> Aie.Array_model.equal_coord c c1
     | None -> false)

let test_array_full () =
  let a = Aie.Array_model.create ~cols:1 ~rows:1 () in
  ignore (Aie.Array_model.place a ~name:"only");
  match Aie.Array_model.place a ~name:"overflow" with
  | exception Aie.Array_model.Placement_error _ -> ()
  | _ -> Alcotest.fail "full array must reject placements"

let test_array_pinning_conflicts () =
  let a = Aie.Array_model.create ~cols:4 ~rows:2 () in
  let c = { Aie.Array_model.col = 2; row = 1 } in
  ignore (Aie.Array_model.place_at a ~name:"pinned" c);
  (match Aie.Array_model.place_at a ~name:"other" c with
   | exception Aie.Array_model.Placement_error _ -> ()
   | _ -> Alcotest.fail "occupied tile must be rejected");
  match Aie.Array_model.place_at a ~name:"bad" { Aie.Array_model.col = 9; row = 1 } with
  | exception Aie.Array_model.Placement_error _ -> ()
  | _ -> Alcotest.fail "out-of-grid tile must be rejected"

let test_array_hops () =
  let neighbour =
    Aie.Array_model.hops { Aie.Array_model.col = 0; row = 1 } { Aie.Array_model.col = 0; row = 2 }
  in
  Alcotest.(check int) "neighbours share memory: 0 hops" 0 neighbour;
  let far =
    Aie.Array_model.hops { Aie.Array_model.col = 0; row = 1 } { Aie.Array_model.col = 3; row = 2 }
  in
  Alcotest.(check int) "manhattan distance" 4 far;
  Alcotest.(check int) "latency scales" (4 * Aie.Cfg.stream_hop_latency_cycles)
    (Aie.Array_model.route_latency_cycles far)

(* ------------------------------------------------------------------ *)
(* VLIW issue model                                                   *)
(* ------------------------------------------------------------------ *)

let usage ~vec ~scl ~ld ~st ~srd ~swr = { Aiesim.Vliw.vec; scl; ld; st; srd; swr }

let test_vliw_packing () =
  let u = usage ~vec:4 ~scl:2 ~ld:0 ~st:0 ~srd:0 ~swr:0 in
  Alcotest.(check int) "vector-bound" 4 (Aiesim.Vliw.cycles u);
  let u = usage ~vec:1 ~scl:0 ~ld:8 ~st:0 ~srd:0 ~swr:0 in
  Alcotest.(check int) "two load units" 4 (Aiesim.Vliw.cycles u);
  let u = usage ~vec:0 ~scl:0 ~ld:0 ~st:0 ~srd:0 ~swr:0 in
  Alcotest.(check int) "empty region" 0 (Aiesim.Vliw.cycles u)

let test_vliw_loop () =
  let u = usage ~vec:3 ~scl:1 ~ld:0 ~st:0 ~srd:0 ~swr:0 in
  Alcotest.(check int) "II * trip + fill" ((3 * 10) + Aie.Cfg.pipeline_depth)
    (Aiesim.Vliw.loop_cycles u ~trip:10);
  Alcotest.(check int) "zero-trip loop free" 0 (Aiesim.Vliw.loop_cycles u ~trip:0)

let test_vliw_load_beats () =
  let u = Aiesim.Vliw.empty () in
  Aiesim.Vliw.add_load_bytes u 64;
  (* 64 B = 2 beats of 32 B across 2 load units = 1 cycle *)
  Alcotest.(check int) "64B load" 1 (Aiesim.Vliw.cycles u)

(* ------------------------------------------------------------------ *)
(* Segment compilation                                                *)
(* ------------------------------------------------------------------ *)

(* Ports "0".."3" on channels 0..3. *)
let env = Aiesim.Segments.port_env (Array.init 4 (fun i -> string_of_int i, i))

let pp_segs segs =
  String.concat "; " (Array.to_list (Array.map (Format.asprintf "%a" Aiesim.Segments.pp_seg) segs))

let test_segments_straightline () =
  let events =
    [
      Aie.Trace.Iteration_mark;
      Aie.Trace.Vop { name = "fpmac"; slots = 2 };
      Aie.Trace.Vop { name = "fpmac"; slots = 2 };
      Aie.Trace.Port_write
        { port = "3"; bytes = 4; transport = Cgsim.Settings.Stream; thunked = false };
    ]
  in
  match Aiesim.Segments.compile ~env events with
  | [| Aiesim.Segments.Compute inv; Mark; Compute 4; Wr { chan = 3; bytes = 4; core = 1 } |] ->
    Alcotest.(check int) "invocation overhead" Aie.Cfg.kernel_invocation_overhead_cycles inv
  | segs -> Alcotest.failf "unexpected segments: %s" (pp_segs segs)

let test_segments_thunk_cost () =
  let read =
    Aie.Trace.Port_read { port = "1"; bytes = 4; transport = Cgsim.Settings.Stream; thunked = true }
  in
  let plain = Aiesim.Segments.compile ~thunk:Aiesim.Deploy.default_thunk ~env [ read ] in
  (* The thunk's scalar overhead lands in a compute region before the
     stream access. *)
  match plain with
  | [| Aiesim.Segments.Compute c; Rd _ |] ->
    Alcotest.(check int) "thunk scalar cycles"
      Aiesim.Deploy.default_thunk.Aiesim.Deploy.scalar_ops_per_stream_access c
  | segs -> Alcotest.failf "unexpected segments: %s" (pp_segs segs)

let test_segments_window_coalescing () =
  (* Two full 8-byte windows read element-wise: one Win_in per window,
     element traffic coalesced into compute loads. *)
  let rd =
    Aie.Trace.Port_read { port = "2"; bytes = 4; transport = Cgsim.Settings.Window 8; thunked = false }
  in
  let events = [ rd; rd; rd; rd ] in
  let segs = Aiesim.Segments.compile ~env events in
  let win_ins =
    Array.fold_left (fun acc -> function Aiesim.Segments.Win_in _ -> acc + 1 | _ -> acc) 0 segs
  in
  Alcotest.(check int) "two window acquires" 2 win_ins

let test_segments_pipelined_loop () =
  let events =
    [
      Aie.Trace.Loop_enter { trip = 64 };
      Aie.Trace.Vop { name = "mac"; slots = 2 };
      Aie.Trace.Port_read { port = "0"; bytes = 4; transport = Cgsim.Settings.Stream; thunked = false };
      Aie.Trace.Loop_exit;
    ]
  in
  let segs = Aiesim.Segments.compile ~env events in
  let total_rd_bytes =
    Array.fold_left
      (fun acc -> function Aiesim.Segments.Rd { bytes; _ } -> acc + bytes | _ -> acc)
      0 segs
  in
  Alcotest.(check int) "aggregated traffic preserved" (64 * 4) total_rd_bytes;
  let compute =
    Array.fold_left
      (fun acc -> function Aiesim.Segments.Compute c -> acc + c | _ -> acc)
      0 segs
  in
  (* II = max(vec 2, srd 1) = 2; total = 2*64 + pipeline fill *)
  Alcotest.(check int) "loop cycles" ((2 * 64) + Aie.Cfg.pipeline_depth) compute

let test_segments_aborted_loop_not_scaled () =
  let events =
    [
      Aie.Trace.Loop_enter { trip = 64 };
      Aie.Trace.Port_read { port = "0"; bytes = 4; transport = Cgsim.Settings.Stream; thunked = false };
      Aie.Trace.Loop_abort;
    ]
  in
  let segs = Aiesim.Segments.compile ~env events in
  let total_rd_bytes =
    Array.fold_left
      (fun acc -> function Aiesim.Segments.Rd { bytes; _ } -> acc + bytes | _ -> acc)
      0 segs
  in
  Alcotest.(check int) "only the partial iteration's traffic" 4 total_rd_bytes

let test_segments_unbalanced_loop () =
  match Aiesim.Segments.compile ~env [ Aie.Trace.Loop_exit ] with
  | exception Aiesim.Segments.Compile_error _ -> ()
  | _ -> Alcotest.fail "stray Loop_exit must be rejected"

(* ------------------------------------------------------------------ *)
(* Deploy                                                             *)
(* ------------------------------------------------------------------ *)

let test_deploy_places_all_kernels () =
  let d = Aiesim.Deploy.baseline (Apps.Farrow.graph ()) in
  ignore (Aiesim.Deploy.coord_of d "farrow_stage1_0");
  ignore (Aiesim.Deploy.coord_of d "farrow_stage2_0")

let test_deploy_rejects_foreign_realms () =
  let host =
    Cgsim.Kernel.define ~realm:Cgsim.Kernel.Noextract ~name:"aiesim_host_kernel"
      [ Cgsim.Kernel.in_port "in" Cgsim.Dtype.F32; Cgsim.Kernel.out_port "out" Cgsim.Dtype.F32 ]
      (fun b ->
        let i = Cgsim.Kernel.rd b 0 and o = Cgsim.Kernel.wr b 0 in
        while true do
          Cgsim.Port.put o (Cgsim.Port.get i)
        done)
  in
  let g =
    Cgsim.Builder.make ~name:"hosty" ~inputs:[ "x", Cgsim.Dtype.F32 ] (fun b conns ->
        let out = Cgsim.Builder.net b Cgsim.Dtype.F32 in
        ignore (Cgsim.Builder.add_kernel b host [ List.hd conns; out ]);
        [ out ])
  in
  match Aiesim.Deploy.baseline g with
  | exception Aiesim.Deploy.Deploy_error _ -> ()
  | _ -> Alcotest.fail "non-AIE kernels cannot deploy to the array"

(* ------------------------------------------------------------------ *)
(* End-to-end timing behaviour                                        *)
(* ------------------------------------------------------------------ *)

let run_app (h : Apps.Harness.t) deploy reps =
  let sinks, contents = h.Apps.Harness.make_sinks () in
  let report = Aiesim.Sim.run deploy ~sources:(h.Apps.Harness.sources ~reps) ~sinks in
  report, contents ()

let test_sim_outputs_match_cgsim () =
  List.iter
    (fun (h : Apps.Harness.t) ->
      let reps = 2 in
      let _, aiesim_out = run_app h (Aiesim.Deploy.baseline (h.Apps.Harness.graph ())) reps in
      let sinks, contents = h.Apps.Harness.make_sinks () in
      let _ =
        Cgsim.Runtime.execute_exn (h.Apps.Harness.graph ())
          ~sources:(h.Apps.Harness.sources ~reps) ~sinks
      in
      let cgsim_out = contents () in
      if not (List.for_all2 Cgsim.Value.equal aiesim_out cgsim_out) then
        Alcotest.failf "%s: aiesim functional outputs differ from cgsim" h.Apps.Harness.name)
    Apps.Harness.all

let test_sim_thunk_never_faster () =
  List.iter
    (fun (h : Apps.Harness.t) ->
      let base, _ = run_app h (Aiesim.Deploy.baseline (h.Apps.Harness.graph ())) 4 in
      let extr, _ = run_app h (Aiesim.Deploy.extracted (h.Apps.Harness.graph ())) 4 in
      if extr.Aiesim.Sim.ns_per_block +. 1e-9 < base.Aiesim.Sim.ns_per_block then
        Alcotest.failf "%s: extracted deploy is faster than hand-written (%.1f < %.1f)"
          h.Apps.Harness.name extr.Aiesim.Sim.ns_per_block base.Aiesim.Sim.ns_per_block)
    Apps.Harness.all

let test_sim_window_kernel_parity () =
  (* The IIR uses window I/O exclusively: the thunk's per-window constant
     must cost (almost) nothing relative to the block time. *)
  let h = Apps.Harness.iir in
  let base, _ = run_app h (Aiesim.Deploy.baseline (h.Apps.Harness.graph ())) 4 in
  let extr, _ = run_app h (Aiesim.Deploy.extracted (h.Apps.Harness.graph ())) 4 in
  let rel = Aiesim.Sim.relative_throughput_percent ~baseline:base ~extracted:extr in
  Alcotest.(check bool) (Printf.sprintf "iir parity (got %.2f%%)" rel) true (rel > 98.0)

let test_sim_stream_kernels_pay () =
  List.iter
    (fun name ->
      let h = Option.get (Apps.Harness.find name) in
      let base, _ = run_app h (Aiesim.Deploy.baseline (h.Apps.Harness.graph ())) 4 in
      let extr, _ = run_app h (Aiesim.Deploy.extracted (h.Apps.Harness.graph ())) 4 in
      let rel = Aiesim.Sim.relative_throughput_percent ~baseline:base ~extracted:extr in
      Alcotest.(check bool)
        (Printf.sprintf "%s: 60%% < rel (%.2f%%) < 97%%" name rel)
        true
        (rel > 60.0 && rel < 97.0))
    [ "bitonic"; "farrow"; "bilinear" ]

let test_sim_blocks_counted () =
  let h = Apps.Harness.bitonic in
  let report, _ = run_app h (Aiesim.Deploy.baseline (h.Apps.Harness.graph ())) 10 in
  Alcotest.(check int) "ten iterations observed" 10 report.Aiesim.Sim.blocks

let gmio_copy_kernel =
  Cgsim.Kernel.define ~realm:Cgsim.Kernel.Aie ~name:"gmio_copy_kernel"
    [
      Cgsim.Kernel.in_port "in" Cgsim.Dtype.I32 ~settings:Cgsim.Settings.gmio;
      Cgsim.Kernel.out_port "out" Cgsim.Dtype.I32 ~settings:Cgsim.Settings.gmio;
    ]
    (fun b ->
      let i = Cgsim.Kernel.rd b 0 and o = Cgsim.Kernel.wr b 0 in
      let tr = Aie.Trace.recorder b in
      while true do
        Aie.Trace.mark_iteration tr;
        Cgsim.Port.put_int o (Cgsim.Port.get_int i + 1)
      done)

let gmio_graph () =
  Cgsim.Builder.make ~name:"gmio_graph" ~inputs:[ "ddr_in", Cgsim.Dtype.I32 ] (fun b conns ->
      let out = Cgsim.Builder.net b Cgsim.Dtype.I32 in
      ignore (Cgsim.Builder.add_kernel b gmio_copy_kernel [ List.hd conns; out ]);
      [ out ])

let gmio_input = Array.init 64 (fun i -> i)

let run_gmio () =
  let sink, contents = Cgsim.Io.int_buffer () in
  let report =
    Aiesim.Sim.run
      (Aiesim.Deploy.baseline (gmio_graph ()))
      ~sources:[ Cgsim.Io.of_int_array Cgsim.Dtype.I32 gmio_input ]
      ~sinks:[ sink ]
  in
  report, contents ()

let test_sim_gmio_transport () =
  let report, output = run_gmio () in
  let input = gmio_input in
  Alcotest.(check (array int)) "functional" (Array.map (fun x -> x + 1) input) output;
  (* The kernel marks before its first (blocking) DDR read, so the
     access latency appears from the second iteration onward. *)
  let k = List.hd report.Aiesim.Sim.kernels in
  let second_mark =
    match k.Aiesim.Sim.marks with _ :: m :: _ -> m | _ -> Alcotest.fail "need two marks"
  in
  Alcotest.(check bool)
    (Printf.sprintf "gmio latency visible (%.0f cyc)" second_mark)
    true
    (second_mark >= float_of_int Aie.Cfg.gmio_latency_cycles)

let test_sim_more_reps_scale_linearly () =
  let h = Apps.Harness.bitonic in
  let r4, _ = run_app h (Aiesim.Deploy.baseline (h.Apps.Harness.graph ())) 4 in
  let r16, _ = run_app h (Aiesim.Deploy.baseline (h.Apps.Harness.graph ())) 16 in
  let ratio = r16.Aiesim.Sim.total_cycles /. r4.Aiesim.Sim.total_cycles in
  Alcotest.(check bool) (Printf.sprintf "4x reps => ~4x cycles (got %.2f)" ratio) true
    (ratio > 3.0 && ratio < 5.0)

(* The frozen benchmark pins each app's event count and simulated ns; a
   renamed or re-slotted event that kept both would slip past it.  This
   pins the captured sequence itself: every kernel's events, rendered
   with [Trace.pp_event] in graph order, digested per app and deploy at
   one rep.  Regenerate only for a deliberate change to the cost model. *)
let expected_trace_digests =
  [
    "bitonic/baseline", "6b4480e91fa35473b99b451524dd7ac5";
    "bitonic/extracted", "d02d0013152c239c8a8ed84d471d8a56";
    "farrow/baseline", "8d5feb9ec349e71f838296c9cd141294";
    "farrow/extracted", "969641ff8c2a2b86a2bf13fb1024bb4d";
    "iir/baseline", "e7b5904e9ee64f2e90a503fb07a78daf";
    "iir/extracted", "8236360817d2667aeabd1f6611b7e564";
    "bilinear/baseline", "c126a5067cd0c2157ad42bc982e9494e";
    "bilinear/extracted", "fb8bdbbca38d7145e599883d47bfcaf7";
  ]

let trace_digest deploy (h : Apps.Harness.t) =
  let sinks, _ = h.Apps.Harness.make_sinks () in
  let cap = Aiesim.Sim.capture deploy ~sources:(h.Apps.Harness.sources ~reps:1) ~sinks in
  let b = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer b in
  List.iter
    (fun (name, events) ->
      Format.fprintf ppf "== %s@." name;
      List.iter (fun ev -> Format.fprintf ppf "%a@." Aie.Trace.pp_event ev) events)
    cap.Aiesim.Sim.traces;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_sim_trace_digests () =
  let got =
    List.concat_map
      (fun (h : Apps.Harness.t) ->
        let g () = h.Apps.Harness.graph () in
        [
          h.Apps.Harness.name ^ "/baseline", trace_digest (Aiesim.Deploy.baseline (g ())) h;
          h.Apps.Harness.name ^ "/extracted", trace_digest (Aiesim.Deploy.extracted (g ())) h;
        ])
      Apps.Harness.all
  in
  Alcotest.(check (list (pair string string))) "captured event digests" expected_trace_digests got

(* The frozen benchmark pins only [ns_per_block] at Table 1's reps.
   This pins the whole replay timeline: every iteration mark of every
   kernel ([timeline_csv]), the makespan at full precision and each
   kernel's busy cycles, for every app and deploy at 8 reps plus the
   gmio graph.  Regenerate only for a deliberate change to the timing
   model. *)
let expected_timeline_digests =
  [
    "bitonic/baseline", "7fc9c2bfd1c2e6b91da6e974b5b136d8";
    "bitonic/extracted", "5633f3977a712d8bc20b78f1376009c9";
    "farrow/baseline", "2c433cdde4f1cfcb7f7c235dad3749ea";
    "farrow/extracted", "a4bb4a7e77bba945cbfa23a6844ada50";
    "iir/baseline", "b41f1a3607c804b1fc8945584c77a8b3";
    "iir/extracted", "8e7a18ffd073c1da522711703fbaccdd";
    "bilinear/baseline", "18f74e250a2ff44085c8d5341259ea40";
    "bilinear/extracted", "b9c865739055af00f56f2ac6bccb23d6";
    "gmio_graph/baseline", "75e102a5ae5648601b8511dbbfe06bf8";
  ]

let timeline_digest (r : Aiesim.Sim.report) =
  let b = Buffer.create 4096 in
  Printf.bprintf b "total_cycles %.17g\n" r.Aiesim.Sim.total_cycles;
  List.iter
    (fun (k : Aiesim.Sim.kernel_report) ->
      Printf.bprintf b "busy %s %d\n" k.Aiesim.Sim.k_name k.Aiesim.Sim.busy_cycles)
    r.Aiesim.Sim.kernels;
  Buffer.add_string b (Aiesim.Sim.timeline_csv r);
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_sim_timeline_digests () =
  let apps =
    List.concat_map
      (fun (h : Apps.Harness.t) ->
        let digest deploy = timeline_digest (fst (run_app h (deploy (h.Apps.Harness.graph ())) 8)) in
        [
          h.Apps.Harness.name ^ "/baseline", digest Aiesim.Deploy.baseline;
          h.Apps.Harness.name ^ "/extracted", digest Aiesim.Deploy.extracted;
        ])
      Apps.Harness.all
  in
  let got = apps @ [ "gmio_graph/baseline", timeline_digest (fst (run_gmio ())) ] in
  Alcotest.(check (list (pair string string))) "replay timeline digests" expected_timeline_digests got

(* A replay whose PLIO source delivers half the captured input leaves
   the kernel waiting for data that never comes: the engine must stop
   with a deadlock error that names the blocked kernel. *)
let test_replay_deadlock () =
  let h = Apps.Harness.bitonic in
  let deploy = Aiesim.Deploy.baseline (h.Apps.Harness.graph ()) in
  let sinks, _ = h.Apps.Harness.make_sinks () in
  let cap = Aiesim.Sim.capture deploy ~sources:(h.Apps.Harness.sources ~reps:4) ~sinks in
  let traffic = Array.copy cap.Aiesim.Sim.traffic in
  Array.iter
    (fun (n : Cgsim.Serialized.net) ->
      if n.Cgsim.Serialized.global_input <> None then
        traffic.(n.net_id) <- traffic.(n.net_id) / 2)
    deploy.Aiesim.Deploy.graph.Cgsim.Serialized.nets;
  match Aiesim.Sim.replay deploy { cap with Aiesim.Sim.traffic } with
  | exception Aiesim.Sim.Sim_error msg ->
    let contains k =
      let rec at i =
        i + String.length k <= String.length msg
        && (String.sub msg i (String.length k) = k || at (i + 1))
      in
      at 0
    in
    if not (contains "replay deadlock" && contains "bitonic_kernel_0") then
      Alcotest.failf "not a deadlock error naming the kernel: %s" msg
  | _ -> Alcotest.fail "a starved replay must raise Sim_error"

(* A capture records only its own kernels: pool fibers on other domains
   run the same kernel bodies under the same instance names while the
   main domain captures, and neither side may see the other's events.
   Every capture must reproduce the pinned digest and every pool request
   its golden output. *)
let test_capture_beside_pool () =
  let h = Apps.Harness.bitonic in
  let captures = 200 and per_capture = 2 and reps = 4 in
  let pinned = List.assoc "bitonic/baseline" expected_trace_digests in
  let pool_graph = h.Apps.Harness.graph () in
  let pool = Cgsim.Pool.create ~domains:2 () in
  let bad_digests = ref 0 in
  let handles = ref [] in
  Fun.protect
    ~finally:(fun () -> Cgsim.Pool.shutdown pool)
    (fun () ->
      for _ = 1 to captures do
        for _ = 1 to per_capture do
          let out = Atomic.make (fun () -> []) in
          let io _ =
            let sinks, contents = h.Apps.Harness.make_sinks () in
            Atomic.set out contents;
            h.Apps.Harness.sources ~reps, sinks
          in
          handles := (Cgsim.Pool.submit pool ~io pool_graph, out) :: !handles
        done;
        if trace_digest (Aiesim.Deploy.baseline (h.Apps.Harness.graph ())) h <> pinned then
          incr bad_digests
      done;
      List.iter
        (fun (handle, out) ->
          let res = Cgsim.Pool.await handle in
          match res.Cgsim.Pool.outcome with
          | Cgsim.Runtime.Completed _ -> (
            match h.Apps.Harness.check ~reps ((Atomic.get out) ()) with
            | Ok () -> ()
            | Error e -> Alcotest.failf "pool request %d: %s" res.Cgsim.Pool.req_id e)
          | o ->
            Alcotest.failf "pool request %d: %a" res.Cgsim.Pool.req_id Cgsim.Runtime.pp_outcome o)
        !handles);
  Alcotest.(check int)
    (Printf.sprintf "captures with a foreign digest (of %d)" captures)
    0 !bad_digests

let () =
  Alcotest.run "aiesim"
    [
      ( "array-model",
        [
          Alcotest.test_case "auto placement" `Quick test_array_auto_placement;
          Alcotest.test_case "full array" `Quick test_array_full;
          Alcotest.test_case "pinning conflicts" `Quick test_array_pinning_conflicts;
          Alcotest.test_case "hops & latency" `Quick test_array_hops;
        ] );
      ( "vliw",
        [
          Alcotest.test_case "packing" `Quick test_vliw_packing;
          Alcotest.test_case "pipelined loops" `Quick test_vliw_loop;
          Alcotest.test_case "load beats" `Quick test_vliw_load_beats;
        ] );
      ( "segments",
        [
          Alcotest.test_case "straight line" `Quick test_segments_straightline;
          Alcotest.test_case "thunk cost" `Quick test_segments_thunk_cost;
          Alcotest.test_case "window coalescing" `Quick test_segments_window_coalescing;
          Alcotest.test_case "pipelined loop" `Quick test_segments_pipelined_loop;
          Alcotest.test_case "aborted loop not scaled" `Quick test_segments_aborted_loop_not_scaled;
          Alcotest.test_case "unbalanced markers" `Quick test_segments_unbalanced_loop;
        ] );
      ( "deploy",
        [
          Alcotest.test_case "places kernels" `Quick test_deploy_places_all_kernels;
          Alcotest.test_case "rejects foreign realms" `Quick test_deploy_rejects_foreign_realms;
        ] );
      ( "sim",
        [
          Alcotest.test_case "outputs match cgsim" `Quick test_sim_outputs_match_cgsim;
          Alcotest.test_case "thunks never speed up" `Quick test_sim_thunk_never_faster;
          Alcotest.test_case "window kernel parity" `Quick test_sim_window_kernel_parity;
          Alcotest.test_case "stream kernels pay" `Quick test_sim_stream_kernels_pay;
          Alcotest.test_case "blocks counted" `Quick test_sim_blocks_counted;
          Alcotest.test_case "linear scaling" `Quick test_sim_more_reps_scale_linearly;
          Alcotest.test_case "gmio transport" `Quick test_sim_gmio_transport;
          Alcotest.test_case "captured event digests" `Quick test_sim_trace_digests;
          Alcotest.test_case "replay timeline digests" `Quick test_sim_timeline_digests;
          Alcotest.test_case "replay deadlock names the kernel" `Quick test_replay_deadlock;
          Alcotest.test_case "capture beside a serving pool" `Quick test_capture_beside_pool;
        ] );
    ]
