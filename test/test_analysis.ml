(* Tests for the static analyzer (lib/cgsim/analysis): rate/balance analysis,
   capacity-aware deadlock detection, fan-out/settings hazards, pool
   safety, the shared reporter, and the three surfaces that consume the
   findings (runtime pre-flight, cgx-style linting of CGC sources, and
   the extractor gate). *)

open Cgsim
module D = Cgsim.Diagnostic

let contains needle hay =
  let n = String.length needle in
  let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let cgc_dir =
  (* Tests run from the build sandbox; sources live in the repo. *)
  let rec find dir =
    let candidate = Filename.concat dir "examples/cgc" in
    if Sys.file_exists candidate then candidate
    else begin
      let parent = Filename.dirname dir in
      if String.equal parent dir then failwith "cannot locate examples/cgc"
      else find parent
    end
  in
  find (Sys.getcwd ())

let with_code code diags = List.filter (fun (d : D.t) -> d.D.code = code) diags

let has_code code diags = with_code code diags <> []

(* ------------------------------------------------------------------ *)
(* Kernel helpers                                                      *)
(* ------------------------------------------------------------------ *)

let idle_body _ = ()

(* A stream kernel with one input and one output, optionally rated. *)
let stream_kernel ?rates ?pure ?(body = idle_body) ?in_settings ?out_settings name =
  let k =
    Cgsim.Kernel.define ?rates ?pure ~realm:Cgsim.Kernel.Noextract ~name
      [
        Cgsim.Kernel.in_port "in" Cgsim.Dtype.F32 ?settings:in_settings;
        Cgsim.Kernel.out_port "out" Cgsim.Dtype.F32 ?settings:out_settings;
      ]
      body
  in
  k

let sink_kernel name =
  let k =
    Cgsim.Kernel.define ~realm:Cgsim.Kernel.Noextract ~name
      [ Cgsim.Kernel.in_port "in" Cgsim.Dtype.F32 ]
      idle_body
  in
  k

(* in + feedback-in -> out, and its partner in -> feedback-out + out;
   wired together they form the canonical two-kernel cycle. *)
let cycle_kernels ?rates ?fb_depth prefix =
  let fb_settings =
    match fb_depth with
    | Some d -> Some (Cgsim.Settings.with_depth d Cgsim.Settings.stream)
    | None -> None
  in
  let fwd =
    Cgsim.Kernel.define ~realm:Cgsim.Kernel.Noextract ~name:(prefix ^ "_fwd")
      ?rates:(Option.map (fun r -> [ "in", r; "fb", r; "out", r ]) rates)
      [
        Cgsim.Kernel.in_port "in" Cgsim.Dtype.F32;
        Cgsim.Kernel.in_port "fb" Cgsim.Dtype.F32 ?settings:fb_settings;
        Cgsim.Kernel.out_port "out" Cgsim.Dtype.F32;
      ]
      idle_body
  in
  let back =
    Cgsim.Kernel.define ~realm:Cgsim.Kernel.Noextract ~name:(prefix ^ "_back")
      ?rates:(Option.map (fun r -> [ "in", r; "fb", r; "out", r ]) rates)
      [
        Cgsim.Kernel.in_port "in" Cgsim.Dtype.F32;
        Cgsim.Kernel.out_port "fb" Cgsim.Dtype.F32;
        Cgsim.Kernel.out_port "out" Cgsim.Dtype.F32;
      ]
      idle_body
  in
  fwd, back

let cycle_graph ~name (fwd, back) =
  Cgsim.Builder.make ~name ~inputs:[ "in", Cgsim.Dtype.F32 ] (fun b conns ->
      let inp = List.hd conns in
      let fb = Cgsim.Builder.net b Cgsim.Dtype.F32 in
      let mid = Cgsim.Builder.net b Cgsim.Dtype.F32 in
      let out = Cgsim.Builder.net b Cgsim.Dtype.F32 in
      ignore (Cgsim.Builder.add_kernel b fwd [ inp; fb; mid ]);
      ignore (Cgsim.Builder.add_kernel b back [ mid; fb; out ]);
      [ out ])

(* ------------------------------------------------------------------ *)
(* Rates                                                               *)
(* ------------------------------------------------------------------ *)

let test_rates_balanced () =
  let a = stream_kernel ~rates:[ "in", 2; "out", 6 ] "ana_bal_a" in
  let b = stream_kernel ~rates:[ "in", 3; "out", 1 ] "ana_bal_b" in
  let g =
    Cgsim.Builder.make ~name:"ana_balanced" ~inputs:[ "in", Cgsim.Dtype.F32 ] (fun bld conns ->
        let mid = Cgsim.Builder.net bld Cgsim.Dtype.F32 in
        let out = Cgsim.Builder.net bld Cgsim.Dtype.F32 in
        ignore (Cgsim.Builder.add_kernel bld a [ List.hd conns; mid ]);
        ignore (Cgsim.Builder.add_kernel bld b [ mid; out ]);
        [ out ])
  in
  let diags = Rates.analyze g in
  Alcotest.(check bool) "no imbalance" false (has_code "CG-E101" diags);
  match with_code "CG-I102" diags with
  | [ d ] ->
    (* a fires 1x producing 6, b fires 2x consuming 3 each. *)
    Alcotest.(check bool) "vector 1:2" true
      (contains "ana_bal_a_0×1" d.D.message && contains "ana_bal_b_0×2" d.D.message)
  | ds -> Alcotest.failf "expected one repetition vector, got %d" (List.length ds)

let test_rates_unbalanced () =
  (* Two parallel nets with incompatible ratios between the same pair. *)
  let a =
    Cgsim.Kernel.define ~realm:Cgsim.Kernel.Noextract ~name:"ana_unb_a"
      ~rates:[ "in", 1; "o1", 2; "o2", 3 ]
      [
        Cgsim.Kernel.in_port "in" Cgsim.Dtype.F32;
        Cgsim.Kernel.out_port "o1" Cgsim.Dtype.F32;
        Cgsim.Kernel.out_port "o2" Cgsim.Dtype.F32;
      ]
      idle_body
  in
  let b =
    Cgsim.Kernel.define ~realm:Cgsim.Kernel.Noextract ~name:"ana_unb_b"
      ~rates:[ "i1", 2; "i2", 2; "out", 1 ]
      [
        Cgsim.Kernel.in_port "i1" Cgsim.Dtype.F32;
        Cgsim.Kernel.in_port "i2" Cgsim.Dtype.F32;
        Cgsim.Kernel.out_port "out" Cgsim.Dtype.F32;
      ]
      idle_body
  in
  let g =
    Cgsim.Builder.make ~name:"ana_unbalanced" ~inputs:[ "in", Cgsim.Dtype.F32 ]
      (fun bld conns ->
        let n1 = Cgsim.Builder.net bld Cgsim.Dtype.F32 in
        let n2 = Cgsim.Builder.net bld Cgsim.Dtype.F32 in
        let out = Cgsim.Builder.net bld Cgsim.Dtype.F32 in
        ignore (Cgsim.Builder.add_kernel bld a [ List.hd conns; n1; n2 ]);
        ignore (Cgsim.Builder.add_kernel bld b [ n1; n2; out ]);
        [ out ])
  in
  match with_code "CG-E101" (Rates.analyze g) with
  | [ d ] ->
    Alcotest.(check bool) "names both kernels" true
      (List.mem "ana_unb_a_0" d.D.kernels && List.mem "ana_unb_b_0" d.D.kernels);
    Alcotest.(check bool) "names a net" true (d.D.nets <> []);
    Alcotest.(check bool) "is error" true (d.D.severity = D.Error)
  | ds -> Alcotest.failf "expected exactly one CG-E101, got %d" (List.length ds)

let test_rates_zero_against_positive () =
  let a = stream_kernel ~rates:[ "in", 1; "out", 0 ] "ana_zero_a" in
  let b = stream_kernel ~rates:[ "in", 4; "out", 4 ] "ana_zero_b" in
  let g =
    Cgsim.Builder.make ~name:"ana_zero" ~inputs:[ "in", Cgsim.Dtype.F32 ] (fun bld conns ->
        let mid = Cgsim.Builder.net bld Cgsim.Dtype.F32 in
        let out = Cgsim.Builder.net bld Cgsim.Dtype.F32 in
        ignore (Cgsim.Builder.add_kernel bld a [ List.hd conns; mid ]);
        ignore (Cgsim.Builder.add_kernel bld b [ mid; out ]);
        [ out ])
  in
  Alcotest.(check bool) "zero against positive is an imbalance" true
    (has_code "CG-E101" (Rates.analyze g))

let test_rates_window_implied () =
  (* No declared rates: the shared 64-byte window implies 16 f32 beats
     per firing on both sides, so the component still solves. *)
  let w = Cgsim.Settings.window 64 in
  let a = stream_kernel ~out_settings:w "ana_win_a" in
  let b = stream_kernel ~in_settings:w "ana_win_b" in
  let g =
    Cgsim.Builder.make ~name:"ana_window" ~inputs:[ "in", Cgsim.Dtype.F32 ] (fun bld conns ->
        let mid = Cgsim.Builder.net bld Cgsim.Dtype.F32 in
        let out = Cgsim.Builder.net bld Cgsim.Dtype.F32 in
        ignore (Cgsim.Builder.add_kernel bld a [ List.hd conns; mid ]);
        ignore (Cgsim.Builder.add_kernel bld b [ mid; out ]);
        [ out ])
  in
  let diags = Rates.analyze g in
  Alcotest.(check bool) "no imbalance" false (has_code "CG-E101" diags);
  Alcotest.(check bool) "solved repetition vector" true (has_code "CG-I102" diags)

(* ------------------------------------------------------------------ *)
(* Deadlock                                                            *)
(* ------------------------------------------------------------------ *)

let test_deadlock_underbuffered () =
  let ks = cycle_kernels ~rates:64 ~fb_depth:4 "ana_dl_small" in
  let g = cycle_graph ~name:"ana_dl_under" ks in
  match with_code "CG-E201" (Deadlock.analyze g) with
  | [ d ] ->
    Alcotest.(check bool) "error severity" true (d.D.severity = D.Error);
    Alcotest.(check bool) "names both cycle kernels" true
      (List.mem "ana_dl_small_fwd_0" d.D.kernels && List.mem "ana_dl_small_back_0" d.D.kernels);
    Alcotest.(check bool) "names the feedback net" true (d.D.nets <> []);
    Alcotest.(check bool) "explains the bound" true
      (contains "buffers 4 elements" d.D.message && contains "at least 64" d.D.message)
  | ds -> Alcotest.failf "expected exactly one CG-E201, got %d" (List.length ds)

let test_deadlock_buffered_ok () =
  let ks = cycle_kernels ~rates:64 ~fb_depth:64 "ana_dl_big" in
  let g = cycle_graph ~name:"ana_dl_ok" ks in
  let diags = Deadlock.analyze g in
  Alcotest.(check bool) "no deadlock error" false (has_code "CG-E201" diags);
  Alcotest.(check bool) "cycle verified info" true (has_code "CG-I203" diags)

let test_deadlock_unknown_rates () =
  let ks = cycle_kernels "ana_dl_unk" in
  let g = cycle_graph ~name:"ana_dl_unknown" ks in
  let diags = Deadlock.analyze g in
  Alcotest.(check bool) "no hard error without rates" false (has_code "CG-E201" diags);
  Alcotest.(check bool) "conservative warning" true (has_code "CG-W202" diags)

let test_acyclic_no_findings () =
  let a = stream_kernel "ana_acyc_a" in
  let b = stream_kernel "ana_acyc_b" in
  let g =
    Cgsim.Builder.make ~name:"ana_acyclic" ~inputs:[ "in", Cgsim.Dtype.F32 ] (fun bld conns ->
        let mid = Cgsim.Builder.net bld Cgsim.Dtype.F32 in
        let out = Cgsim.Builder.net bld Cgsim.Dtype.F32 in
        ignore (Cgsim.Builder.add_kernel bld a [ List.hd conns; mid ]);
        ignore (Cgsim.Builder.add_kernel bld b [ mid; out ]);
        [ out ])
  in
  Alcotest.(check int) "no cycle findings" 0 (List.length (Deadlock.analyze g))

(* ------------------------------------------------------------------ *)
(* Capacity synthesis                                                  *)
(* ------------------------------------------------------------------ *)

let test_capacity_suggestion () =
  (* The canonical under-buffered cycle: depth 4 against a 64-wide
     firing.  The synthesizer must propose exactly the demand. *)
  let ks = cycle_kernels ~rates:64 ~fb_depth:4 "ana_cap_small" in
  let g = cycle_graph ~name:"ana_cap_under" ks in
  (match Capacity.suggest g with
   | [ (_, depth) ] -> Alcotest.(check int) "minimal depth" 64 depth
   | caps -> Alcotest.failf "expected one suggestion, got %d" (List.length caps));
  match with_code "CG-I204" (Capacity.analyze g) with
  | [ d ] ->
    Alcotest.(check bool) "info severity" true (d.D.severity = D.Info);
    Alcotest.(check bool) "names both cycle kernels" true
      (List.mem "ana_cap_small_fwd_0" d.D.kernels
       && List.mem "ana_cap_small_back_0" d.D.kernels);
    Alcotest.(check bool) "names the starved net" true (d.D.net_ids <> []);
    Alcotest.(check bool) "carries the per-net depth" true
      (contains "4 -> 64" d.D.message)
  | ds -> Alcotest.failf "expected exactly one CG-I204, got %d" (List.length ds)

let test_capacity_quiet_when_buffered () =
  let ks = cycle_kernels ~rates:64 ~fb_depth:64 "ana_cap_big" in
  let g = cycle_graph ~name:"ana_cap_ok" ks in
  Alcotest.(check (list (pair int int))) "no suggestions" [] (Capacity.suggest g);
  Alcotest.(check int) "no CG-I204" 0 (List.length (Capacity.analyze g))

let test_capacity_quiet_on_acyclic () =
  let a = stream_kernel "ana_cap_acyc_a" in
  let b = stream_kernel "ana_cap_acyc_b" in
  let g =
    Cgsim.Builder.make ~name:"ana_cap_acyclic" ~inputs:[ "in", Cgsim.Dtype.F32 ]
      (fun bld conns ->
        let mid = Cgsim.Builder.net bld Cgsim.Dtype.F32 in
        let out = Cgsim.Builder.net bld Cgsim.Dtype.F32 in
        ignore (Cgsim.Builder.add_kernel bld a [ List.hd conns; mid ]);
        ignore (Cgsim.Builder.add_kernel bld b [ mid; out ]);
        [ out ])
  in
  Alcotest.(check (list (pair int int))) "nothing to size" [] (Capacity.suggest g)

(* ------------------------------------------------------------------ *)
(* Throughput bound                                                    *)
(* ------------------------------------------------------------------ *)

let test_throughput_unit_bottleneck () =
  (* a fires 1x (producing 6), b fires 2x (consuming 3): at unit cost b
     is the structural bottleneck with 2 of 3 firings. *)
  let a = stream_kernel ~rates:[ "in", 2; "out", 6 ] "ana_thr_a" in
  let b = stream_kernel ~rates:[ "in", 3; "out", 1 ] "ana_thr_b" in
  let g =
    Cgsim.Builder.make ~name:"ana_thr" ~inputs:[ "in", Cgsim.Dtype.F32 ] (fun bld conns ->
        let mid = Cgsim.Builder.net bld Cgsim.Dtype.F32 in
        let out = Cgsim.Builder.net bld Cgsim.Dtype.F32 in
        ignore (Cgsim.Builder.add_kernel bld a [ List.hd conns; mid ]);
        ignore (Cgsim.Builder.add_kernel bld b [ mid; out ]);
        [ out ])
  in
  (match Throughput.bound g with
   | Some bd ->
     Alcotest.(check string) "bottleneck" "ana_thr_b_0" bd.Throughput.b_bottleneck;
     Alcotest.(check (float 1e-9)) "total firings" 3.0 bd.Throughput.b_total;
     Alcotest.(check bool) "unit cost is not a request ceiling" true
       (Throughput.sequential_per_sec bd = None)
   | None -> Alcotest.fail "expected a bound for a non-empty graph");
  match with_code "CG-I105" (Throughput.analyze g) with
  | [ d ] ->
    Alcotest.(check bool) "info severity" true (d.D.severity = D.Info);
    Alcotest.(check bool) "names the bottleneck" true (List.mem "ana_thr_b_0" d.D.kernels)
  | ds -> Alcotest.failf "expected exactly one CG-I105, got %d" (List.length ds)

let test_throughput_measured_ceiling () =
  let a = stream_kernel ~rates:[ "in", 1; "out", 1 ] "ana_thrm_a" in
  let b = stream_kernel ~rates:[ "in", 1; "out", 1 ] "ana_thrm_b" in
  let g =
    Cgsim.Builder.make ~name:"ana_thrm" ~inputs:[ "in", Cgsim.Dtype.F32 ] (fun bld conns ->
        let mid = Cgsim.Builder.net bld Cgsim.Dtype.F32 in
        let out = Cgsim.Builder.net bld Cgsim.Dtype.F32 in
        ignore (Cgsim.Builder.add_kernel bld a [ List.hd conns; mid ]);
        ignore (Cgsim.Builder.add_kernel bld b [ mid; out ]);
        [ out ])
  in
  (* 600ns + 400ns per request -> a 1e9/1000 = 1M req/s sequential
     ceiling, bottleneck a; pipelined the 600ns stage dominates. *)
  let cost = function
    | "ana_thrm_a_0" -> Some 600.0
    | "ana_thrm_b_0" -> Some 400.0
    | _ -> None
  in
  match Throughput.bound ~cost g with
  | Some bd ->
    Alcotest.(check string) "bottleneck" "ana_thrm_a_0" bd.Throughput.b_bottleneck;
    (match Throughput.sequential_per_sec bd with
     | Some rps -> Alcotest.(check (float 1.0)) "sequential ceiling" 1e6 rps
     | None -> Alcotest.fail "measured bound must give a sequential ceiling");
    (match Throughput.pipelined_per_sec bd with
     | Some rps ->
       Alcotest.(check (float 1.0)) "pipelined ceiling" (1e9 /. 600.0) rps
     | None -> Alcotest.fail "measured bound must give a pipelined ceiling")
  | None -> Alcotest.fail "expected a bound"

let test_throughput_cycle_is_one_stage () =
  (* Cycle kernels cannot overlap: pipelined critical weight is the
     cycle's sum, not the max member. *)
  let ks = cycle_kernels ~rates:8 ~fb_depth:8 "ana_thr_cyc" in
  let g = cycle_graph ~name:"ana_thr_cycle" ks in
  let cost = function
    | "ana_thr_cyc_fwd_0" -> Some 300.0
    | "ana_thr_cyc_back_0" -> Some 200.0
    | _ -> None
  in
  match Throughput.bound ~cost g with
  | Some bd -> Alcotest.(check (float 1e-9)) "critical = cycle sum" 500.0 bd.Throughput.b_critical
  | None -> Alcotest.fail "expected a bound"

(* ------------------------------------------------------------------ *)
(* Hazards                                                             *)
(* ------------------------------------------------------------------ *)

let fanout_graph ~suppress name =
  let src = stream_kernel (name ^ "_src") in
  let taps = List.init 4 (fun i -> sink_kernel (Printf.sprintf "%s_tap%d" name i)) in
  Cgsim.Builder.make ~name ~inputs:[ "in", Cgsim.Dtype.F32 ] (fun bld conns ->
      let mid = Cgsim.Builder.net bld Cgsim.Dtype.F32 in
      ignore (Cgsim.Builder.add_kernel bld src [ List.hd conns; mid ]);
      List.iter (fun t -> ignore (Cgsim.Builder.add_kernel bld t [ mid ])) taps;
      if suppress then
        Cgsim.Builder.attach_attributes bld mid
          [ Cgsim.Attr.s "lint.suppress" "CG-W301" ];
      (* The broadcast net is also the graph output: 4 kernel readers
         plus the sink fiber = 5 consumers. *)
      [ mid ])

let test_hazard_fanout () =
  let g = fanout_graph ~suppress:false "ana_fan" in
  match with_code "CG-W301" (Hazards.analyze g) with
  | [ d ] ->
    Alcotest.(check bool) "warning severity" true (d.D.severity = D.Warning);
    Alcotest.(check bool) "counts all consumers" true (contains "5 consumers" d.D.message)
  | ds -> Alcotest.failf "expected one CG-W301, got %d" (List.length ds)

let test_hazard_partial_beat () =
  (* 12-byte elements into 8-byte beats: neither divides the other. *)
  let dtype = Cgsim.Dtype.Vector (Cgsim.Dtype.F32, 3) in
  let k =
    Cgsim.Kernel.define ~realm:Cgsim.Kernel.Noextract ~name:"ana_beat_k"
      [
        Cgsim.Kernel.in_port "in" dtype
          ~settings:(Cgsim.Settings.with_beat 8 Cgsim.Settings.stream);
        Cgsim.Kernel.out_port "out" dtype;
      ]
      idle_body
  in
  let g =
    Cgsim.Builder.make ~name:"ana_beat" ~inputs:[ "in", dtype ] (fun bld conns ->
        let out = Cgsim.Builder.net bld dtype in
        ignore (Cgsim.Builder.add_kernel bld k [ List.hd conns; out ]);
        [ out ])
  in
  Alcotest.(check bool) "partial beat flagged" true (has_code "CG-W303" (Hazards.analyze g))

let test_suppression () =
  let g = fanout_graph ~suppress:true "ana_fansup" in
  let diags = Lint.run g in
  Alcotest.(check bool) "CG-W301 suppressed" false (has_code "CG-W301" diags)

(* ------------------------------------------------------------------ *)
(* Pool safety                                                         *)
(* ------------------------------------------------------------------ *)

let stateful_offset = ref 0.0

let stateful_kernel =
  lazy
    (stream_kernel ~pure:false "ana_stateful"
       ~body:(fun b ->
         let r = Cgsim.Kernel.rd b 0 and w = Cgsim.Kernel.wr b 0 in
         while true do
           (* Shared mutable state *outside* the body: carries across
              instantiations, the exact hazard CG-W401 is about. *)
           stateful_offset := !stateful_offset +. 1.0;
           Cgsim.Port.put_f32 w (Cgsim.Port.get_f32 r +. !stateful_offset)
         done))

let test_pool_safety_flags () =
  let k = Lazy.force stateful_kernel in
  let u = stream_kernel "ana_unknown_purity" in
  let g =
    Cgsim.Builder.make ~name:"ana_pool" ~inputs:[ "in", Cgsim.Dtype.F32 ] (fun bld conns ->
        let mid = Cgsim.Builder.net bld Cgsim.Dtype.F32 in
        let out = Cgsim.Builder.net bld Cgsim.Dtype.F32 in
        ignore (Cgsim.Builder.add_kernel bld k [ List.hd conns; mid ]);
        ignore (Cgsim.Builder.add_kernel bld u [ mid; out ]);
        [ out ])
  in
  let diags = Pool_safety.analyze g in
  (match with_code "CG-W401" diags with
   | [ d ] -> Alcotest.(check bool) "names the instance" true (List.mem "ana_stateful_0" d.D.kernels)
   | ds -> Alcotest.failf "expected one CG-W401, got %d" (List.length ds));
  match with_code "CG-I402" diags with
  | [ d ] -> Alcotest.(check bool) "lists the undeclared kernel" true
               (contains "ana_unknown_purity" d.D.message)
  | ds -> Alcotest.failf "expected one CG-I402, got %d" (List.length ds)

let test_stateful_spot_check () =
  (* Runtime-assisted confirmation that the declaration is truthful:
     back-to-back runs of the stateful kernel disagree on identical
     input, while a pure kernel reproduces. *)
  let k = Lazy.force stateful_kernel in
  let g =
    Cgsim.Builder.make ~name:"ana_spot" ~inputs:[ "in", Cgsim.Dtype.F32 ] (fun bld conns ->
        let out = Cgsim.Builder.net bld Cgsim.Dtype.F32 in
        ignore (Cgsim.Builder.add_kernel bld k [ List.hd conns; out ]);
        [ out ])
  in
  let run_once () =
    let sink, contents = Cgsim.Io.f32_buffer () in
    let _ =
      Cgsim.Runtime.execute_exn ~config:Cgsim.Run_config.(with_lint `Off default) g
        ~sources:[ Cgsim.Io.of_f32_array [| 1.0; 1.0 |] ]
        ~sinks:[ sink ]
    in
    contents ()
  in
  let first = run_once () in
  let second = run_once () in
  Alcotest.(check bool) "stateful runs interfere" false (first = second)

(* ------------------------------------------------------------------ *)
(* Surfaces: runtime pre-flight, validate shim, reporter, dot, CGC     *)
(* ------------------------------------------------------------------ *)

let test_runtime_refuses_at_error () =
  let executed = ref false in
  let fb_settings = Cgsim.Settings.with_depth 4 Cgsim.Settings.stream in
  let fwd =
    Cgsim.Kernel.define ~realm:Cgsim.Kernel.Noextract ~name:"ana_ref_fwd"
      ~rates:[ "in", 64; "fb", 64; "out", 64 ]
      [
        Cgsim.Kernel.in_port "in" Cgsim.Dtype.F32;
        Cgsim.Kernel.in_port "fb" Cgsim.Dtype.F32 ~settings:fb_settings;
        Cgsim.Kernel.out_port "out" Cgsim.Dtype.F32;
      ]
      (fun _ -> executed := true)
  in
  let back =
    Cgsim.Kernel.define ~realm:Cgsim.Kernel.Noextract ~name:"ana_ref_back"
      ~rates:[ "in", 64; "fb", 64; "out", 64 ]
      [
        Cgsim.Kernel.in_port "in" Cgsim.Dtype.F32;
        Cgsim.Kernel.out_port "fb" Cgsim.Dtype.F32;
        Cgsim.Kernel.out_port "out" Cgsim.Dtype.F32;
      ]
      (fun _ -> executed := true)
  in
  let g = cycle_graph ~name:"ana_refused" (fwd, back) in
  (match
     Cgsim.Runtime.execute_exn ~config:Cgsim.Run_config.(with_lint `Error default) g
       ~sources:[ Cgsim.Io.of_f32_array [| 1.0 |] ]
       ~sinks:[ Cgsim.Io.null () ]
   with
   | _ -> Alcotest.fail "expected the pre-flight to refuse the graph"
   | exception Cgsim.Runtime.Runtime_error msg ->
     Alcotest.(check bool) "mentions the lint" true (contains "CG-E201" msg));
  Alcotest.(check bool) "no kernel body executed" false !executed

let test_validate_shim_names () =
  let a = stream_kernel "ana_shim_a" in
  let good =
    Cgsim.Builder.make ~name:"ana_shim" ~inputs:[ "in", Cgsim.Dtype.F32 ] (fun bld conns ->
        let out = Cgsim.Builder.net bld Cgsim.Dtype.F32 in
        ignore (Cgsim.Builder.add_kernel bld a [ List.hd conns; out ]);
        [ out ])
  in
  (* Corrupt one net's dtype after the fact: the shim must name the
     kernel port, not print bare indices. *)
  let bad =
    {
      good with
      Cgsim.Serialized.nets =
        Array.map
          (fun (n : Cgsim.Serialized.net) ->
            if n.Cgsim.Serialized.net_id = 1 then { n with Cgsim.Serialized.dtype = Cgsim.Dtype.I16 }
            else n)
          good.Cgsim.Serialized.nets;
    }
  in
  Alcotest.(check bool) "structured code" true
    (has_code "CG-E002" (Cgsim.Serialized.validate_diags bad));
  match List.map Cgsim.Diagnostic.render (Cgsim.Serialized.validate_diags bad) with
  | [] -> Alcotest.fail "expected validation failure"
  | problems ->
    Alcotest.(check bool) "mentions the kernel instance" true
      (List.exists (contains "ana_shim_a_0") problems);
    Alcotest.(check bool) "no bare kernel indices" false
      (List.exists (contains "kernel#") problems)

let test_report_text_and_json () =
  let ks = cycle_kernels ~rates:8 ~fb_depth:2 "ana_rep" in
  let g = cycle_graph ~name:"ana_report" ks in
  let diags = Lint.run g in
  let text = Report.to_text diags in
  Alcotest.(check bool) "text carries the code" true (contains "CG-E201" text);
  Alcotest.(check bool) "text carries the summary" true (contains "1 error" text);
  let json = Obs.Json.to_string (Report.to_json ~graph:"ana_report" diags) in
  match Obs.Json.of_string json with
  | Error e -> Alcotest.failf "reporter emitted malformed JSON: %s" e
  | Ok doc ->
    Alcotest.(check (option string)) "schema" (Some "cgsim-lint/2")
      (Option.bind (Obs.Json.member "schema" doc) Obs.Json.to_str);
    Alcotest.(check bool) "suggested_capacities present" true
      (Obs.Json.member "suggested_capacities" doc <> None);
    Alcotest.(check bool) "predicted_bottleneck present" true
      (Obs.Json.member "predicted_bottleneck" doc <> None);
    let errors =
      match Option.bind (Obs.Json.member "counts" doc) (Obs.Json.member "error") with
      | Some j -> Obs.Json.to_float j
      | None -> None
    in
    Alcotest.(check (option (float 0.0))) "one error counted" (Some 1.0) errors

let test_dot_coloring () =
  let g = fanout_graph ~suppress:false "ana_dot" in
  let lint = Lint.run g in
  let dot = Extractor.Dot.of_graph ~lint g in
  Alcotest.(check bool) "warning edges colored" true (contains "color=orange" dot);
  let plain = Extractor.Dot.of_graph g in
  Alcotest.(check bool) "no coloring without lint" false (contains "color=orange" plain)

(* ------------------------------------------------------------------ *)
(* CGC end-to-end                                                      *)
(* ------------------------------------------------------------------ *)

let underbuffered_cgc =
  {|#include "cgsim.hpp"

COMPUTE_KERNEL(
    aie,
    cgc_loop_fwd,
    KernelWindowReadPort<float, 256> in,
    KernelWindowReadPort<float, 256, 4> fb,
    KernelWindowWritePort<float, 256> out
) {
    while (true) {
        for (int n = 0; n < 64; ++n) {
            float v = co_await in.get();
            float f = co_await fb.get();
            co_await out.put(v + f);
        }
    }
};

COMPUTE_KERNEL(
    aie,
    cgc_loop_back,
    KernelWindowReadPort<float, 256> in,
    KernelWindowWritePort<float, 256> fb,
    KernelWindowWritePort<float, 256> out
) {
    while (true) {
        for (int n = 0; n < 64; ++n) {
            float v = co_await in.get();
            co_await fb.put(v * 0.5f);
            co_await out.put(v);
        }
    }
};

[[extract_compute_graph]]
constexpr auto cgc_loopy = make_compute_graph_v<[](
    IoConnector<float> in
) {
    IoConnector<float> fb;
    IoConnector<float> mid;
    IoConnector<float> out;
    cgc_loop_fwd(in, fb, mid);
    cgc_loop_back(mid, fb, out);
    return std::make_tuple(out);
}>;
|}

let test_cgc_underbuffered_cycle () =
  let env = Cgc.Driver.analyze_string ~file:"underbuffered.cgc" underbuffered_cgc in
  match Cgc.Sema.graphs env with
  | [ g ] ->
    let serialized = Cgc.Consteval.eval_graph ~twins:[] env g in
    let diags = Lint.run serialized in
    Alcotest.(check int) "exit status 2" 2 (D.exit_status diags);
    (match with_code "CG-E201" diags with
     | [ d ] ->
       Alcotest.(check bool) "names cycle kernels" true
         (List.mem "cgc_loop_fwd_0" d.D.kernels && List.mem "cgc_loop_back_0" d.D.kernels);
       (match d.D.loc with
        | Some span ->
          Alcotest.(check string) "source file" "underbuffered.cgc" span.Cgsim.Srcspan.file;
          Alcotest.(check bool) "positive line" true (span.Cgsim.Srcspan.line > 0)
        | None -> Alcotest.fail "deadlock finding lost its source range")
     | ds -> Alcotest.failf "expected one CG-E201, got %d" (List.length ds))
  | gs -> Alcotest.failf "expected one graph, got %d" (List.length gs)

let test_extractor_refuses_error_graphs () =
  match Extractor.Project.extract_string ~file:"underbuffered.cgc" underbuffered_cgc with
  | _ -> Alcotest.fail "expected Extract_error"
  | exception Extractor.Project.Extract_error msg ->
    Alcotest.(check bool) "mentions the deadlock" true (contains "CG-E201" msg)

(* [mid] feeds four monitors and is also a graph output: five
   consumers, one more than the broadcast fan-out threshold. *)
let fanout_cgc =
  {|#include "cgsim.hpp"

COMPUTE_KERNEL(aie, cgc_fan_src, KernelReadPort<float> in, KernelWritePort<float> out) {
    while (true) { co_await out.put(co_await in.get()); }
};

COMPUTE_KERNEL(aie, cgc_fan_mon, KernelReadPort<float> in, KernelWritePort<float> out) {
    while (true) { co_await out.put(co_await in.get()); }
};

[[extract_compute_graph]]
constexpr auto cgc_fanout = make_compute_graph_v<[](
    IoConnector<float> in
) {
    IoConnector<float> mid;
    IoConnector<float> a0;
    IoConnector<float> a1;
    IoConnector<float> a2;
    IoConnector<float> a3;
    cgc_fan_src(in, mid);
    cgc_fan_mon(mid, a0);
    cgc_fan_mon(mid, a1);
    cgc_fan_mon(mid, a2);
    cgc_fan_mon(mid, a3);
    return std::make_tuple(mid, a0, a1, a2, a3);
}>;
|}

let test_extractor_embeds_warnings () =
  match Extractor.Project.extract_string ~file:"fanout.cgc" fanout_cgc with
  | [ p ] ->
    Alcotest.(check bool) "lint carries the fan-out warning" true
      (has_code "CG-W301" p.Extractor.Project.lint);
    let readme =
      List.find
        (fun f -> f.Extractor.Project.rel_path = "README.md")
        p.Extractor.Project.files
    in
    Alcotest.(check bool) "README embeds the warning" true
      (contains "CG-W301" readme.Extractor.Project.contents)
  | ps -> Alcotest.failf "expected one project, got %d" (List.length ps)

(* ------------------------------------------------------------------ *)
(* Shipped graphs stay clean                                           *)
(* ------------------------------------------------------------------ *)

let test_apps_lint_clean () =
  List.iter
    (fun (h : Apps.Harness.t) ->
      let diags = Lint.run (h.Apps.Harness.graph ()) in
      match D.max_severity diags with
      | Some D.Error ->
        Alcotest.failf "app %s has lint errors:\n%s" h.Apps.Harness.name (Report.to_text diags)
      | _ -> ())
    Apps.Harness.all

let test_apps_have_repetition_vectors () =
  (* The apps declare rates now; the solver should find every graph's
     steady state (all four are rate-consistent pipelines). *)
  List.iter
    (fun (h : Apps.Harness.t) ->
      let diags = Lint.run (h.Apps.Harness.graph ()) in
      Alcotest.(check bool)
        (h.Apps.Harness.name ^ " has no imbalance")
        false (has_code "CG-E101" diags))
    Apps.Harness.all

let test_examples_lint_clean () =
  Sys.readdir cgc_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".cgc")
  |> List.iter (fun f ->
         let path = Filename.concat cgc_dir f in
         let env = Cgc.Driver.analyze_file path in
         List.iter
           (fun (g : Cgc.Ast.graph) ->
             let diags = Lint.run (Cgc.Consteval.eval_graph ~twins:Apps.Harness.twins env g) in
             match D.max_severity diags with
             | Some D.Error ->
               Alcotest.failf "%s graph %s has lint errors:\n%s" f g.Cgc.Ast.g_name
                 (Report.to_text diags)
             | _ -> ())
           (Cgc.Sema.graphs env))

(* ------------------------------------------------------------------ *)
(* Srcspan plumbing                                                    *)
(* ------------------------------------------------------------------ *)

(* The graph dump prints every kernel's and net's span whole. *)
let test_graph_text_src_lines () =
  let env = Cgc.Driver.analyze_string ~file:"fanout.cgc" fanout_cgc in
  match Cgc.Sema.graphs env with
  | [ g ] ->
    let serialized = Cgc.Consteval.eval_graph ~twins:[] env g in
    let text = Cgsim.Graph_text.to_string serialized in
    let check what = function
      | Some span ->
        let line = "  src " ^ Cgsim.Srcspan.to_compact span ^ "\n" in
        Alcotest.(check bool) (what ^ " src line") true (contains line text)
      | None -> Alcotest.failf "%s has no span" what
    in
    Array.iteri
      (fun i (ki : Cgsim.Serialized.kernel_inst) ->
        check (Printf.sprintf "kernel %d" i) ki.Cgsim.Serialized.src)
      serialized.Cgsim.Serialized.kernels;
    Array.iteri
      (fun i (n : Cgsim.Serialized.net) -> check (Printf.sprintf "net %d" i) n.Cgsim.Serialized.src)
      serialized.Cgsim.Serialized.nets
  | gs -> Alcotest.failf "expected one graph, got %d" (List.length gs)

let () =
  Alcotest.run "analysis"
    [
      ( "rates",
        [
          Alcotest.test_case "balanced pipeline" `Quick test_rates_balanced;
          Alcotest.test_case "unbalanced net" `Quick test_rates_unbalanced;
          Alcotest.test_case "zero against positive" `Quick test_rates_zero_against_positive;
          Alcotest.test_case "window-implied rates" `Quick test_rates_window_implied;
        ] );
      ( "deadlock",
        [
          Alcotest.test_case "under-buffered cycle" `Quick test_deadlock_underbuffered;
          Alcotest.test_case "buffered cycle passes" `Quick test_deadlock_buffered_ok;
          Alcotest.test_case "unknown rates warn" `Quick test_deadlock_unknown_rates;
          Alcotest.test_case "acyclic is silent" `Quick test_acyclic_no_findings;
        ] );
      ( "capacity",
        [
          Alcotest.test_case "CG-I204 on under-buffered cycle" `Quick test_capacity_suggestion;
          Alcotest.test_case "quiet when buffered" `Quick test_capacity_quiet_when_buffered;
          Alcotest.test_case "quiet on acyclic" `Quick test_capacity_quiet_on_acyclic;
        ] );
      ( "throughput",
        [
          Alcotest.test_case "CG-I105 unit bottleneck" `Quick test_throughput_unit_bottleneck;
          Alcotest.test_case "measured ceiling" `Quick test_throughput_measured_ceiling;
          Alcotest.test_case "cycle is one stage" `Quick test_throughput_cycle_is_one_stage;
        ] );
      ( "hazards",
        [
          Alcotest.test_case "broadcast fan-out" `Quick test_hazard_fanout;
          Alcotest.test_case "partial beat" `Quick test_hazard_partial_beat;
          Alcotest.test_case "suppression attr" `Quick test_suppression;
        ] );
      ( "pool-safety",
        [
          Alcotest.test_case "stateful flagged" `Quick test_pool_safety_flags;
          Alcotest.test_case "stateful spot check" `Quick test_stateful_spot_check;
        ] );
      ( "surfaces",
        [
          Alcotest.test_case "runtime refusal" `Quick test_runtime_refuses_at_error;
          Alcotest.test_case "validate shim naming" `Quick test_validate_shim_names;
          Alcotest.test_case "reporter text+json" `Quick test_report_text_and_json;
          Alcotest.test_case "dot coloring" `Quick test_dot_coloring;
        ] );
      ( "cgc",
        [
          Alcotest.test_case "under-buffered CGC cycle" `Quick test_cgc_underbuffered_cycle;
          Alcotest.test_case "extractor refuses errors" `Quick
            test_extractor_refuses_error_graphs;
          Alcotest.test_case "extractor embeds warnings" `Quick test_extractor_embeds_warnings;
        ] );
      ( "clean-graphs",
        [
          Alcotest.test_case "apps lint clean" `Quick test_apps_lint_clean;
          Alcotest.test_case "apps balanced" `Quick test_apps_have_repetition_vectors;
          Alcotest.test_case "examples lint clean" `Quick test_examples_lint_clean;
        ] );
      ( "srcspan",
        [
          Alcotest.test_case "graph-text src lines" `Quick test_graph_text_src_lines;
        ] );
    ]
