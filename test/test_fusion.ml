(* Operator-fusion tests: chain discovery on the serialized graph, the
   CG-I103 lint surface, the fuse switch at compile, fused==unfused
   output equivalence — on the four evaluation apps with fusion on and
   off and on randomized rate-matched SPSC chains. *)

module R = Cgsim.Runtime
module F = Cgsim.Fusion
module D = Cgsim.Diagnostic

(* ------------------------------------------------------------------ *)
(* Fixtures: rate-matched scale kernels, memoized by (rate, factor)    *)
(* ------------------------------------------------------------------ *)

let kernel_cache : (int * int, Cgsim.Kernel.t) Hashtbl.t = Hashtbl.create 16

(* Multiply each element of a [rate]-wide window by [factor].  Kernels
   are interned per (rate, factor): the registry holds one definition no
   matter how many graphs or qcheck trials use the shape. *)
let scale_kernel ~rate ~factor =
  match Hashtbl.find_opt kernel_cache (rate, factor) with
  | Some k -> k
  | None ->
    let name = Printf.sprintf "fz_scale_r%d_f%d" rate factor in
    let k =
      Cgsim.Kernel.define ~realm:Cgsim.Kernel.Aie ~name ~pure:true ~stateless:true
        ~rates:[ "in", rate; "out", rate ]
        [ Cgsim.Kernel.in_port "in" Cgsim.Dtype.F32;
          Cgsim.Kernel.out_port "out" Cgsim.Dtype.F32 ]
        (fun b ->
          let i = Cgsim.Kernel.rd b 0 and o = Cgsim.Kernel.wr b 0 in
          let f = float_of_int factor in
          while true do
            let w = Cgsim.Port.get_window_f32 i rate in
            for j = 0 to rate - 1 do
              w.(j) <- w.(j) *. f
            done;
            Cgsim.Port.put_window_f32 o w
          done)
    in
    Cgsim.Registry.register k;
    Hashtbl.add kernel_cache (rate, factor) k;
    k

(* in -> scale f0 -> scale f1 -> ... -> out, all at one rate. *)
let chain_graph ~name ~rate factors =
  let ks = List.map (fun f -> scale_kernel ~rate ~factor:f) factors in
  Cgsim.Builder.make ~name ~inputs:[ "in", Cgsim.Dtype.F32 ] (fun b conns ->
      let last =
        List.fold_left
          (fun src k ->
            let dst = Cgsim.Builder.net b Cgsim.Dtype.F32 in
            ignore (Cgsim.Builder.add_kernel b k [ src; dst ]);
            dst)
          (List.hd conns) ks
      in
      [ last ])

(* A two-output splitter: any chain must stop at it. *)
let split_kernel =
  Cgsim.Kernel.define ~realm:Cgsim.Kernel.Aie ~name:"fz_split" ~pure:true ~stateless:true
    ~rates:[ "in", 1; "hi", 1; "lo", 1 ]
    [ Cgsim.Kernel.in_port "in" Cgsim.Dtype.F32;
      Cgsim.Kernel.out_port "hi" Cgsim.Dtype.F32;
      Cgsim.Kernel.out_port "lo" Cgsim.Dtype.F32 ]
    (fun b ->
      let i = Cgsim.Kernel.rd b 0 in
      let hi = Cgsim.Kernel.wr b 0 and lo = Cgsim.Kernel.wr b 1 in
      while true do
        let v = Cgsim.Port.get_f32 i in
        Cgsim.Port.put_f32 hi v;
        Cgsim.Port.put_f32 lo v
      done)

let add_kernel_2in =
  Cgsim.Kernel.define ~realm:Cgsim.Kernel.Aie ~name:"fz_add2" ~pure:true ~stateless:true
    ~rates:[ "a", 1; "b", 1; "out", 1 ]
    [ Cgsim.Kernel.in_port "a" Cgsim.Dtype.F32;
      Cgsim.Kernel.in_port "b" Cgsim.Dtype.F32;
      Cgsim.Kernel.out_port "out" Cgsim.Dtype.F32 ]
    (fun b ->
      let a = Cgsim.Kernel.rd b 0 and bb = Cgsim.Kernel.rd b 1 in
      let o = Cgsim.Kernel.wr b 0 in
      while true do
        Cgsim.Port.put_f32 o (Cgsim.Port.get_f32 a +. Cgsim.Port.get_f32 bb)
      done)

let () =
  Cgsim.Registry.register split_kernel;
  Cgsim.Registry.register add_kernel_2in

(* split -> (scale, scale) -> add: diamond, no SPSC-exclusive interior hop. *)
let diamond_graph () =
  let s2 = scale_kernel ~rate:1 ~factor:2 and s3 = scale_kernel ~rate:1 ~factor:3 in
  Cgsim.Builder.make ~name:"fz_diamond" ~inputs:[ "in", Cgsim.Dtype.F32 ] (fun b conns ->
      let hi = Cgsim.Builder.net b Cgsim.Dtype.F32 in
      let lo = Cgsim.Builder.net b Cgsim.Dtype.F32 in
      let hi2 = Cgsim.Builder.net b Cgsim.Dtype.F32 in
      let lo2 = Cgsim.Builder.net b Cgsim.Dtype.F32 in
      let out = Cgsim.Builder.net b Cgsim.Dtype.F32 in
      ignore (Cgsim.Builder.add_kernel b split_kernel [ List.hd conns; hi; lo ]);
      ignore (Cgsim.Builder.add_kernel b s2 [ hi; hi2 ]);
      ignore (Cgsim.Builder.add_kernel b s3 [ lo; lo2 ]);
      ignore (Cgsim.Builder.add_kernel b add_kernel_2in [ hi2; lo2; out ]);
      [ out ])

(* ------------------------------------------------------------------ *)
(* Running helpers                                                    *)
(* ------------------------------------------------------------------ *)

let run_chain ~config g input =
  let inst = R.new_instance (R.compile ~config g) in
  let sink, contents = Cgsim.Io.f32_buffer () in
  (match R.run inst ~sources:[ Cgsim.Io.of_f32_array input ] ~sinks:[ sink ] with
   | R.Completed _ -> ()
   | o -> Alcotest.failf "expected Completed, got %a" R.pp_outcome o);
  contents ()

let floats_equal msg (a : float array) (b : float array) =
  Alcotest.(check int) (msg ^ ": length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i x ->
      if not (Float.equal x b.(i)) then
        Alcotest.failf "%s: element %d differs: %h vs %h" msg i x b.(i))
    a

(* ------------------------------------------------------------------ *)
(* Chain discovery                                                    *)
(* ------------------------------------------------------------------ *)

let test_discovers_linear_chain () =
  let g = chain_graph ~name:"fz_linear3" ~rate:4 [ 2; 3; 5 ] in
  match F.chains g with
  | [ { F.members = [| a; b; c |]; interior = [| _; _ |] } ] ->
    let name k = g.Cgsim.Serialized.kernels.(k).Cgsim.Serialized.inst_name in
    Alcotest.(check bool) "upstream first" true
      (String.length (name a) > 0 && String.length (name b) > 0 && String.length (name c) > 0)
  | chains ->
    Alcotest.failf "expected one 3-kernel chain, got %d chains" (List.length chains)

let test_no_chain_across_fanout () =
  let g = diamond_graph () in
  (* Each interior hop either leaves a 2-output writer or enters a
     2-input reader, so nothing is exclusive end to end. *)
  Alcotest.(check int) "no chains in diamond" 0 (List.length (F.chains g))

(* 2:1 decimator — the rate-changing piece that makes a diamond
   unbalanceable when only one branch decimates. *)
let dec_kernel =
  Cgsim.Kernel.define ~realm:Cgsim.Kernel.Aie ~name:"fz_dec" ~pure:true ~stateless:true
    ~rates:[ "in", 2; "out", 1 ]
    [ Cgsim.Kernel.in_port "in" Cgsim.Dtype.F32;
      Cgsim.Kernel.out_port "out" Cgsim.Dtype.F32 ]
    (fun b ->
      let i = Cgsim.Kernel.rd b 0 and o = Cgsim.Kernel.wr b 0 in
      while true do
        let v = Cgsim.Port.get_f32 i in
        ignore (Cgsim.Port.get_f32 i);
        Cgsim.Port.put_f32 o v
      done)

let () = Cgsim.Registry.register dec_kernel

let test_no_chain_on_rate_mismatch () =
  (* One fusible two-kernel run next to a diamond whose branches
     disagree (one side decimates 2:1): the balance solve errors, so
     discovery proposes nothing — not even the clean-looking chain. *)
  let s2 = scale_kernel ~rate:1 ~factor:2 and s3 = scale_kernel ~rate:1 ~factor:3 in
  let g =
    Cgsim.Builder.make ~name:"fz_mismatch"
      ~inputs:[ "a", Cgsim.Dtype.F32; "b", Cgsim.Dtype.F32 ]
      (fun bb conns ->
        let a_in, b_in =
          match conns with [ a; b ] -> a, b | _ -> assert false
        in
        (* component 1: a -> s2 -> s3 -> out1 (shape-wise fusible) *)
        let mid = Cgsim.Builder.net bb Cgsim.Dtype.F32 in
        let out1 = Cgsim.Builder.net bb Cgsim.Dtype.F32 in
        ignore (Cgsim.Builder.add_kernel bb s2 [ a_in; mid ]);
        ignore (Cgsim.Builder.add_kernel bb s3 [ mid; out1 ]);
        (* component 2: b -> split -> (dec | pass-through) -> add -> out2 *)
        let hi = Cgsim.Builder.net bb Cgsim.Dtype.F32 in
        let lo = Cgsim.Builder.net bb Cgsim.Dtype.F32 in
        let hi2 = Cgsim.Builder.net bb Cgsim.Dtype.F32 in
        let out2 = Cgsim.Builder.net bb Cgsim.Dtype.F32 in
        ignore (Cgsim.Builder.add_kernel bb split_kernel [ b_in; hi; lo ]);
        ignore (Cgsim.Builder.add_kernel bb dec_kernel [ hi; hi2 ]);
        ignore (Cgsim.Builder.add_kernel bb add_kernel_2in [ hi2; lo; out2 ]);
        [ out1; out2 ])
  in
  Alcotest.(check bool) "rate solve rejects" true
    (D.max_severity (Cgsim.Rates.analyze g) = Some D.Error);
  Alcotest.(check int) "no chains" 0 (List.length (F.chains g))

let test_two_kernel_chain_minimum () =
  let g = chain_graph ~name:"fz_linear2" ~rate:1 [ 2; 3 ] in
  match F.chains g with
  | [ { F.members = [| _; _ |]; interior = [| _ |] } ] -> ()
  | chains -> Alcotest.failf "expected one 2-kernel chain, got %d" (List.length chains)

(* ------------------------------------------------------------------ *)
(* CG-I103 lint surface                                               *)
(* ------------------------------------------------------------------ *)

let test_cg_i103_emitted () =
  let g = chain_graph ~name:"fz_lintable" ~rate:2 [ 2; 3; 4 ] in
  match F.analyze g with
  | [ d ] ->
    Alcotest.(check string) "code" "CG-I103" d.D.code;
    Alcotest.(check bool) "info severity" true (d.D.severity = D.Info);
    Alcotest.(check bool) "names the members" true
      (List.length d.D.kernels = 3)
  | ds -> Alcotest.failf "expected one CG-I103, got %d diagnostics" (List.length ds)

let test_cg_i103_in_lint_driver () =
  let g = chain_graph ~name:"fz_lintable2" ~rate:2 [ 2; 3 ] in
  let codes = List.map (fun d -> d.D.code) (Cgsim.Lint.run g) in
  Alcotest.(check bool) "lint driver surfaces CG-I103" true (List.mem "CG-I103" codes)

let test_clean_graph_no_i103 () =
  let g = diamond_graph () in
  Alcotest.(check int) "no fusion info on diamond" 0 (List.length (F.analyze g))

(* CG-I103 names the chain's interior nets, so the standard
   lint.suppress machinery applies to it like every other finding — the
   regression this guards is the pass attaching no nets, which made the
   attribute a silent no-op for fusion hints. *)
let chain_with_suppress ~name ~spec factors =
  let ks = List.map (fun f -> scale_kernel ~rate:2 ~factor:f) factors in
  Cgsim.Builder.make ~name ~inputs:[ "in", Cgsim.Dtype.F32 ] (fun b conns ->
      let _, interior =
        List.fold_left
          (fun (src, nets) k ->
            let dst = Cgsim.Builder.net b Cgsim.Dtype.F32 in
            ignore (Cgsim.Builder.add_kernel b k [ src; dst ]);
            dst, dst :: nets)
          (List.hd conns, []) ks
      in
      (match interior with
       | last :: rest ->
         (* [rest] = the chain's interior hops ([last] is the output). *)
         List.iteri
           (fun i n ->
             match spec i with
             | Some s -> Cgsim.Builder.attach_attributes b n [ Cgsim.Attr.s "lint.suppress" s ]
             | None -> ())
           (List.rev rest);
         [ last ]
       | [] -> []))

let test_cg_i103_suppressed () =
  let g = chain_with_suppress ~name:"fz_lintsup" ~spec:(fun _ -> Some "CG-I103") [ 2; 3 ] in
  Alcotest.(check bool) "pass itself still reports the chain" true
    (List.exists (fun (d : D.t) -> d.D.code = "CG-I103") (F.analyze g));
  let codes = List.map (fun (d : D.t) -> d.D.code) (Cgsim.Lint.run g) in
  Alcotest.(check bool) "lint driver honors lint.suppress" false (List.mem "CG-I103" codes)

let test_cg_i103_partial_suppress_still_fires () =
  (* Two interior nets, only one suppressed: the finding must survive. *)
  let g =
    chain_with_suppress ~name:"fz_lintsup2"
      ~spec:(fun i -> if i = 0 then Some "CG-I103" else None)
      [ 2; 3; 4 ]
  in
  let codes = List.map (fun (d : D.t) -> d.D.code) (Cgsim.Lint.run g) in
  Alcotest.(check bool) "partially suppressed chain still reported" true
    (List.mem "CG-I103" codes)

(* ------------------------------------------------------------------ *)
(* Compile: the fuse switch                                          *)
(* ------------------------------------------------------------------ *)

let fuse_off_input = Array.init 64 (fun i -> float_of_int i)

let expected_scaled factors input =
  let f = List.fold_left (fun acc x -> acc *. float_of_int x) 1.0 factors in
  Array.map (fun x -> Cgsim.Value.round_f32 (Cgsim.Value.round_f32 x *. f)) input

(* With fusion off a fusible graph compiles no chain and still runs
   to the reference output through its queues. *)
let test_fuse_off_compiles_no_chains () =
  let factors = [ 2; 3; 5 ] in
  let g = chain_graph ~name:"fz_off" ~rate:4 factors in
  Alcotest.(check int) "fusible" 1 (Array.length (R.compiled_chains (R.compile g)));
  let config = Cgsim.Run_config.(with_fuse false default) in
  Alcotest.(check int) "no chains with fuse off" 0
    (Array.length (R.compiled_chains (R.compile ~config g)));
  floats_equal "fuse-off output" (expected_scaled factors fuse_off_input)
    (run_chain ~config g fuse_off_input)

(* ------------------------------------------------------------------ *)
(* Equivalence: apps x fast-path configurations                       *)
(* ------------------------------------------------------------------ *)

let fastpath_configs =
  Cgsim.Run_config.
    [
      "default", default;
      "fuse-off", with_fuse false default;
    ]

let values_equal msg (a : Cgsim.Value.t list) (b : Cgsim.Value.t list) =
  Alcotest.(check int) (msg ^ ": output count") (List.length a) (List.length b);
  Alcotest.(check bool) (msg ^ ": outputs equal") true
    (List.for_all2 Cgsim.Value.equal a b)

let run_app_checked msg (h : Apps.Harness.t) ~config ~reps =
  let sinks, contents = h.Apps.Harness.make_sinks () in
  let inst = R.new_instance (R.compile ~config (h.Apps.Harness.graph ())) in
  (match R.run inst ~sources:(h.Apps.Harness.sources ~reps) ~sinks with
   | R.Completed _ -> ()
   | o -> Alcotest.failf "%s: expected Completed, got %a" msg R.pp_outcome o);
  let out = contents () in
  (match h.Apps.Harness.check ~reps out with
   | Ok () -> ()
   | Error e -> Alcotest.failf "%s: %s" msg e);
  out

(* Every app produces reference-correct and bit-identical output with
   fusion on and off: fusion is a pure optimization. *)
let test_apps_equivalent_across_configs () =
  List.iter
    (fun (h : Apps.Harness.t) ->
      match
        List.map
          (fun (cname, config) ->
            run_app_checked (Printf.sprintf "%s/%s" h.Apps.Harness.name cname) h ~config ~reps:2)
          fastpath_configs
      with
      | baseline :: rest -> List.iter (values_equal h.Apps.Harness.name baseline) rest
      | [] -> ())
    Apps.Harness.all

(* ------------------------------------------------------------------ *)
(* Equivalence: randomized rate-matched SPSC chains (qcheck)          *)
(* ------------------------------------------------------------------ *)

(* One trial: derive a chain shape from a seeded Workloads.Prng, run it
   with fusion on and off, require bit-identical output. *)
let random_chain_trial seed =
  let rng = Workloads.Prng.create ~seed in
  let n = Workloads.Prng.int_range rng ~lo:2 ~hi:5 in
  let rate = 1 lsl Workloads.Prng.int_range rng ~lo:0 ~hi:3 in
  let factors = List.init n (fun _ -> Workloads.Prng.int_range rng ~lo:1 ~hi:4) in
  let windows = Workloads.Prng.int_range rng ~lo:1 ~hi:8 in
  let input =
    Array.init (rate * windows) (fun _ ->
        Workloads.Prng.float_range rng ~lo:(-100.0) ~hi:100.0)
  in
  let g =
    chain_graph
      ~name:(Printf.sprintf "fz_rand_%d_%d" rate n)
      ~rate factors
  in
  let out_of (_, config) = run_chain ~config g input in
  let baseline = out_of (List.hd fastpath_configs) in
  List.for_all
    (fun cfg ->
      let out = out_of cfg in
      Array.length out = Array.length baseline
      && Array.for_all2 Float.equal out baseline)
    (List.tl fastpath_configs)

let qcheck_random_chains =
  QCheck.Test.make ~count:25 ~name:"random rate-matched chains: fused == unfused"
    QCheck.(int_bound 1_000_000)
    random_chain_trial

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "fusion"
    [
      ( "discovery",
        [
          Alcotest.test_case "linear chain found" `Quick test_discovers_linear_chain;
          Alcotest.test_case "fan-out breaks chains" `Quick test_no_chain_across_fanout;
          Alcotest.test_case "rate mismatch rejected" `Quick test_no_chain_on_rate_mismatch;
          Alcotest.test_case "two kernels suffice" `Quick test_two_kernel_chain_minimum;
        ] );
      ( "lint",
        [
          Alcotest.test_case "CG-I103 emitted" `Quick test_cg_i103_emitted;
          Alcotest.test_case "CG-I103 via lint driver" `Quick test_cg_i103_in_lint_driver;
          Alcotest.test_case "no info without chains" `Quick test_clean_graph_no_i103;
          Alcotest.test_case "CG-I103 respects lint.suppress" `Quick test_cg_i103_suppressed;
          Alcotest.test_case "partial suppress still fires" `Quick
            test_cg_i103_partial_suppress_still_fires;
        ] );
      ( "compile",
        [
          Alcotest.test_case "fuse off compiles no chains" `Quick
            test_fuse_off_compiles_no_chains;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "apps x fast-path configs" `Quick
            test_apps_equivalent_across_configs;
          QCheck_alcotest.to_alcotest qcheck_random_chains;
        ] );
    ]
