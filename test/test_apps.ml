(* Correctness tests for the four evaluation applications, on the cgsim
   runtime and the x86sim thread-per-kernel runtime, plus pure unit tests
   of the vector algorithms against the scalar references. *)

let check_ok what = function
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%s: %s" what e

(* ------------------------------------------------------------------ *)
(* Pure algorithm units                                               *)
(* ------------------------------------------------------------------ *)

let test_bitonic_network_shape () =
  Alcotest.(check int) "10 stages for 16 lanes" 10 (Array.length Apps.Bitonic.stages)

let sorted v =
  let v = Array.copy v in
  Apps.Bitonic.sort_vector (Apps.Bitonic.scratch None) v;
  v

let test_bitonic_sort_vector () =
  let v = [| 5.; 3.; 9.; 1.; 0.; -2.; 8.; 7.; 6.; 4.; 2.; -1.; 11.; 10.; -3.; 12. |] in
  Alcotest.(check (array (float 0.0))) "sorted" (Workloads.Reference.sort_f32 v) (sorted v)

let prop_bitonic_sorts_anything =
  QCheck.Test.make ~name:"bitonic network sorts any 16 floats" ~count:300
    QCheck.(array_of_size (QCheck.Gen.return 16) (float_range (-1000.0) 1000.0))
    (fun v ->
      let v = Array.map Cgsim.Value.round_f32 v in
      sorted v = Workloads.Reference.sort_f32 v)

let prop_bilinear_group_matches_scalar =
  QCheck.Test.make ~name:"vector bilinear blend == scalar reference" ~count:200
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let quads = Workloads.Images.random_quads ~seed 16 in
      let vec = Array.make Apps.Bilinear.group 0 in
      (* The requests reach the blend as a request net stores them. *)
      let n = Apps.Bilinear.group in
      let ring = Cgsim.Ring.create ~name:"req" ~dtype:Apps.Bilinear.quad_dtype ~capacity:n in
      let cur = Cgsim.Ring.add_cursor ring in
      Cgsim.Ring.values.copy_in ring (Array.map Apps.Bilinear.quad_value quads) 0 n;
      let req = Cgsim.Port.lanes Apps.Bilinear.quad_dtype n in
      Cgsim.Ring.lanes.copy_out ring cur req 0 n;
      Apps.Bilinear.blend_group (Apps.Bilinear.scratch None) ~dst:vec req;
      let scalar =
        Array.map
          (fun (q : Workloads.Images.quad) ->
            Workloads.Reference.bilinear_scalar ~p00:q.p00 ~p01:q.p01 ~p10:q.p10 ~p11:q.p11
              ~xf:q.xf ~yf:q.yf)
          quads
      in
      vec = scalar)

let test_bilinear_corners () =
  (* xf = yf = 0 returns p00 in Q8; xf = yf = 32767 lands within one LSB
     of p11 (Q15 fraction cannot express exactly 1.0). *)
  let r = Workloads.Reference.bilinear_scalar ~p00:100 ~p01:0 ~p10:0 ~p11:0 ~xf:0 ~yf:0 in
  Alcotest.(check int) "origin" (100 * 256) r;
  let r =
    Workloads.Reference.bilinear_scalar ~p00:0 ~p01:0 ~p10:0 ~p11:200 ~xf:32767 ~yf:32767
  in
  let ideal = 200 * 256 in
  Alcotest.(check bool) "far corner within 4 LSB Q8" true (abs (r - ideal) < 1024)

let test_farrow_zero_delay_is_pure_delay () =
  (* At d = 0 the cubic Lagrange Farrow filter degenerates to a fixed
     integer delay: coefficient row m=0 is the unit tap at position 1 of
     the causal tap window [x[i-3] .. x[i]], i.e. y[i] = x[i-2]. *)
  let x = Workloads.Signals.random_i16 ~seed:3 256 in
  let x = Array.map (fun v -> v / 4) x in
  let y = Workloads.Reference.farrow_scalar ~d_q15:0 x in
  for i = 2 to 255 do
    Alcotest.(check int) (Printf.sprintf "y[%d] = x[%d]" i (i - 2)) x.(i - 2) y.(i)
  done

let test_iir_matrix_matches_recurrence () =
  (* One group computed through the coefficient matrix must equal eight
     steps of the direct recurrence (up to f32 rounding). *)
  let s = Workloads.Reference.design_lowpass ~cutoff:0.15 ~q:0.9 in
  let m = Apps.Iir.section_matrix s in
  let rng = Workloads.Prng.create ~seed:5 in
  let u = Array.init 12 (fun _ -> Workloads.Prng.float_range rng ~lo:(-1.0) ~hi:1.0) in
  (* matrix path *)
  let y_mat = Array.make 8 0.0 in
  Array.iteri
    (fun j col -> Array.iteri (fun k c -> y_mat.(k) <- y_mat.(k) +. (u.(j) *. c)) col)
    m;
  (* direct recurrence *)
  let y1 = ref u.(0) and y2 = ref u.(1) and x1 = ref u.(2) and x2 = ref u.(3) in
  let y_dir =
    Array.init 8 (fun k ->
        let xk = u.(4 + k) in
        let yk =
          (s.b0 *. xk) +. (s.b1 *. !x1) +. (s.b2 *. !x2) -. (s.a1 *. !y1) -. (s.a2 *. !y2)
        in
        x2 := !x1;
        x1 := xk;
        y2 := !y1;
        y1 := yk;
        yk)
  in
  Array.iteri
    (fun k e ->
      if Float.abs (y_mat.(k) -. e) > 1e-5 then
        Alcotest.failf "lane %d: matrix %g vs direct %g" k y_mat.(k) e)
    y_dir

let test_iir_sections_stable () =
  Array.iter
    (fun (s : Workloads.Reference.biquad) ->
      (* Stability: poles inside the unit circle <=> |a2| < 1 and
         |a1| < 1 + a2. *)
      Alcotest.(check bool) "a2" true (Float.abs s.a2 < 1.0);
      Alcotest.(check bool) "a1" true (Float.abs s.a1 < 1.0 +. s.a2))
    Workloads.Reference.iir_sections

let test_iir_dc_gain () =
  (* Low-pass cascade: DC gain of each section is 1. *)
  Array.iter
    (fun (s : Workloads.Reference.biquad) ->
      let g = (s.b0 +. s.b1 +. s.b2) /. (1.0 +. s.a1 +. s.a2) in
      if Float.abs (g -. 1.0) > 1e-9 then Alcotest.failf "dc gain %g" g)
    Workloads.Reference.iir_sections

(* ------------------------------------------------------------------ *)
(* End-to-end on the cgsim runtime                                    *)
(* ------------------------------------------------------------------ *)

let cgsim_case (h : Apps.Harness.t) reps () =
  check_ok h.Apps.Harness.name (Apps.Harness.run_cgsim h ~reps)

(* ------------------------------------------------------------------ *)
(* End-to-end on the x86sim runtime                                   *)
(* ------------------------------------------------------------------ *)

let x86sim_case (h : Apps.Harness.t) reps () =
  let g = h.Apps.Harness.graph () in
  let sinks, contents = h.Apps.Harness.make_sinks () in
  let _stats = X86sim.Sim.run_exn g ~sources:(h.Apps.Harness.sources ~reps) ~sinks in
  check_ok (h.Apps.Harness.name ^ " (x86sim)") (h.Apps.Harness.check ~reps (contents ()))

(* x86sim must produce bit-identical outputs to cgsim. *)
let test_x86sim_matches_cgsim () =
  List.iter
    (fun (h : Apps.Harness.t) ->
      let reps = 2 in
      let run_with exec =
        let g = h.Apps.Harness.graph () in
        let sinks, contents = h.Apps.Harness.make_sinks () in
        exec g (h.Apps.Harness.sources ~reps) sinks;
        contents ()
      in
      let a =
        run_with (fun g sources sinks -> ignore (Cgsim.Runtime.execute_exn g ~sources ~sinks))
      in
      let b = run_with (fun g sources sinks -> ignore (X86sim.Sim.run_exn g ~sources ~sinks)) in
      if not (List.for_all2 Cgsim.Value.equal a b) then
        Alcotest.failf "%s: cgsim and x86sim outputs differ" h.Apps.Harness.name)
    Apps.Harness.all

(* Whole apps served through the pool: every request's output checks
   against the scalar reference, with more requests than domains. *)
let test_pool_serves_apps () =
  List.iter
    (fun (h : Apps.Harness.t) ->
      let reps = 1 and requests = 5 in
      let contents = Array.make requests (fun () -> []) in
      let io r =
        let sinks, c = h.Apps.Harness.make_sinks () in
        contents.(r) <- c;
        h.Apps.Harness.sources ~reps, sinks
      in
      let stats = Cgsim.Pool.run ~domains:2 ~requests ~io (h.Apps.Harness.graph ()) in
      Array.iter
        (fun (res : Cgsim.Pool.request_result) ->
          match res.Cgsim.Pool.outcome with
          | Cgsim.Runtime.Completed _ ->
            check_ok
              (Printf.sprintf "%s req %d (pool)" h.Apps.Harness.name res.Cgsim.Pool.req_id)
              (h.Apps.Harness.check ~reps (contents.(res.Cgsim.Pool.req_id) ()))
          | o ->
            Alcotest.failf "%s req %d: %a" h.Apps.Harness.name res.Cgsim.Pool.req_id
              Cgsim.Runtime.pp_outcome o)
        stats.Cgsim.Pool.results)
    Apps.Harness.all

(* Bilinear's request sources force a module-level lazy image.  This runs
   before any other test touches bilinear, so the first force happens on
   the pool's domains, concurrently. *)
let test_bilinear_fresh_pool () =
  let h = Apps.Harness.bilinear in
  let reps = 1 and requests = 64 in
  let g = h.Apps.Harness.graph () in
  let contents = Array.init requests (fun _ -> Atomic.make (fun () -> [])) in
  let pool = Cgsim.Pool.create ~domains:2 () in
  let results =
    Fun.protect
      ~finally:(fun () -> Cgsim.Pool.shutdown pool)
      (fun () ->
        List.init requests (fun r ->
            Cgsim.Pool.submit pool g ~io:(fun _ ->
                let sinks, c = h.Apps.Harness.make_sinks () in
                Atomic.set contents.(r) c;
                h.Apps.Harness.sources ~reps, sinks))
        |> List.map Cgsim.Pool.await)
  in
  List.iteri
    (fun r (res : Cgsim.Pool.request_result) ->
      match res.Cgsim.Pool.outcome with
      | Cgsim.Runtime.Completed _ ->
        check_ok
          (Printf.sprintf "bilinear req %d (fresh pool)" r)
          (h.Apps.Harness.check ~reps ((Atomic.get contents.(r)) ()))
      | o -> Alcotest.failf "bilinear req %d: %a" r Cgsim.Runtime.pp_outcome o)
    results

let () =
  Alcotest.run "apps"
    [
      ( "algorithms",
        [
          Alcotest.test_case "bitonic stage count" `Quick test_bitonic_network_shape;
          Alcotest.test_case "bitonic sorts a vector" `Quick test_bitonic_sort_vector;
          Alcotest.test_case "bilinear corner cases" `Quick test_bilinear_corners;
          Alcotest.test_case "farrow d=0 is a delay" `Quick test_farrow_zero_delay_is_pure_delay;
          Alcotest.test_case "iir matrix == recurrence" `Quick test_iir_matrix_matches_recurrence;
          Alcotest.test_case "iir sections stable" `Quick test_iir_sections_stable;
          Alcotest.test_case "iir dc gain" `Quick test_iir_dc_gain;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_bitonic_sorts_anything; prop_bilinear_group_matches_scalar ] );
      ( "cgsim-end-to-end",
        [
          Alcotest.test_case "bilinear x64 on a fresh 2-domain pool" `Quick
            test_bilinear_fresh_pool;
          Alcotest.test_case "bitonic x8" `Quick (cgsim_case Apps.Harness.bitonic 8);
          Alcotest.test_case "farrow x2" `Quick (cgsim_case Apps.Harness.farrow 2);
          Alcotest.test_case "iir x2" `Quick (cgsim_case Apps.Harness.iir 2);
          Alcotest.test_case "bilinear x3" `Quick (cgsim_case Apps.Harness.bilinear 3);
          Alcotest.test_case "pool serves all apps" `Quick test_pool_serves_apps;
        ] );
      ( "x86sim-end-to-end",
        [
          Alcotest.test_case "bitonic x8" `Quick (x86sim_case Apps.Harness.bitonic 8);
          Alcotest.test_case "farrow x2" `Quick (x86sim_case Apps.Harness.farrow 2);
          Alcotest.test_case "iir x2" `Quick (x86sim_case Apps.Harness.iir 2);
          Alcotest.test_case "bilinear x3" `Quick (x86sim_case Apps.Harness.bilinear 3);
          Alcotest.test_case "outputs identical to cgsim" `Quick test_x86sim_matches_cgsim;
        ] );
    ]
