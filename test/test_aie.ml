(* Tests for the AIE ISA-emulation layer: vector semantics, fixed-point
   rounding, the trace recorder (including pipelined-loop suppression),
   and graph-level failure injection on the cgsim runtime. *)

(* ------------------------------------------------------------------ *)
(* Vec: functional semantics                                          *)
(* ------------------------------------------------------------------ *)

let test_vec_lane_ops () =
  let a = [| 1.0; 2.0; 3.0; 4.0 |] and b = [| 10.0; 20.0; 30.0; 40.0 |] in
  Alcotest.(check (array (float 0.0))) "fadd" [| 11.0; 22.0; 33.0; 44.0 |] (Aie.Vec.fadd a b);
  Alcotest.(check (array (float 0.0))) "fmul" [| 10.0; 40.0; 90.0; 160.0 |] (Aie.Vec.fmul a b);
  Alcotest.(check (array (float 0.0))) "fmac"
    [| 11.0; 42.0; 93.0; 164.0 |]
    (Aie.Vec.fmac b a b |> fun v -> ignore v; Aie.Vec.fmac [| 1.0; 2.0; 3.0; 4.0 |] a b);
  Alcotest.(check (array (float 0.0))) "fmax" b (Aie.Vec.fmax a b);
  Alcotest.(check (array (float 0.0))) "fmin" a (Aie.Vec.fmin a b);
  (* Which NaN propagates depends on operand order: the scalar MAC keeps
     the splat form's order, so every NaN combination matches in bits. *)
  let nans = [ nan; -.nan; Int64.float_of_bits 0x7ffa_5000_0000_0000L; 1.0 ] in
  let bits v = Array.map Int64.bits_of_float v in
  List.iter
    (fun acc ->
      List.iter
        (fun s ->
          List.iter
            (fun b ->
              let want = Aie.Vec.fmac [| acc |] (Aie.Vec.fsplat 1 s) [| b |] in
              let got = Aie.Vec.fmac_scalar [| acc |] s [| b |] in
              if bits want <> bits got then
                Alcotest.failf "fmac_scalar %h %h %h: %Lx, splat form %Lx" acc s b (bits got).(0)
                  (bits want).(0))
            nans)
        nans)
    nans

let test_vec_lane_mismatch () =
  match Aie.Vec.fadd [| 1.0 |] [| 1.0; 2.0 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "lane mismatch must be rejected"

let test_vec_shuffle () =
  let v = [| 10.0; 11.0; 12.0; 13.0 |] in
  Alcotest.(check (array (float 0.0))) "reverse" [| 13.0; 12.0; 11.0; 10.0 |]
    (Aie.Vec.fshuffle v [| 3; 2; 1; 0 |]);
  (match Aie.Vec.fshuffle v [| 4 |] with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "out-of-range shuffle index must be rejected");
  Alcotest.(check (array (float 0.0))) "select"
    [| 10.0; 21.0; 12.0; 23.0 |]
    (Aie.Vec.fselect [| true; false; true; false |] v [| 20.0; 21.0; 22.0; 23.0 |])

let test_vec_srs_semantics () =
  (* Round to nearest (add half, arithmetic shift), saturate. *)
  (* ties round toward +inf: -0.5 becomes 0 *)
  Alcotest.(check (array int)) "round" [| 1; 2; 0 |]
    (Aie.Vec.srs Cgsim.Dtype.I16 15 [| 16384; 49152; -16384 |]);
  Alcotest.(check (array int)) "half rounds up" [| 1 |] (Aie.Vec.srs Cgsim.Dtype.I16 1 [| 1 |]);
  Alcotest.(check (array int)) "saturate" [| 32767; -32768 |]
    (Aie.Vec.srs Cgsim.Dtype.I16 0 [| 1000000; -1000000 |]);
  Alcotest.(check (array int)) "ups" [| 256; -512 |] (Aie.Vec.ups 8 [| 1; -2 |]);
  match Aie.Vec.srs Cgsim.Dtype.I16 (-1) [| 0 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative shift must be rejected"

let prop_srs_monotone =
  QCheck.Test.make ~name:"srs is monotone" ~count:300
    QCheck.(pair (int_range (-1000000) 1000000) (int_range 0 1000))
    (fun (x, d) ->
      let lo = Aie.Vec.srs Cgsim.Dtype.I16 15 [| x |] in
      let hi = Aie.Vec.srs Cgsim.Dtype.I16 15 [| x + d |] in
      hi.(0) >= lo.(0))

let test_vec_f32_rounding () =
  (* fadd results are rounded to single precision, and so is every add
     of fsum's reduction tree. *)
  let big = 16777216.0 (* 2^24 *) in
  let r = Aie.Vec.fadd [| big |] [| 1.0 |] in
  Alcotest.(check (float 0.0)) "f32 precision loss" big r.(0);
  Alcotest.(check (float 0.0)) "fsum rounds to f32" big (Aie.Vec.fsum [| big; 1.0 |])

(* ------------------------------------------------------------------ *)
(* Vec: differential check against a per-lane scalar reference        *)
(* ------------------------------------------------------------------ *)

(* Round to f32 through Int32 bits: an independent route to the same
   C cast that Cgsim.Value.round_f32 performs. *)
let ref_r32 x = Int32.float_of_bits (Int32.bits_of_float x)

let ref_map2 f a b = Array.init (Array.length a) (fun i -> f a.(i) b.(i))

let ref_map3 f a b c = Array.init (Array.length a) (fun i -> f a.(i) b.(i) c.(i))

(* One level adds lane i + ceil(w/2) onto lane i; an odd middle lane
   carries over unchanged. *)
let rec ref_fsum v =
  let w = Array.length v in
  if w = 0 then 0.0
  else if w = 1 then v.(0)
  else begin
    let h = (w + 1) / 2 in
    ref_fsum (Array.init h (fun i -> if i + h < w then ref_r32 (v.(i) +. v.(i + h)) else v.(i)))
  end

let special_floats =
  [ nan; -.nan; 0.0; -0.0; infinity; neg_infinity;
    1e-40 (* f32 subnormal *); -1.4e-45; 5e-324 (* f64 subnormal *);
    3.4028235e38; 3.5e38 (* rounds to f32 inf *); -1e39; max_float; 16777216.0; 1.0; -1.0 ]

let gen_lane_float =
  QCheck.Gen.(
    frequency
      [ 2, oneofl special_floats; 3, map ref_r32 (float_range (-1e6) 1e6); 1, float ])

let gen_lane_int =
  QCheck.Gen.(
    frequency
      [ 1, oneofl [ 0; 1; -1; max_int; min_int; 1 lsl 40; -(1 lsl 40); 32767; -32768 ];
        4, int_range (-1_000_000) 1_000_000; 1, int ])

type vec_case = {
  fa : float array;
  fb : float array;
  fc : float array;
  ia : int array;
  ib : int array;
  ic : int array;
  idx : int array;
  mask : bool array;
  shift : int;
  fs : float;  (* scalar operand of fmac_scalar *)
  is : int;  (* scalar operand of imac_scalar *)
}

let gen_vec_case =
  QCheck.Gen.(
    int_range 1 18 >>= fun n ->
    let fv = array_size (return n) gen_lane_float and iv = array_size (return n) gen_lane_int in
    fv >>= fun fa -> fv >>= fun fb -> fv >>= fun fc ->
    iv >>= fun ia -> iv >>= fun ib -> iv >>= fun ic ->
    array_size (int_range 0 20) (int_range 0 (n - 1)) >>= fun idx ->
    array_size (return n) bool >>= fun mask ->
    int_range 0 40 >>= fun shift ->
    frequency [ 3, oneofl special_floats; 1, gen_lane_float ] >>= fun fs ->
    gen_lane_int >|= fun is -> { fa; fb; fc; ia; ib; ic; idx; mask; shift; fs; is })

let show_floats v =
  String.concat "; " (Array.to_list (Array.map (fun x -> Printf.sprintf "%h" x) v))

let show_vec_case c =
  Printf.sprintf "fa=[%s] fb=[%s] fc=[%s] fs=%h ia=%d lanes idx=%d lanes shift=%d is=%d"
    (show_floats c.fa) (show_floats c.fb) (show_floats c.fc) c.fs (Array.length c.ia)
    (Array.length c.idx) c.shift c.is

(* Bit for bit, except that any NaN matches any NaN: when both operands
   of an add are NaN, which one propagates depends on the operand order
   the code generator picks, and IEEE 754 leaves it unspecified. *)
let same_bits x y =
  Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) || (Float.is_nan x && Float.is_nan y)

let expect_floats op want got =
  if not (Array.length want = Array.length got && Array.for_all2 same_bits want got) then
    QCheck.Test.fail_reportf "%s: want [%s], got [%s]" op (show_floats want) (show_floats got)

(* Bit for bit, NaN payloads included: for operations whose operand
   order is the same on both sides. *)
let expect_bits op want got =
  let exact x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
  if not (Array.length want = Array.length got && Array.for_all2 exact want got) then
    QCheck.Test.fail_reportf "%s: want [%s], got [%s]" op (show_floats want) (show_floats got)

let expect_ints op want got =
  if want <> got then QCheck.Test.fail_reportf "%s: int lanes differ" op

let int_dtypes = Cgsim.Dtype.[ I8; I16; I32; I64; U8; U16; U32 ]

let prop_vec_matches_reference =
  QCheck.Test.make ~name:"vec == per-lane reference (bit for bit)" ~count:500
    (QCheck.make ~print:show_vec_case gen_vec_case)
    (fun c ->
      let open Aie.Vec in
      let n = Array.length c.fa in
      expect_floats "fsplat" (Array.make n (ref_r32 c.fa.(0))) (fsplat n c.fa.(0));
      expect_floats "fadd" (ref_map2 (fun x y -> ref_r32 (x +. y)) c.fa c.fb) (fadd c.fa c.fb);
      expect_floats "fsub" (ref_map2 (fun x y -> ref_r32 (x -. y)) c.fa c.fb) (fsub c.fa c.fb);
      expect_floats "fmul" (ref_map2 (fun x y -> ref_r32 (x *. y)) c.fa c.fb) (fmul c.fa c.fb);
      expect_floats "fmac"
        (ref_map3 (fun acc x y -> ref_r32 (acc +. (x *. y))) c.fc c.fa c.fb)
        (fmac c.fc c.fa c.fb);
      expect_bits "fmac_scalar" (fmac c.fc (fsplat n c.fs) c.fb) (fmac_scalar c.fc c.fs c.fb);
      expect_floats "fmax"
        (ref_map2 (fun x y -> if x >= y then x else y) c.fa c.fb)
        (fmax c.fa c.fb);
      expect_floats "fmin"
        (ref_map2 (fun x y -> if x <= y then x else y) c.fa c.fb)
        (fmin c.fa c.fb);
      expect_floats "fshuffle" (Array.map (fun j -> c.fa.(j)) c.idx) (fshuffle c.fa c.idx);
      expect_floats "fselect"
        (Array.init n (fun i -> if c.mask.(i) then c.fa.(i) else c.fb.(i)))
        (fselect c.mask c.fa c.fb);
      expect_floats "fsum" [| ref_fsum c.fa |] [| fsum c.fa |];
      expect_ints "isplat" (Array.make n c.ia.(0)) (isplat n c.ia.(0));
      expect_ints "iadd" (ref_map2 ( + ) c.ia c.ib) (iadd c.ia c.ib);
      expect_ints "isub" (ref_map2 ( - ) c.ia c.ib) (isub c.ia c.ib);
      expect_ints "imul" (ref_map2 ( * ) c.ia c.ib) (imul c.ia c.ib);
      expect_ints "imac"
        (ref_map3 (fun acc x y -> acc + (x * y)) c.ic c.ia c.ib)
        (imac c.ic c.ia c.ib);
      expect_ints "imac_scalar" (imac c.ic c.ia (isplat n c.is)) (imac_scalar c.ic c.ia c.is);
      expect_ints "ishuffle" (Array.map (fun j -> c.ia.(j)) c.idx) (ishuffle c.ia c.idx);
      let half = if c.shift = 0 then 0 else 1 lsl (c.shift - 1) in
      List.iter
        (fun dt ->
          expect_ints
            ("srs " ^ Cgsim.Dtype.to_string dt)
            (Array.map (fun x -> Cgsim.Value.clamp_int dt ((x + half) asr c.shift)) c.ia)
            (srs dt c.shift c.ia))
        int_dtypes;
      expect_ints "ups" (Array.map (fun x -> x lsl c.shift) c.ia) (ups c.shift c.ia);
      true)

(* Rejected by Vec's own checks, not by an array bounds check further in. *)
let raises_invalid f =
  match f () with
  | exception Invalid_argument msg -> String.starts_with ~prefix:"aie: " msg
  | _ -> false

let prop_vec_rejects_bad_lanes =
  QCheck.Test.make ~name:"vec rejects lane mismatch and out-of-range shuffles" ~count:200
    QCheck.(pair (int_range 1 18) (int_range 1 18))
    (fun (n, m) ->
      let open Aie.Vec in
      let f k = Array.make k 1.0 and i k = Array.make k 1 in
      let mismatched =
        [ "fadd", (fun () -> ignore (fadd (f n) (f m)));
          "fsub", (fun () -> ignore (fsub (f n) (f m)));
          "fmul", (fun () -> ignore (fmul (f n) (f m)));
          "fmac acc", (fun () -> ignore (fmac (f m) (f n) (f n)));
          "fmac b", (fun () -> ignore (fmac (f n) (f n) (f m)));
          "fmax", (fun () -> ignore (fmax (f n) (f m)));
          "fmin", (fun () -> ignore (fmin (f n) (f m)));
          "fselect", (fun () -> ignore (fselect (Array.make n true) (f n) (f m)));
          "fselect mask", (fun () -> ignore (fselect (Array.make m true) (f n) (f n)));
          "iadd", (fun () -> ignore (iadd (i n) (i m)));
          "isub", (fun () -> ignore (isub (i n) (i m)));
          "imul", (fun () -> ignore (imul (i n) (i m)));
          "imac acc", (fun () -> ignore (imac (i m) (i n) (i n)));
          "imac b", (fun () -> ignore (imac (i n) (i n) (i m)));
          "fmac_scalar", (fun () -> ignore (fmac_scalar (f n) 1.0 (f m)));
          "imac_scalar", (fun () -> ignore (imac_scalar (i n) (i m) 1)) ]
      in
      List.iter
        (fun (op, call) ->
          if n <> m && not (raises_invalid call) then
            QCheck.Test.fail_reportf "%s: %d vs %d lanes accepted" op n m)
        mismatched;
      List.iter
        (fun j ->
          if not (raises_invalid (fun () -> ignore (fshuffle (f n) [| 0; j |]))) then
            QCheck.Test.fail_reportf "fshuffle index %d of %d lanes accepted" j n;
          if not (raises_invalid (fun () -> ignore (ishuffle (i n) [| 0; j |]))) then
            QCheck.Test.fail_reportf "ishuffle index %d of %d lanes accepted" j n)
        [ -1; n ];
      true)

(* ------------------------------------------------------------------ *)
(* Allocation: untraced kernel bodies allocate only their results     *)
(* ------------------------------------------------------------------ *)

let words_per_call f =
  ignore (Sys.opaque_identity (f ()));
  let calls = 1000 in
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Gc.minor_words () -. before) /. float_of_int calls

let test_untraced_allocation () =
  Alcotest.(check bool) "tracing off" false
    (match Cgsim.Sched.local () with Aie.Trace.Recorder _ -> true | _ -> false);
  let lanes = 16 in
  (* a 16-lane float or int array: header + 16 words *)
  let result_words = float_of_int (lanes + 1) in
  let a = Array.init lanes float_of_int and b = Array.make lanes 0.5 in
  let acc = Array.init lanes (fun i -> i * 40000) in
  let idx = Array.init lanes (fun i -> lanes - 1 - i) in
  let mask = Array.init lanes (fun i -> i land 1 = 0) in
  let mem = Array.make 64 1.0 in
  let at_most what bound f =
    let w = words_per_call f in
    if w > bound then Alcotest.failf "%s allocates %.1f words per call (bound %.0f)" what w bound
  in
  (* An untraced intrinsic allocates its result and nothing else; the
     rounding absorbs the boxed float each Gc.minor_words reading
     allocates, spread over the 1000 calls. *)
  let only_result what f =
    let w = words_per_call f in
    if Float.round w <> result_words then
      Alcotest.failf "%s allocates %.2f words per call (its result is %.0f)" what w result_words
  in
  only_result "fpmax" (fun () -> Aie.Intrinsics.fpmax a b);
  only_result "fpmac" (fun () -> Aie.Intrinsics.fpmac a a b);
  only_result "fpmac_scalar" (fun () -> Aie.Intrinsics.fpmac_scalar a 0.25 b);
  only_result "fpshuffle" (fun () -> Aie.Intrinsics.fpshuffle a idx);
  only_result "fpselect" (fun () -> Aie.Intrinsics.fpselect mask a b);
  only_result "mac16" (fun () -> Aie.Intrinsics.mac16 acc acc idx);
  only_result "mac16_scalar" (fun () -> Aie.Intrinsics.mac16_scalar acc acc 3);
  only_result "srs16" (fun () -> Aie.Intrinsics.srs16 ~shift:4 acc);
  only_result "load_f32" (fun () -> Aie.Intrinsics.load_f32 mem 8 lanes);
  at_most "Trace.sop" 2. (fun () -> Aie.Trace.sop ~count:3 "addr")

(* ------------------------------------------------------------------ *)
(* Intrinsics: cost emission                                          *)
(* ------------------------------------------------------------------ *)

(* Run [f] in a fiber whose local is a fresh recorder, as aiesim's
   capture runs a kernel; a raise inside [f] is re-raised here. *)
let in_fiber ?local f =
  let s = Cgsim.Sched.create () in
  Cgsim.Sched.spawn ?local s ~name:"traced" f;
  match (Cgsim.Sched.run s).Cgsim.Sched.failed with
  | (_, e) :: _ -> raise e
  | [] -> ()

let with_recording f =
  let r = Aie.Trace.create_recorder () in
  in_fiber ~local:(Aie.Trace.Recorder r) f;
  Aie.Trace.events r

let vop name = Aie.Trace.emit (Aie.Trace.Vop { name; slots = 1 })

let show_events evs = String.concat "; " (List.map (Format.asprintf "%a" Aie.Trace.pp_event) evs)

let test_intrinsics_emit_costs () =
  let a16 = Array.make 16 1.0 in
  let events =
    with_recording (fun () ->
        ignore (Aie.Intrinsics.fpmac (Array.make 16 0.0) a16 a16);
        ignore (Aie.Intrinsics.mac16 (Array.make 32 0) (Array.make 32 1) (Array.make 32 2));
        ignore (Aie.Intrinsics.load_f32 (Array.make 64 0.0) 0 8);
        Aie.Intrinsics.scalar_op "addr";
        ignore (Aie.Intrinsics.sub32 (Array.make 16 3) (Array.make 16 1)))
  in
  (match events with
   | [ Aie.Trace.Vop { name = "fpmac"; slots = 2 };  (* 16 fp lanes = 2 slots *)
       Aie.Trace.Vop { name = "mac16"; slots = 1 };  (* 32 i16 lanes = 1 slot *)
       Aie.Trace.Load { bytes = 32 };
       Aie.Trace.Sop { name = "addr"; count = 1 };
       Aie.Trace.Vop { name = "sub32"; slots = 2 } ] ->  (* 16 i32 lanes = 2 slots *)
     ()
   | evs -> Alcotest.failf "unexpected events: %s" (show_events evs));
  (* A scalar-operand MAC records exactly its vector form's event. *)
  List.iter
    (fun lanes ->
      let f = Array.init lanes float_of_int and i = Array.init lanes (fun k -> k - 3) in
      let vector =
        with_recording (fun () ->
            ignore (Aie.Intrinsics.fpmac f (Aie.Vec.fsplat lanes 0.5) f);
            ignore (Aie.Intrinsics.mac16 i i (Aie.Vec.isplat lanes 7)))
      in
      let scalar =
        with_recording (fun () ->
            ignore (Aie.Intrinsics.fpmac_scalar f 0.5 f);
            ignore (Aie.Intrinsics.mac16_scalar i i 7))
      in
      if vector <> scalar then
        Alcotest.failf "%d lanes: vector forms record [%s], scalar forms [%s]" lanes
          (show_events vector) (show_events scalar))
    [ 1; 8; 16; 32; 40 ]

(* A recorder records only the fiber it is the local of: host code and
   a fiber spawned without it leave it empty. *)
let test_intrinsics_disabled_is_silent () =
  let r = Aie.Trace.create_recorder () in
  let work () = ignore (Aie.Intrinsics.fpadd [| 1.0 |] [| 2.0 |]) in
  work ();
  in_fiber work;
  Alcotest.(check int) "no events" 0 (Aie.Trace.event_count r)

let test_intrinsics_bounds () =
  (match Aie.Intrinsics.load_f32 (Array.make 4 0.0) 2 8 with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "out-of-range vector load must be rejected");
  (* A negative lane count is the intrinsic's own bounds error, not a
     stdlib one from further in. *)
  let rejected what f =
    if not (raises_invalid f) then Alcotest.failf "%s must raise an aie: bounds error" what
  in
  rejected "load_f32 mem 0 (-1)" (fun () -> ignore (Aie.Intrinsics.load_f32 (Array.make 4 0.0) 0 (-1)));
  rejected "load_i16 mem 2 (-3)" (fun () -> ignore (Aie.Intrinsics.load_i16 (Array.make 4 0) 2 (-3)))

(* ------------------------------------------------------------------ *)
(* Trace: pipelined-loop recording                                    *)
(* ------------------------------------------------------------------ *)

let test_trace_loop_suppression () =
  let executions = ref 0 in
  let events =
    with_recording (fun () ->
        Aie.Trace.with_pipelined_loop ~trip:10 (fun _ ->
            incr executions;
            vop "body"))
  in
  Alcotest.(check int) "body ran trip times" 10 !executions;
  match events with
  | [ Aie.Trace.Loop_enter { trip = 10 }; Aie.Trace.Vop { name = "body"; _ }; Aie.Trace.Loop_exit ]
    ->
    ()
  | evs -> Alcotest.failf "expected one recorded iteration, got %d events" (List.length evs)

let test_trace_loop_abort_marker () =
  let events =
    with_recording (fun () ->
        try
          Aie.Trace.with_pipelined_loop ~trip:10 (fun _ ->
              vop "partial";
              raise Exit)
        with Exit -> ())
  in
  match events with
  | [ Aie.Trace.Loop_enter _; Aie.Trace.Vop _; Aie.Trace.Loop_abort ] -> ()
  | evs -> Alcotest.failf "expected abort marker, got %d events" (List.length evs)

let test_trace_zero_trip () =
  let events = with_recording (fun () -> Aie.Trace.with_pipelined_loop ~trip:0 (fun _ -> ())) in
  Alcotest.(check int) "no events for empty loop" 0 (List.length events)

(* The abort path as it actually occurs in a graph run: the input stream
   drains while iteration 0 of a pipelined loop is being recorded, so
   [Cgsim.Port.get] raises [End_of_stream] mid-body.  The region must be
   closed with [Loop_abort] (so replay does not multiply a partial body
   by the trip count) and the run must still terminate cleanly. *)
let loop4_kernel =
  Cgsim.Kernel.define ~realm:Cgsim.Kernel.Aie ~name:"fi_loop4"
    [ Cgsim.Kernel.in_port "in" Cgsim.Dtype.I32; Cgsim.Kernel.out_port "out" Cgsim.Dtype.I32 ]
    (fun b ->
      let i = Cgsim.Kernel.rd b 0 and o = Cgsim.Kernel.wr b 0 in
      while true do
        Aie.Trace.with_pipelined_loop ~trip:4 (fun _ ->
            vop "work";
            Cgsim.Port.put o (Cgsim.Port.get i))
      done)

let () = Cgsim.Registry.register loop4_kernel

let test_trace_loop_abort_on_end_of_stream () =
  let g =
    Cgsim.Builder.make ~name:"abortg" ~inputs:[ "x", Cgsim.Dtype.I32 ] (fun b conns ->
        let out = Cgsim.Builder.net b Cgsim.Dtype.I32 in
        ignore (Cgsim.Builder.add_kernel b ~inst:"abortk" loop4_kernel [ List.hd conns; out ]);
        [ out ])
  in
  let r = Aie.Trace.create_recorder () in
  let sink, contents = Cgsim.Io.int_buffer () in
  let ctx = Cgsim.Runtime.instantiate ~local:(fun _ -> Aie.Trace.Recorder r) g in
  (* Exactly one full trip of input: the second loop region's first body
     read hits the drained stream. *)
  ignore
    (Cgsim.Runtime.run_exn ctx
       ~sources:[ Cgsim.Io.of_int_array Cgsim.Dtype.I32 [| 1; 2; 3; 4 |] ]
       ~sinks:[ sink ]);
  Alcotest.(check (array int)) "full first trip delivered" [| 1; 2; 3; 4 |] (contents ());
  match Aie.Trace.events r with
  | [
   Aie.Trace.Loop_enter { trip = 4 };
   Aie.Trace.Vop { name = "work"; _ };
   Aie.Trace.Loop_exit;
   Aie.Trace.Loop_enter { trip = 4 };
   Aie.Trace.Vop { name = "work"; _ };
   Aie.Trace.Loop_abort;
  ] ->
    ()
  | evs ->
    Alcotest.failf "unexpected event sequence: %s"
      (String.concat "; " (List.map (Format.asprintf "%a" Aie.Trace.pp_event) evs))

(* ------------------------------------------------------------------ *)
(* Failure injection at graph level                                   *)
(* ------------------------------------------------------------------ *)

let pass_kernel =
  Cgsim.Kernel.define ~realm:Cgsim.Kernel.Aie ~name:"fi_pass"
    [ Cgsim.Kernel.in_port "in" Cgsim.Dtype.I32; Cgsim.Kernel.out_port "out" Cgsim.Dtype.I32 ]
    (fun b ->
      let i = Cgsim.Kernel.rd b 0 and o = Cgsim.Kernel.wr b 0 in
      while true do
        Cgsim.Port.put o (Cgsim.Port.get i)
      done)

let sum2_kernel =
  Cgsim.Kernel.define ~realm:Cgsim.Kernel.Aie ~name:"fi_sum2"
    [
      Cgsim.Kernel.in_port "a" Cgsim.Dtype.I32;
      Cgsim.Kernel.in_port "b" Cgsim.Dtype.I32;
      Cgsim.Kernel.out_port "out" Cgsim.Dtype.I32;
    ]
    (fun bd ->
      let a = Cgsim.Kernel.rd bd 0 and b = Cgsim.Kernel.rd bd 1 and o = Cgsim.Kernel.wr bd 0 in
      while true do
        let x = Cgsim.Port.get_int a in
        let y = Cgsim.Port.get_int b in
        Cgsim.Port.put_int o (x + y)
      done)

let () =
  Cgsim.Registry.register pass_kernel;
  Cgsim.Registry.register sum2_kernel

let test_cyclic_graph_terminates () =
  (* A feedback loop with no initial token deadlocks; the run must END
     (fibers cancelled), not hang — the paper's "no explicit termination
     condition" semantics. *)
  let g =
    Cgsim.Builder.make ~name:"cycle" ~inputs:[ "x", Cgsim.Dtype.I32 ] (fun b conns ->
        let fb = Cgsim.Builder.net b Cgsim.Dtype.I32 in
        let out = Cgsim.Builder.net b Cgsim.Dtype.I32 in
        (* sum2 needs both the input and its own (never-written-first)
           feedback, so nothing can ever fire. *)
        ignore (Cgsim.Builder.add_kernel b sum2_kernel [ List.hd conns; fb; out ]);
        ignore (Cgsim.Builder.add_kernel b pass_kernel [ out; fb ]);
        [ out ])
  in
  let sink, contents = Cgsim.Io.buffer () in
  let stats =
    Cgsim.Runtime.execute_exn g
      ~sources:[ Cgsim.Io.of_int_array Cgsim.Dtype.I32 [| 1; 2; 3 |] ]
      ~sinks:[ sink ]
  in
  Alcotest.(check (list string)) "no output" [] (List.map Cgsim.Value.to_string (contents ()));
  Alcotest.(check bool) "stalled fibers were cancelled" true (stats.Cgsim.Sched.cancelled > 0)

let test_unbalanced_merge_drains () =
  (* Merge of two finite streams of different lengths: the kernel reads
     alternately, so once the shorter source closes it ends mid-protocol;
     everything must still terminate cleanly. *)
  let g =
    Cgsim.Builder.make ~name:"unbalanced"
      ~inputs:[ "a", Cgsim.Dtype.I32; "b", Cgsim.Dtype.I32 ]
      (fun bd conns ->
        match conns with
        | [ a; b ] ->
          let out = Cgsim.Builder.net bd Cgsim.Dtype.I32 in
          ignore (Cgsim.Builder.add_kernel bd sum2_kernel [ a; b; out ]);
          [ out ]
        | _ -> assert false)
  in
  let sink, contents = Cgsim.Io.int_buffer () in
  let _ =
    Cgsim.Runtime.execute_exn g
      ~sources:
        [
          Cgsim.Io.of_int_array Cgsim.Dtype.I32 [| 1; 2; 3; 4; 5 |];
          Cgsim.Io.of_int_array Cgsim.Dtype.I32 [| 10; 20 |];
        ]
      ~sinks:[ sink ]
  in
  Alcotest.(check (array int)) "pairs up to the shorter stream" [| 11; 22 |] (contents ())

let test_aiesim_rejects_partial_blocks () =
  (* bilinear's pipelined loop needs whole 256-quad blocks; feeding a
     partial block must surface as a clean error, not a hang. *)
  let h = Apps.Harness.bilinear in
  let quads = Workloads.Images.random_quads ~seed:3 100 (* not a multiple of 256 *) in
  let sink = Cgsim.Io.null () in
  match
    Aiesim.Sim.run
      (Aiesim.Deploy.baseline (h.Apps.Harness.graph ()))
      ~sources:[ Cgsim.Io.of_array (Array.map Apps.Bilinear.quad_value quads) ]
      ~sinks:[ sink ]
  with
  | exception Aiesim.Sim.Sim_error _ -> ()
  | _report ->
    (* Acceptable too: the partial tail may replay as an aborted region. *)
    ()

let () =
  Alcotest.run "aie"
    [
      ( "vec",
        [
          Alcotest.test_case "lane ops" `Quick test_vec_lane_ops;
          Alcotest.test_case "lane mismatch" `Quick test_vec_lane_mismatch;
          Alcotest.test_case "shuffle/select" `Quick test_vec_shuffle;
          Alcotest.test_case "srs semantics" `Quick test_vec_srs_semantics;
          Alcotest.test_case "f32 rounding" `Quick test_vec_f32_rounding;
          QCheck_alcotest.to_alcotest prop_srs_monotone;
          QCheck_alcotest.to_alcotest prop_vec_matches_reference;
          QCheck_alcotest.to_alcotest prop_vec_rejects_bad_lanes;
          Alcotest.test_case "untraced allocation" `Quick test_untraced_allocation;
        ] );
      ( "intrinsics",
        [
          Alcotest.test_case "cost emission" `Quick test_intrinsics_emit_costs;
          Alcotest.test_case "disabled is silent" `Quick test_intrinsics_disabled_is_silent;
          Alcotest.test_case "bounds" `Quick test_intrinsics_bounds;
        ] );
      ( "trace",
        [
          Alcotest.test_case "loop suppression" `Quick test_trace_loop_suppression;
          Alcotest.test_case "loop abort marker" `Quick test_trace_loop_abort_marker;
          Alcotest.test_case "zero trip" `Quick test_trace_zero_trip;
          Alcotest.test_case "abort on end of stream" `Quick
            test_trace_loop_abort_on_end_of_stream;
        ] );
      ( "failure-injection",
        [
          Alcotest.test_case "cyclic graph terminates" `Quick test_cyclic_graph_terminates;
          Alcotest.test_case "unbalanced merge drains" `Quick test_unbalanced_merge_drains;
          Alcotest.test_case "partial blocks rejected" `Quick test_aiesim_rejects_partial_blocks;
        ] );
    ]
