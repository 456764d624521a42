(* Tests for the AIE ISA-emulation layer: vector semantics, fixed-point
   rounding, the trace recorder (including pipelined-loop suppression),
   and graph-level failure injection on the cgsim runtime. *)

(* Each Vec op into a fresh destination with the lanes of its first
   operand (of the index vector, for shuffles), for tests that compare
   results rather than reuse lanes. *)
module Fresh = struct
  let f2 (op : dst:float array -> float array -> float array -> unit) a b =
    let dst = Array.make (Array.length a) 0.0 in
    op ~dst a b;
    dst

  let i2 (op : dst:int array -> int array -> int array -> unit) a b =
    let dst = Array.make (Array.length a) 0 in
    op ~dst a b;
    dst

  let fsplat n s =
    let dst = Array.make n 0.0 in
    Aie.Vec.fsplat ~dst s;
    dst

  let fadd = f2 Aie.Vec.fadd
  let fsub = f2 Aie.Vec.fsub
  let fmul = f2 Aie.Vec.fmul
  let fmax = f2 Aie.Vec.fmax
  let fmin = f2 Aie.Vec.fmin

  let fmac acc a b =
    let dst = Array.make (Array.length acc) 0.0 in
    Aie.Vec.fmac ~dst acc a b;
    dst

  let fmac_scalar acc s b =
    let dst = Array.make (Array.length acc) 0.0 in
    Aie.Vec.fmac_scalar ~dst acc [| s |] 0 b;
    dst

  let fshuffle v idx =
    let dst = Array.make (Array.length idx) 0.0 in
    Aie.Vec.fshuffle ~dst v idx;
    dst

  let fselect mask a b =
    let dst = Array.make (Array.length a) 0.0 in
    Aie.Vec.fselect ~dst mask a b;
    dst

  let fsum v =
    if Array.length v = 0 then 0.0
    else begin
      let dst = Array.make (Array.length v) 0.0 in
      Aie.Vec.fsum ~dst v;
      dst.(0)
    end

  let isplat n s =
    let dst = Array.make n 0 in
    Aie.Vec.isplat ~dst s;
    dst

  let iadd = i2 Aie.Vec.iadd
  let isub = i2 Aie.Vec.isub
  let imul = i2 Aie.Vec.imul

  let imac acc a b =
    let dst = Array.make (Array.length acc) 0 in
    Aie.Vec.imac ~dst acc a b;
    dst

  let imac_scalar acc a s =
    let dst = Array.make (Array.length acc) 0 in
    Aie.Vec.imac_scalar ~dst acc a s;
    dst

  let ishuffle v idx =
    let dst = Array.make (Array.length idx) 0 in
    Aie.Vec.ishuffle ~dst v idx;
    dst

  let srs dtype shift acc =
    let dst = Array.make (Array.length acc) 0 in
    Aie.Vec.srs ~dst dtype shift acc;
    dst

  let ups shift v =
    let dst = Array.make (Array.length v) 0 in
    Aie.Vec.ups ~dst shift v;
    dst
end

(* ------------------------------------------------------------------ *)
(* Vec: functional semantics                                          *)
(* ------------------------------------------------------------------ *)

let test_vec_lane_ops () =
  let open Fresh in
  let a = [| 1.0; 2.0; 3.0; 4.0 |] and b = [| 10.0; 20.0; 30.0; 40.0 |] in
  Alcotest.(check (array (float 0.0))) "fadd" [| 11.0; 22.0; 33.0; 44.0 |] (fadd a b);
  Alcotest.(check (array (float 0.0))) "fmul" [| 10.0; 40.0; 90.0; 160.0 |] (fmul a b);
  Alcotest.(check (array (float 0.0))) "fmac" [| 11.0; 42.0; 93.0; 164.0 |]
    (fmac [| 1.0; 2.0; 3.0; 4.0 |] a b);
  Alcotest.(check (array (float 0.0))) "fmax" b (fmax a b);
  Alcotest.(check (array (float 0.0))) "fmin" a (fmin a b);
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
              let want = fmac [| acc |] (fsplat 1 s) [| b |] in
              let got = fmac_scalar [| acc |] s [| b |] in
              if bits want <> bits got then
                Alcotest.failf "fmac_scalar %h %h %h: %Lx, splat form %Lx" acc s b (bits got).(0)
                  (bits want).(0))
            nans)
        nans)
    nans

let test_vec_lane_mismatch () =
  match Fresh.fadd [| 1.0 |] [| 1.0; 2.0 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "lane mismatch must be rejected"

let test_vec_shuffle () =
  let open Fresh in
  let v = [| 10.0; 11.0; 12.0; 13.0 |] in
  Alcotest.(check (array (float 0.0))) "reverse" [| 13.0; 12.0; 11.0; 10.0 |]
    (fshuffle v [| 3; 2; 1; 0 |]);
  (match fshuffle v [| 4 |] with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "out-of-range shuffle index must be rejected");
  Alcotest.(check (array (float 0.0))) "select"
    [| 10.0; 21.0; 12.0; 23.0 |]
    (fselect [| true; false; true; false |] v [| 20.0; 21.0; 22.0; 23.0 |])

let test_vec_srs_semantics () =
  let open Fresh in
  (* Round to nearest (add half, arithmetic shift), saturate. *)
  (* ties round toward +inf: -0.5 becomes 0 *)
  Alcotest.(check (array int)) "round" [| 1; 2; 0 |]
    (srs Cgsim.Dtype.I16 15 [| 16384; 49152; -16384 |]);
  Alcotest.(check (array int)) "half rounds up" [| 1 |] (srs Cgsim.Dtype.I16 1 [| 1 |]);
  Alcotest.(check (array int)) "saturate" [| 32767; -32768 |]
    (srs Cgsim.Dtype.I16 0 [| 1000000; -1000000 |]);
  Alcotest.(check (array int)) "ups" [| 256; -512 |] (ups 8 [| 1; -2 |]);
  match srs Cgsim.Dtype.I16 (-1) [| 0 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative shift must be rejected"

let prop_srs_monotone =
  QCheck.Test.make ~name:"srs is monotone" ~count:300
    QCheck.(pair (int_range (-1000000) 1000000) (int_range 0 1000))
    (fun (x, d) ->
      let lo = Fresh.srs Cgsim.Dtype.I16 15 [| x |] in
      let hi = Fresh.srs Cgsim.Dtype.I16 15 [| x + d |] in
      hi.(0) >= lo.(0))

let test_vec_f32_rounding () =
  (* fadd results are rounded to single precision, and so is every add
     of fsum's reduction tree. *)
  let big = 16777216.0 (* 2^24 *) in
  let r = Fresh.fadd [| big |] [| 1.0 |] in
  Alcotest.(check (float 0.0)) "f32 precision loss" big r.(0);
  Alcotest.(check (float 0.0)) "fsum rounds to f32" big (Fresh.fsum [| big; 1.0 |])

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
      let open Fresh in
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

(* A lane-wise op may write into any of its operands: [alias k] runs the
   op on copies of the operands with [dst] the copy of operand [k], and
   must leave there, bit for bit, what a fresh destination receives.
   fmac_scalar may also write into the array its scalar lane comes
   from, and fsum into the vector it reduces.  A shuffle reads lanes out
   of order, so [dst == v] must raise instead. *)
let prop_vec_aliasing =
  QCheck.Test.make ~name:"vec: dst aliased to an operand == fresh dst (bit for bit)" ~count:300
    (QCheck.make ~print:show_vec_case gen_vec_case)
    (fun c ->
      let open Aie.Vec in
      let n = Array.length c.fa in
      let aliased_f op name operands =
        let want = Array.make n 0.0 in
        op want (Array.map Array.copy operands);
        Array.iteri
          (fun k _ ->
            let ops = Array.map Array.copy operands in
            op ops.(k) ops;
            expect_bits (Printf.sprintf "%s dst = operand %d" name k) want ops.(k))
          operands
      in
      let aliased_i op name operands =
        let want = Array.make n 0 in
        op want (Array.map Array.copy operands);
        Array.iteri
          (fun k _ ->
            let ops = Array.map Array.copy operands in
            op ops.(k) ops;
            expect_ints (Printf.sprintf "%s dst = operand %d" name k) want ops.(k))
          operands
      in
      let ab_f = [| c.fa; c.fb |] and ab_i = [| c.ia; c.ib |] in
      aliased_f (fun dst o -> fadd ~dst o.(0) o.(1)) "fadd" ab_f;
      aliased_f (fun dst o -> fsub ~dst o.(0) o.(1)) "fsub" ab_f;
      aliased_f (fun dst o -> fmul ~dst o.(0) o.(1)) "fmul" ab_f;
      aliased_f (fun dst o -> fmax ~dst o.(0) o.(1)) "fmax" ab_f;
      aliased_f (fun dst o -> fmin ~dst o.(0) o.(1)) "fmin" ab_f;
      aliased_f (fun dst o -> fselect ~dst c.mask o.(0) o.(1)) "fselect" ab_f;
      aliased_f (fun dst o -> fmac ~dst o.(0) o.(1) o.(2)) "fmac" [| c.fc; c.fa; c.fb |];
      aliased_f
        (fun dst o -> fmac_scalar ~dst o.(0) o.(1) 0 o.(2))
        "fmac_scalar" [| c.fc; c.fa; c.fb |];
      aliased_f (fun dst o -> fsum ~dst o.(0)) "fsum" [| c.fa |];
      aliased_i (fun dst o -> iadd ~dst o.(0) o.(1)) "iadd" ab_i;
      aliased_i (fun dst o -> isub ~dst o.(0) o.(1)) "isub" ab_i;
      aliased_i (fun dst o -> imul ~dst o.(0) o.(1)) "imul" ab_i;
      aliased_i (fun dst o -> imac ~dst o.(0) o.(1) o.(2)) "imac" [| c.ic; c.ia; c.ib |];
      aliased_i (fun dst o -> imac_scalar ~dst o.(0) o.(1) c.is) "imac_scalar" [| c.ic; c.ia |];
      List.iter
        (fun dt -> aliased_i (fun dst o -> srs ~dst dt c.shift o.(0)) "srs" [| c.ia |])
        int_dtypes;
      aliased_i (fun dst o -> ups ~dst c.shift o.(0)) "ups" [| c.ia |];
      let perm = Array.init n (fun i -> n - 1 - i) in
      let fv = Array.copy c.fa and iv = Array.copy c.ia in
      if not (raises_invalid (fun () -> fshuffle ~dst:fv fv perm)) then
        QCheck.Test.fail_reportf "fshuffle with dst == v accepted";
      if not (raises_invalid (fun () -> ishuffle ~dst:iv iv perm)) then
        QCheck.Test.fail_reportf "ishuffle with dst == v accepted";
      true)

let prop_vec_rejects_bad_lanes =
  QCheck.Test.make ~name:"vec rejects lane mismatch and out-of-range shuffles" ~count:200
    QCheck.(pair (int_range 1 18) (int_range 1 18))
    (fun (n, m) ->
      let open Aie.Vec in
      let f k = Array.make k 1.0 and i k = Array.make k 1 in
      let mismatched =
        [ "fadd", (fun () -> fadd ~dst:(f n) (f n) (f m));
          "fadd dst", (fun () -> fadd ~dst:(f m) (f n) (f n));
          "fsub", (fun () -> fsub ~dst:(f n) (f n) (f m));
          "fmul", (fun () -> fmul ~dst:(f n) (f n) (f m));
          "fmac acc", (fun () -> fmac ~dst:(f n) (f m) (f n) (f n));
          "fmac b", (fun () -> fmac ~dst:(f n) (f n) (f n) (f m));
          "fmac dst", (fun () -> fmac ~dst:(f m) (f n) (f n) (f n));
          "fmax", (fun () -> fmax ~dst:(f n) (f n) (f m));
          "fmin", (fun () -> fmin ~dst:(f n) (f n) (f m));
          "fselect", (fun () -> fselect ~dst:(f n) (Array.make n true) (f n) (f m));
          "fselect mask", (fun () -> fselect ~dst:(f n) (Array.make m true) (f n) (f n));
          "fselect dst", (fun () -> fselect ~dst:(f m) (Array.make n true) (f n) (f n));
          "fshuffle dst", (fun () -> fshuffle ~dst:(f m) (f n) (Array.make n 0));
          "fsum dst", (fun () -> fsum ~dst:(f m) (f n));
          "iadd", (fun () -> iadd ~dst:(i n) (i n) (i m));
          "iadd dst", (fun () -> iadd ~dst:(i m) (i n) (i n));
          "isub", (fun () -> isub ~dst:(i n) (i n) (i m));
          "imul", (fun () -> imul ~dst:(i n) (i n) (i m));
          "imac acc", (fun () -> imac ~dst:(i n) (i m) (i n) (i n));
          "imac b", (fun () -> imac ~dst:(i n) (i n) (i n) (i m));
          "ishuffle dst", (fun () -> ishuffle ~dst:(i m) (i n) (Array.make n 0));
          "srs dst", (fun () -> srs ~dst:(i m) Cgsim.Dtype.I16 1 (i n));
          "ups dst", (fun () -> ups ~dst:(i m) 1 (i n));
          "fmac_scalar", (fun () -> fmac_scalar ~dst:(f n) (f n) (f 1) 0 (f m));
          "fmac_scalar lane", (fun () -> fmac_scalar ~dst:(f n) (f n) (f m) m (f n));
          "imac_scalar", (fun () -> imac_scalar ~dst:(i n) (i n) (i m) 1) ]
      in
      List.iter
        (fun (op, call) ->
          let must_raise = n <> m || String.equal op "fmac_scalar lane" in
          if must_raise && not (raises_invalid call) then
            QCheck.Test.fail_reportf "%s: %d vs %d lanes accepted" op n m)
        mismatched;
      List.iter
        (fun j ->
          if not (raises_invalid (fun () -> fshuffle ~dst:(f 2) (f n) [| 0; j |])) then
            QCheck.Test.fail_reportf "fshuffle index %d of %d lanes accepted" j n;
          if not (raises_invalid (fun () -> ishuffle ~dst:(i 2) (i n) [| 0; j |])) then
            QCheck.Test.fail_reportf "ishuffle index %d of %d lanes accepted" j n)
        [ -1; n ];
      true)

(* ------------------------------------------------------------------ *)
(* Allocation: untraced intrinsics allocate nothing                   *)
(* ------------------------------------------------------------------ *)

let words_per_call f =
  f ();
  let calls = 1000 in
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int calls

(* Every destination form on 16 lanes, handed [tr]: 0 words per call.
   The rounding absorbs the boxed float each Gc.minor_words reading
   allocates, spread over the 1000 calls. *)
let intrinsics_allocate_nothing ~what tr =
  let lanes = 16 in
  let a = Array.init lanes float_of_int and b = Array.make lanes 0.5 in
  let fd = Array.make lanes 0.0 in
  let acc = Array.init lanes (fun i -> i * 40000) and id = Array.make lanes 0 in
  let idx = Array.init lanes (fun i -> lanes - 1 - i) in
  let mask = Array.init lanes (fun i -> i land 1 = 0) in
  let fmem = Array.make 64 1.0 and imem = Array.make 64 1 in
  let nothing op f =
    let w = words_per_call f in
    if Float.round w <> 0.0 then Alcotest.failf "%s, %s allocates %.2f words per call" what op w
  in
  let open Aie.Intrinsics in
  nothing "fpadd" (fun () -> fpadd tr ~dst:fd a b);
  nothing "fpsub" (fun () -> fpsub tr ~dst:fd a b);
  nothing "fpmul" (fun () -> fpmul tr ~dst:fd a b);
  nothing "fpmac" (fun () -> fpmac tr ~dst:fd a a b);
  nothing "fpmac_scalar" (fun () -> fpmac_scalar tr ~dst:fd a b 3 b);
  nothing "fpmax" (fun () -> fpmax tr ~dst:fd a b);
  nothing "fpmin" (fun () -> fpmin tr ~dst:fd a b);
  nothing "fpshuffle" (fun () -> fpshuffle tr ~dst:fd a idx);
  nothing "fpselect" (fun () -> fpselect tr ~dst:fd mask a b);
  nothing "fpsplat" (fun () -> fpsplat tr ~dst:fd 0.25);
  nothing "fpsum" (fun () -> fpsum tr ~dst:fd a);
  nothing "mul16" (fun () -> mul16 tr ~dst:id acc idx);
  nothing "mac16" (fun () -> mac16 tr ~dst:id acc acc idx);
  nothing "mac16_scalar" (fun () -> mac16_scalar tr ~dst:id acc acc 3);
  nothing "add16" (fun () -> add16 tr ~dst:id acc idx);
  nothing "sub16" (fun () -> sub16 tr ~dst:id acc idx);
  nothing "shuffle16" (fun () -> shuffle16 tr ~dst:id acc idx);
  nothing "mac32" (fun () -> mac32 tr ~dst:id acc acc idx);
  nothing "add32" (fun () -> add32 tr ~dst:id acc idx);
  nothing "sub32" (fun () -> sub32 tr ~dst:id acc idx);
  nothing "srs16" (fun () -> srs16 tr ~dst:id ~shift:4 acc);
  nothing "srs32" (fun () -> srs32 tr ~dst:id ~shift:4 acc);
  nothing "ups16" (fun () -> ups16 tr ~dst:id ~shift:4 idx);
  nothing "load_f32" (fun () -> load_f32 tr ~dst:fd fmem 8);
  nothing "store_f32" (fun () -> store_f32 tr fmem 8 fd);
  nothing "load_i16" (fun () -> load_i16 tr ~dst:id imem 8);
  nothing "store_i16" (fun () -> store_i16 tr imem 8 id);
  let w = words_per_call (fun () -> Aie.Trace.sop tr ~count:3 "addr") in
  if w > 2. then Alcotest.failf "%s, Trace.sop allocates %.1f words per call (bound 2)" what w

(* Untraced ([None]) and with a recorder that is suppressed, as in the
   unrecorded iterations of a pipelined loop. *)
let test_intrinsics_allocate_nothing () =
  intrinsics_allocate_nothing ~what:"no recorder" None;
  let r = Aie.Trace.create_recorder () in
  let tr = Some r in
  Aie.Trace.with_pipelined_loop tr ~trip:2 (fun i ->
      if i = 1 then begin
        Alcotest.(check bool) "suppressed" false (Aie.Trace.recording r);
        intrinsics_allocate_nothing ~what:"suppressed recorder" tr
      end);
  Alcotest.(check int) "only the loop markers recorded" 2 (Aie.Trace.event_count r)

(* ------------------------------------------------------------------ *)
(* Intrinsics: cost emission                                          *)
(* ------------------------------------------------------------------ *)

(* The events [f] records into a fresh recorder it is handed, as a
   kernel bound by aiesim's capture hands its recorder to every op. *)
let with_recording f =
  let r = Aie.Trace.create_recorder () in
  f (Some r);
  Aie.Trace.events r

let vop tr name = Option.iter (fun r -> Aie.Trace.push r (Aie.Trace.Vop { name; slots = 1 })) tr

let show_events evs = String.concat "; " (List.map (Format.asprintf "%a" Aie.Trace.pp_event) evs)

let test_intrinsics_emit_costs () =
  let a16 = Array.make 16 1.0 in
  let events =
    with_recording (fun tr ->
        Aie.Intrinsics.fpmac tr ~dst:(Array.make 16 0.0) (Array.make 16 0.0) a16 a16;
        Aie.Intrinsics.mac16 tr ~dst:(Array.make 32 0) (Array.make 32 0) (Array.make 32 1)
          (Array.make 32 2);
        Aie.Intrinsics.load_f32 tr ~dst:(Array.make 8 0.0) (Array.make 64 0.0) 0;
        Aie.Intrinsics.scalar_op tr "addr";
        Aie.Intrinsics.sub32 tr ~dst:(Array.make 16 0) (Array.make 16 3) (Array.make 16 1))
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
      let fd = Array.make lanes 0.0 and id = Array.make lanes 0 in
      let vector =
        with_recording (fun tr ->
            Aie.Intrinsics.fpmac tr ~dst:fd f (Fresh.fsplat lanes 0.5) f;
            Aie.Intrinsics.mac16 tr ~dst:id i i (Fresh.isplat lanes 7))
      in
      let scalar =
        with_recording (fun tr ->
            Aie.Intrinsics.fpmac_scalar tr ~dst:fd f [| 0.5 |] 0 f;
            Aie.Intrinsics.mac16_scalar tr ~dst:id i i 7)
      in
      if vector <> scalar then
        Alcotest.failf "%d lanes: vector forms record [%s], scalar forms [%s]" lanes
          (show_events vector) (show_events scalar))
    [ 1; 8; 16; 32; 40 ]

(* A recorder records only the ops it is handed to: an op handed [None]
   leaves it empty, the same op handed the recorder records one event. *)
let test_intrinsics_disabled_is_silent () =
  let r = Aie.Trace.create_recorder () in
  let work tr = Aie.Intrinsics.fpadd tr ~dst:(Array.make 1 0.0) [| 1.0 |] [| 2.0 |] in
  work None;
  Alcotest.(check int) "no events without the recorder" 0 (Aie.Trace.event_count r);
  work (Some r);
  Alcotest.(check int) "one event with it" 1 (Aie.Trace.event_count r)

let test_intrinsics_bounds () =
  (match Aie.Intrinsics.load_f32 None ~dst:(Array.make 8 0.0) (Array.make 4 0.0) 2 with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "out-of-range vector load must be rejected");
  (* A negative offset is the intrinsic's own bounds error, not a stdlib
     one from further in. *)
  let rejected what f =
    if not (raises_invalid f) then Alcotest.failf "%s must raise an aie: bounds error" what
  in
  rejected "load_f32 mem (-1)" (fun () ->
      Aie.Intrinsics.load_f32 None ~dst:(Array.make 2 0.0) (Array.make 4 0.0) (-1));
  rejected "load_i16 mem (-3)" (fun () ->
      Aie.Intrinsics.load_i16 None ~dst:(Array.make 2 0) (Array.make 4 0) (-3));
  rejected "store_f32 past the end" (fun () ->
      Aie.Intrinsics.store_f32 None (Array.make 4 0.0) 3 (Array.make 2 0.0))

(* ------------------------------------------------------------------ *)
(* Trace: pipelined-loop recording                                    *)
(* ------------------------------------------------------------------ *)

let test_trace_loop_suppression () =
  let executions = ref 0 in
  let events =
    with_recording (fun tr ->
        Aie.Trace.with_pipelined_loop tr ~trip:10 (fun _ ->
            incr executions;
            vop tr "body"))
  in
  Alcotest.(check int) "body ran trip times" 10 !executions;
  match events with
  | [ Aie.Trace.Loop_enter { trip = 10 }; Aie.Trace.Vop { name = "body"; _ }; Aie.Trace.Loop_exit ]
    ->
    ()
  | evs -> Alcotest.failf "expected one recorded iteration, got %d events" (List.length evs)

let test_trace_loop_abort_marker () =
  let events =
    with_recording (fun tr ->
        try
          Aie.Trace.with_pipelined_loop tr ~trip:10 (fun _ ->
              vop tr "partial";
              raise Exit)
        with Exit -> ())
  in
  match events with
  | [ Aie.Trace.Loop_enter _; Aie.Trace.Vop _; Aie.Trace.Loop_abort ] -> ()
  | evs -> Alcotest.failf "expected abort marker, got %d events" (List.length evs)

let test_trace_zero_trip () =
  let events = with_recording (fun tr -> Aie.Trace.with_pipelined_loop tr ~trip:0 (fun _ -> ())) in
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
      let tr = Aie.Trace.recorder b in
      while true do
        Aie.Trace.with_pipelined_loop tr ~trip:4 (fun _ ->
            vop tr "work";
            Cgsim.Port.put o (Cgsim.Port.get i))
      done)

let test_trace_loop_abort_on_end_of_stream () =
  let g =
    Cgsim.Builder.make ~name:"abortg" ~inputs:[ "x", Cgsim.Dtype.I32 ] (fun b conns ->
        let out = Cgsim.Builder.net b Cgsim.Dtype.I32 in
        ignore (Cgsim.Builder.add_kernel b ~inst:"abortk" loop4_kernel [ List.hd conns; out ]);
        [ out ])
  in
  let r = Aie.Trace.create_recorder () in
  let sink, contents = Cgsim.Io.int_buffer () in
  let ctx = Cgsim.Runtime.instantiate ~context:(fun _ -> Aie.Trace.Recorder r) g in
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
          QCheck_alcotest.to_alcotest prop_vec_aliasing;
          Alcotest.test_case "intrinsics allocate nothing" `Quick test_intrinsics_allocate_nothing;
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
