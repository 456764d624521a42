(* ---------------- bitonic ---------------- *)

let sort_f32 a =
  let b = Array.copy a in
  Array.sort compare b;
  b

(* ---------------- farrow ---------------- *)

let farrow_taps = 4

(* Cubic Lagrange interpolation in Farrow structure: tap weights are
   polynomials in the fractional delay d, h_k(d) = sum_m C.(m).(k) d^m.
   At d = 0 the response is a pure one-sample delay. *)
let farrow_coeffs_float =
  [|
    (* m = 0 *) [| 0.0; 1.0; 0.0; 0.0 |];
    (* m = 1 *) [| -1.0 /. 3.0; -0.5; 1.0; -1.0 /. 6.0 |];
    (* m = 2 *) [| 0.5; -1.0; 0.5; 0.0 |];
    (* m = 3 *) [| -1.0 /. 6.0; 0.5; -0.5; 1.0 /. 6.0 |];
  |]

let q15 x = Cgsim.Value.clamp_int Cgsim.Dtype.I16 (int_of_float (Float.round (x *. 32768.0)))

let farrow_coeffs_q15 = Array.map (Array.map q15) farrow_coeffs_float

let srs15 x =
  let y = [| 0 |] in
  Aie.Vec.srs ~dst:y Cgsim.Dtype.I16 15 [| x |];
  y.(0)

let farrow_scalar ~d_q15 x =
  let n = Array.length x in
  let sample i = if i < 0 then 0 else x.(i) in
  Array.init n (fun i ->
      (* Sub-filter convolutions c_m = srs15(sum_k C[m][k] * x[i-3+k]). *)
      let c =
        Array.map
          (fun row ->
            let acc = ref 0 in
            for k = 0 to farrow_taps - 1 do
              acc := !acc + (row.(k) * sample (i - (farrow_taps - 1) + k))
            done;
            srs15 !acc)
          farrow_coeffs_q15
      in
      (* Horner in d (Q15): acc = ((c3*d + c2)*d + c1)*d + c0. *)
      let acc = ref c.(3) in
      for m = 2 downto 0 do
        acc := srs15 (!acc * d_q15) + c.(m)
      done;
      Cgsim.Value.clamp_int Cgsim.Dtype.I16 !acc)

(* ---------------- IIR ---------------- *)

type biquad = {
  b0 : float;
  b1 : float;
  b2 : float;
  a1 : float;
  a2 : float;
}

let design_lowpass ~cutoff ~q =
  if cutoff <= 0.0 || cutoff >= 0.5 then invalid_arg "design_lowpass: cutoff must be in (0, 0.5)";
  let w0 = 2.0 *. Float.pi *. cutoff in
  let alpha = sin w0 /. (2.0 *. q) in
  let cosw = cos w0 in
  let a0 = 1.0 +. alpha in
  {
    b0 = (1.0 -. cosw) /. 2.0 /. a0;
    b1 = (1.0 -. cosw) /. a0;
    b2 = (1.0 -. cosw) /. 2.0 /. a0;
    a1 = -2.0 *. cosw /. a0;
    a2 = (1.0 -. alpha) /. a0;
  }

let iir_sections =
  (* 6th-order Butterworth as a cascade: section Qs 1/(2 cos(pi/12 * k)). *)
  [|
    design_lowpass ~cutoff:0.1 ~q:0.5176;
    design_lowpass ~cutoff:0.1 ~q:0.7071;
    design_lowpass ~cutoff:0.1 ~q:1.9319;
  |]

let iir_scalar sections x =
  let y = Array.copy x in
  Array.iter
    (fun s ->
      let x1 = ref 0.0 and x2 = ref 0.0 and y1 = ref 0.0 and y2 = ref 0.0 in
      for i = 0 to Array.length y - 1 do
        let xi = y.(i) in
        let yi =
          (s.b0 *. xi) +. (s.b1 *. !x1) +. (s.b2 *. !x2) -. (s.a1 *. !y1) -. (s.a2 *. !y2)
        in
        x2 := !x1;
        x1 := xi;
        y2 := !y1;
        y1 := yi;
        y.(i) <- yi
      done)
    sections;
  y

(* ---------------- bilinear ---------------- *)

let srs15_wide x =
  (* Same rounding as srs15 but in the 32-bit domain: Q8 pixel deltas can
     exceed the int16 range mid-pipeline. *)
  let y = [| 0 |] in
  Aie.Vec.srs ~dst:y Cgsim.Dtype.I32 15 [| x |];
  y.(0)

let bilinear_scalar ~p00 ~p01 ~p10 ~p11 ~xf ~yf =
  let q8 p = p lsl 8 in
  let blend a b f = a + srs15_wide ((b - a) * f) in
  let top = blend (q8 p00) (q8 p01) xf in
  let bot = blend (q8 p10) (q8 p11) xf in
  Cgsim.Value.clamp_int Cgsim.Dtype.U16 (blend top bot yf)
