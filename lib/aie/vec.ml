(* Every op is a monomorphic loop over [float array] or [int array].  A
   shared higher-order lane helper would cost a closure call per lane and,
   for floats, box both arguments and the result: without flambda (and
   under dune's -opaque dev profile) nothing inlines it away.

   Lane loops index with [unsafe_get]/[unsafe_set] only after the op's
   own checks have fixed every length they touch: [check_lanes], the
   [fselect] mask test, and the shuffles' per-lane index test.  Nothing
   else would remove the per-lane bounds checks in the dev profile. *)

let check_lanes name a b =
  if Array.length a <> Array.length b then
    invalid_arg
      (Printf.sprintf "aie: %s: lane mismatch (%d vs %d)" name (Array.length a) (Array.length b))

let fsplat lanes v = Array.make lanes (Cgsim.Value.round_f32 v)

let fadd (a : float array) (b : float array) =
  check_lanes "fadd" a b;
  let r = Array.create_float (Array.length a) in
  for i = 0 to Array.length a - 1 do
    Array.unsafe_set r i (Cgsim.Value.round_f32 (Array.unsafe_get a i +. Array.unsafe_get b i))
  done;
  r

let fsub (a : float array) (b : float array) =
  check_lanes "fsub" a b;
  let r = Array.create_float (Array.length a) in
  for i = 0 to Array.length a - 1 do
    Array.unsafe_set r i (Cgsim.Value.round_f32 (Array.unsafe_get a i -. Array.unsafe_get b i))
  done;
  r

let fmul (a : float array) (b : float array) =
  check_lanes "fmul" a b;
  let r = Array.create_float (Array.length a) in
  for i = 0 to Array.length a - 1 do
    Array.unsafe_set r i (Cgsim.Value.round_f32 (Array.unsafe_get a i *. Array.unsafe_get b i))
  done;
  r

let fmac (acc : float array) (a : float array) (b : float array) =
  check_lanes "fmac" acc a;
  check_lanes "fmac" a b;
  let r = Array.create_float (Array.length acc) in
  for i = 0 to Array.length acc - 1 do
    Array.unsafe_set r i
      (Cgsim.Value.round_f32
         (Array.unsafe_get acc i +. (Array.unsafe_get a i *. Array.unsafe_get b i)))
  done;
  r

(* The scalar is rounded as [fsplat] rounds it and stays the first
   multiplicand, so a NaN operand propagates the same payload as in
   [fmac acc (fsplat n s) b]. *)
let fmac_scalar (acc : float array) s (b : float array) =
  check_lanes "fmac_scalar" acc b;
  let s = Cgsim.Value.round_f32 s in
  let r = Array.create_float (Array.length acc) in
  for i = 0 to Array.length acc - 1 do
    Array.unsafe_set r i
      (Cgsim.Value.round_f32 (Array.unsafe_get acc i +. (s *. Array.unsafe_get b i)))
  done;
  r

(* A NaN in either lane compares false, so the second operand wins. *)
let fmax (a : float array) (b : float array) =
  check_lanes "fmax" a b;
  let r = Array.create_float (Array.length a) in
  for i = 0 to Array.length a - 1 do
    let x = Array.unsafe_get a i and y = Array.unsafe_get b i in
    Array.unsafe_set r i (if x >= y then x else y)
  done;
  r

let fmin (a : float array) (b : float array) =
  check_lanes "fmin" a b;
  let r = Array.create_float (Array.length a) in
  for i = 0 to Array.length a - 1 do
    let x = Array.unsafe_get a i and y = Array.unsafe_get b i in
    Array.unsafe_set r i (if x <= y then x else y)
  done;
  r

let fshuffle (v : float array) idx =
  let r = Array.create_float (Array.length idx) in
  for i = 0 to Array.length idx - 1 do
    let j = Array.unsafe_get idx i in
    if j < 0 || j >= Array.length v then
      invalid_arg (Printf.sprintf "aie: fshuffle index %d out of range" j);
    Array.unsafe_set r i (Array.unsafe_get v j)
  done;
  r

let fselect mask (a : float array) (b : float array) =
  check_lanes "fselect" a b;
  if Array.length mask <> Array.length a then invalid_arg "aie: fselect mask lane mismatch";
  let r = Array.create_float (Array.length a) in
  for i = 0 to Array.length a - 1 do
    Array.unsafe_set r i
      (if Array.unsafe_get mask i then Array.unsafe_get a i else Array.unsafe_get b i)
  done;
  r

let fsum (v : float array) =
  let t = Array.copy v in
  let w = ref (Array.length t) in
  while !w > 1 do
    let h = (!w + 1) / 2 in
    for i = 0 to !w - h - 1 do
      Array.unsafe_set t i
        (Cgsim.Value.round_f32 (Array.unsafe_get t i +. Array.unsafe_get t (i + h)))
    done;
    w := h
  done;
  if Array.length t = 0 then 0.0 else t.(0)

let isplat lanes v = Array.make lanes v

let iadd (a : int array) (b : int array) =
  check_lanes "iadd" a b;
  let r = Array.make (Array.length a) 0 in
  for i = 0 to Array.length a - 1 do
    Array.unsafe_set r i (Array.unsafe_get a i + Array.unsafe_get b i)
  done;
  r

let isub (a : int array) (b : int array) =
  check_lanes "isub" a b;
  let r = Array.make (Array.length a) 0 in
  for i = 0 to Array.length a - 1 do
    Array.unsafe_set r i (Array.unsafe_get a i - Array.unsafe_get b i)
  done;
  r

let imul (a : int array) (b : int array) =
  check_lanes "imul" a b;
  let r = Array.make (Array.length a) 0 in
  for i = 0 to Array.length a - 1 do
    Array.unsafe_set r i (Array.unsafe_get a i * Array.unsafe_get b i)
  done;
  r

let imac (acc : int array) (a : int array) (b : int array) =
  check_lanes "imac" acc a;
  check_lanes "imac" a b;
  let r = Array.make (Array.length acc) 0 in
  for i = 0 to Array.length acc - 1 do
    Array.unsafe_set r i
      (Array.unsafe_get acc i + (Array.unsafe_get a i * Array.unsafe_get b i))
  done;
  r

let imac_scalar (acc : int array) (a : int array) s =
  check_lanes "imac_scalar" acc a;
  let r = Array.make (Array.length acc) 0 in
  for i = 0 to Array.length acc - 1 do
    Array.unsafe_set r i (Array.unsafe_get acc i + (Array.unsafe_get a i * s))
  done;
  r

let ishuffle (v : int array) idx =
  let r = Array.make (Array.length idx) 0 in
  for i = 0 to Array.length idx - 1 do
    let j = Array.unsafe_get idx i in
    if j < 0 || j >= Array.length v then
      invalid_arg (Printf.sprintf "aie: ishuffle index %d out of range" j);
    Array.unsafe_set r i (Array.unsafe_get v j)
  done;
  r

let srs dtype shift (acc : int array) =
  if shift < 0 then invalid_arg "aie: srs with negative shift";
  (* Round to nearest (ties toward +inf): add half, then arithmetic shift.
     This is the AIE default rounding mode for accumulator moves. *)
  let half = if shift = 0 then 0 else 1 lsl (shift - 1) in
  let r = Array.make (Array.length acc) 0 in
  (match Cgsim.Value.int_range dtype with
   | None ->
     for i = 0 to Array.length acc - 1 do
       Array.unsafe_set r i ((Array.unsafe_get acc i + half) asr shift)
     done
   | Some (lo, hi) ->
     for i = 0 to Array.length acc - 1 do
       let x = (Array.unsafe_get acc i + half) asr shift in
       Array.unsafe_set r i (if x < lo then lo else if x > hi then hi else x)
     done);
  r

let ups shift (v : int array) =
  if shift < 0 then invalid_arg "aie: ups with negative shift";
  let r = Array.make (Array.length v) 0 in
  for i = 0 to Array.length v - 1 do
    Array.unsafe_set r i (Array.unsafe_get v i lsl shift)
  done;
  r
