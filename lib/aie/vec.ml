(* Every op is a monomorphic loop over [float array] or [int array] that
   writes into the caller's [dst].  A shared higher-order lane helper
   would cost a closure call per lane and, for floats, box both arguments
   and the result: without flambda (and under dune's -opaque dev profile)
   nothing inlines it away.  A float scalar operand is passed as a lane of
   a caller array for the same reason: a bare [float] argument to a
   function of another module is boxed on every call.

   Lane loops index with [unsafe_get]/[unsafe_set] only after the op's
   own checks have fixed every length they touch: [check_lanes], the
   [fselect] mask test, the scalar-lane test and the shuffles' per-lane
   index test.  Nothing else would remove the per-lane bounds checks in
   the dev profile.  Lane-wise ops read lane [i] of every operand before
   they write lane [i] of [dst], so [dst] may be one of their operands. *)

let check_lanes name a b =
  if Array.length a <> Array.length b then
    invalid_arg
      (Printf.sprintf "aie: %s: lane mismatch (%d vs %d)" name (Array.length a) (Array.length b))

(* A shuffle reads lanes in index order, not lane order, so writing into
   its own source would read lanes it has already overwritten. *)
let check_not_aliased name dst v =
  if dst == v then invalid_arg (Printf.sprintf "aie: %s: dst aliases its source" name)

let check_lane name src k =
  if k < 0 || k >= Array.length src then
    invalid_arg (Printf.sprintf "aie: %s scalar lane %d out of range" name k)

(* A loop, not [Array.fill]: the polymorphic fill would box the rounded
   value. *)
let fsplat ~(dst : float array) v =
  let v = Cgsim.Value.round_f32 v in
  for i = 0 to Array.length dst - 1 do
    Array.unsafe_set dst i v
  done

let fadd ~(dst : float array) (a : float array) (b : float array) =
  check_lanes "fadd" dst a;
  check_lanes "fadd" a b;
  for i = 0 to Array.length a - 1 do
    Array.unsafe_set dst i (Cgsim.Value.round_f32 (Array.unsafe_get a i +. Array.unsafe_get b i))
  done

let fsub ~(dst : float array) (a : float array) (b : float array) =
  check_lanes "fsub" dst a;
  check_lanes "fsub" a b;
  for i = 0 to Array.length a - 1 do
    Array.unsafe_set dst i (Cgsim.Value.round_f32 (Array.unsafe_get a i -. Array.unsafe_get b i))
  done

let fmul ~(dst : float array) (a : float array) (b : float array) =
  check_lanes "fmul" dst a;
  check_lanes "fmul" a b;
  for i = 0 to Array.length a - 1 do
    Array.unsafe_set dst i (Cgsim.Value.round_f32 (Array.unsafe_get a i *. Array.unsafe_get b i))
  done

let fmac ~(dst : float array) (acc : float array) (a : float array) (b : float array) =
  check_lanes "fmac" dst acc;
  check_lanes "fmac" acc a;
  check_lanes "fmac" a b;
  for i = 0 to Array.length acc - 1 do
    Array.unsafe_set dst i
      (Cgsim.Value.round_f32
         (Array.unsafe_get acc i +. (Array.unsafe_get a i *. Array.unsafe_get b i)))
  done

(* The scalar is rounded as [fsplat] rounds it and stays the first
   multiplicand, so a NaN operand propagates the same payload as in
   [fmac acc (fsplat n s) b]. *)
let fmac_scalar ~(dst : float array) (acc : float array) (src : float array) k (b : float array) =
  check_lanes "fmac_scalar" dst acc;
  check_lanes "fmac_scalar" acc b;
  check_lane "fmac_scalar" src k;
  let s = Cgsim.Value.round_f32 (Array.unsafe_get src k) in
  for i = 0 to Array.length acc - 1 do
    Array.unsafe_set dst i
      (Cgsim.Value.round_f32 (Array.unsafe_get acc i +. (s *. Array.unsafe_get b i)))
  done

(* A NaN in either lane compares false, so the second operand wins. *)
let fmax ~(dst : float array) (a : float array) (b : float array) =
  check_lanes "fmax" dst a;
  check_lanes "fmax" a b;
  for i = 0 to Array.length a - 1 do
    let x = Array.unsafe_get a i and y = Array.unsafe_get b i in
    Array.unsafe_set dst i (if x >= y then x else y)
  done

let fmin ~(dst : float array) (a : float array) (b : float array) =
  check_lanes "fmin" dst a;
  check_lanes "fmin" a b;
  for i = 0 to Array.length a - 1 do
    let x = Array.unsafe_get a i and y = Array.unsafe_get b i in
    Array.unsafe_set dst i (if x <= y then x else y)
  done

let fshuffle ~(dst : float array) (v : float array) idx =
  check_lanes "fshuffle" dst idx;
  check_not_aliased "fshuffle" dst v;
  for i = 0 to Array.length idx - 1 do
    let j = Array.unsafe_get idx i in
    if j < 0 || j >= Array.length v then
      invalid_arg (Printf.sprintf "aie: fshuffle index %d out of range" j);
    Array.unsafe_set dst i (Array.unsafe_get v j)
  done

let fselect ~(dst : float array) mask (a : float array) (b : float array) =
  check_lanes "fselect" dst a;
  check_lanes "fselect" a b;
  if Array.length mask <> Array.length a then invalid_arg "aie: fselect mask lane mismatch";
  for i = 0 to Array.length a - 1 do
    Array.unsafe_set dst i
      (if Array.unsafe_get mask i then Array.unsafe_get a i else Array.unsafe_get b i)
  done

let fsum ~(dst : float array) (v : float array) =
  check_lanes "fsum" dst v;
  Array.blit v 0 dst 0 (Array.length v);
  let w = ref (Array.length dst) in
  while !w > 1 do
    let h = (!w + 1) / 2 in
    for i = 0 to !w - h - 1 do
      Array.unsafe_set dst i
        (Cgsim.Value.round_f32 (Array.unsafe_get dst i +. Array.unsafe_get dst (i + h)))
    done;
    w := h
  done

let isplat ~(dst : int array) v = Array.fill dst 0 (Array.length dst) v

let iadd ~(dst : int array) (a : int array) (b : int array) =
  check_lanes "iadd" dst a;
  check_lanes "iadd" a b;
  for i = 0 to Array.length a - 1 do
    Array.unsafe_set dst i (Array.unsafe_get a i + Array.unsafe_get b i)
  done

let isub ~(dst : int array) (a : int array) (b : int array) =
  check_lanes "isub" dst a;
  check_lanes "isub" a b;
  for i = 0 to Array.length a - 1 do
    Array.unsafe_set dst i (Array.unsafe_get a i - Array.unsafe_get b i)
  done

let imul ~(dst : int array) (a : int array) (b : int array) =
  check_lanes "imul" dst a;
  check_lanes "imul" a b;
  for i = 0 to Array.length a - 1 do
    Array.unsafe_set dst i (Array.unsafe_get a i * Array.unsafe_get b i)
  done

let imac ~(dst : int array) (acc : int array) (a : int array) (b : int array) =
  check_lanes "imac" dst acc;
  check_lanes "imac" acc a;
  check_lanes "imac" a b;
  for i = 0 to Array.length acc - 1 do
    Array.unsafe_set dst i
      (Array.unsafe_get acc i + (Array.unsafe_get a i * Array.unsafe_get b i))
  done

let imac_scalar ~(dst : int array) (acc : int array) (a : int array) s =
  check_lanes "imac_scalar" dst acc;
  check_lanes "imac_scalar" acc a;
  for i = 0 to Array.length acc - 1 do
    Array.unsafe_set dst i (Array.unsafe_get acc i + (Array.unsafe_get a i * s))
  done

let ishuffle ~(dst : int array) (v : int array) idx =
  check_lanes "ishuffle" dst idx;
  check_not_aliased "ishuffle" dst v;
  for i = 0 to Array.length idx - 1 do
    let j = Array.unsafe_get idx i in
    if j < 0 || j >= Array.length v then
      invalid_arg (Printf.sprintf "aie: ishuffle index %d out of range" j);
    Array.unsafe_set dst i (Array.unsafe_get v j)
  done

let srs ~(dst : int array) dtype shift (acc : int array) =
  if shift < 0 then invalid_arg "aie: srs with negative shift";
  check_lanes "srs" dst acc;
  (* Round to nearest (ties toward +inf): add half, then arithmetic shift.
     This is the AIE default rounding mode for accumulator moves. *)
  let half = if shift = 0 then 0 else 1 lsl (shift - 1) in
  match Cgsim.Value.int_range dtype with
  | None ->
    for i = 0 to Array.length acc - 1 do
      Array.unsafe_set dst i ((Array.unsafe_get acc i + half) asr shift)
    done
  | Some (lo, hi) ->
    for i = 0 to Array.length acc - 1 do
      let x = (Array.unsafe_get acc i + half) asr shift in
      Array.unsafe_set dst i (if x < lo then lo else if x > hi then hi else x)
    done

let ups ~(dst : int array) shift (v : int array) =
  if shift < 0 then invalid_arg "aie: ups with negative shift";
  check_lanes "ups" dst v;
  for i = 0 to Array.length v - 1 do
    Array.unsafe_set dst i (Array.unsafe_get v i lsl shift)
  done
