(* The fp32 ops check their operands here and run their lane loops in
   vec_stubs.c (see vec.mli for why only those).  The int ops are
   monomorphic OCaml loops: a shared higher-order lane helper would cost
   a closure call per lane, and without flambda (and under dune's
   -opaque dev profile) nothing inlines it away.

   Lane loops, in OCaml or in C, index without bounds checks only after
   the op's own checks have fixed every length they touch: [check_lanes],
   the [fselect] mask test, the scalar-lane test and the shuffles'
   per-lane index test (inside the loop).  Lane-wise ops read lane [i] of
   every operand before they write lane [i] of [dst], so [dst] may be one
   of their operands. *)

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

(* The fp32 lane loops live in vec_stubs.c.  Each external takes the
   lane count its checks fixed; a float scalar is unboxed, so passing it
   boxes nothing. *)
external fsplat_lanes : float array -> int -> (float[@unboxed]) -> unit
  = "aie_fsplat_byte" "aie_fsplat"
  [@@noalloc]

external fadd_lanes : float array -> float array -> float array -> int -> unit = "aie_fadd"
  [@@noalloc]

external fsub_lanes : float array -> float array -> float array -> int -> unit = "aie_fsub"
  [@@noalloc]

external fmul_lanes : float array -> float array -> float array -> int -> unit = "aie_fmul"
  [@@noalloc]

external fmax_lanes : float array -> float array -> float array -> int -> unit = "aie_fmax"
  [@@noalloc]

external fmin_lanes : float array -> float array -> float array -> int -> unit = "aie_fmin"
  [@@noalloc]

external fmac_lanes : float array -> float array -> float array -> float array -> int -> unit
  = "aie_fmac"
  [@@noalloc]

external fmac_scalar_lanes :
  float array -> float array -> (float[@unboxed]) -> float array -> int -> unit
  = "aie_fmac_scalar_byte" "aie_fmac_scalar"
  [@@noalloc]

(* Returns the first lane whose index is out of range, or -1. *)
external fshuffle_lanes : float array -> float array -> int array -> int -> int -> int
  = "aie_fshuffle"
  [@@noalloc]

external fselect_lanes : float array -> bool array -> float array -> float array -> int -> unit
  = "aie_fselect"
  [@@noalloc]

external fsum_lanes : float array -> float array -> int -> unit = "aie_fsum" [@@noalloc]

let fsplat ~(dst : float array) v = fsplat_lanes dst (Array.length dst) v

let fadd ~(dst : float array) (a : float array) (b : float array) =
  check_lanes "fadd" dst a;
  check_lanes "fadd" a b;
  fadd_lanes dst a b (Array.length a)

let fsub ~(dst : float array) (a : float array) (b : float array) =
  check_lanes "fsub" dst a;
  check_lanes "fsub" a b;
  fsub_lanes dst a b (Array.length a)

let fmul ~(dst : float array) (a : float array) (b : float array) =
  check_lanes "fmul" dst a;
  check_lanes "fmul" a b;
  fmul_lanes dst a b (Array.length a)

let fmac ~(dst : float array) (acc : float array) (a : float array) (b : float array) =
  check_lanes "fmac" dst acc;
  check_lanes "fmac" acc a;
  check_lanes "fmac" a b;
  fmac_lanes dst acc a b (Array.length acc)

let fmac_scalar ~(dst : float array) (acc : float array) (src : float array) k (b : float array) =
  check_lanes "fmac_scalar" dst acc;
  check_lanes "fmac_scalar" acc b;
  check_lane "fmac_scalar" src k;
  fmac_scalar_lanes dst acc (Array.unsafe_get src k) b (Array.length acc)

let fmax ~(dst : float array) (a : float array) (b : float array) =
  check_lanes "fmax" dst a;
  check_lanes "fmax" a b;
  fmax_lanes dst a b (Array.length a)

let fmin ~(dst : float array) (a : float array) (b : float array) =
  check_lanes "fmin" dst a;
  check_lanes "fmin" a b;
  fmin_lanes dst a b (Array.length a)

let fshuffle ~(dst : float array) (v : float array) idx =
  check_lanes "fshuffle" dst idx;
  check_not_aliased "fshuffle" dst v;
  let bad = fshuffle_lanes dst v idx (Array.length idx) (Array.length v) in
  if bad >= 0 then
    invalid_arg (Printf.sprintf "aie: fshuffle index %d out of range" (Array.unsafe_get idx bad))

let fselect ~(dst : float array) mask (a : float array) (b : float array) =
  check_lanes "fselect" dst a;
  check_lanes "fselect" a b;
  if Array.length mask <> Array.length a then invalid_arg "aie: fselect mask lane mismatch";
  fselect_lanes dst mask a b (Array.length a)

let fsum ~(dst : float array) (v : float array) =
  check_lanes "fsum" dst v;
  fsum_lanes dst v (Array.length v)

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
