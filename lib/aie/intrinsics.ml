let ceil_div a b = (a + b - 1) / b

let fp_slots lanes = max 1 (ceil_div lanes Cfg.fp32_macs_per_cycle)

let i16_slots lanes = max 1 (ceil_div lanes Cfg.int16_macs_per_cycle)

let i32_slots lanes = max 1 (ceil_div lanes Cfg.int32_macs_per_cycle)

let sum_slots lanes =
  (* Tree reduction: log2(lanes) shuffle+add pairs. *)
  max 1 (int_of_float (ceil (log (float_of_int (max 2 lanes)) /. log 2.0)))

let one_slot _ = 1

(* Every op matches the running fiber's recorder before it computes a
   slot count or builds an event, then calls its Vec op directly:
   untraced, a call costs a [Sched.local] call, one branch and one lane
   loop into the caller's [dst], and allocates nothing. *)
let[@inline] vop name slots lanes =
  match Cgsim.Sched.local () with
  | Trace.Recorder r when Trace.recording r ->
    Trace.push r (Trace.Vop { name; slots = slots lanes })
  | _ -> ()

let[@inline] load bytes =
  match Cgsim.Sched.local () with
  | Trace.Recorder r when Trace.recording r -> Trace.push r (Trace.Load { bytes })
  | _ -> ()

let[@inline] store bytes =
  match Cgsim.Sched.local () with
  | Trace.Recorder r when Trace.recording r -> Trace.push r (Trace.Store { bytes })
  | _ -> ()

let fpadd ~dst a b =
  vop "fpadd" fp_slots (Array.length a);
  Vec.fadd ~dst a b

let fpsub ~dst a b =
  vop "fpsub" fp_slots (Array.length a);
  Vec.fsub ~dst a b

let fpmul ~dst a b =
  vop "fpmul" fp_slots (Array.length a);
  Vec.fmul ~dst a b

let fpmac ~dst acc a b =
  vop "fpmac" fp_slots (Array.length a);
  Vec.fmac ~dst acc a b

let fpmac_scalar ~dst acc src k b =
  vop "fpmac" fp_slots (Array.length b);
  Vec.fmac_scalar ~dst acc src k b

let fpmax ~dst a b =
  vop "fpmax" fp_slots (Array.length a);
  Vec.fmax ~dst a b

let fpmin ~dst a b =
  vop "fpmin" fp_slots (Array.length a);
  Vec.fmin ~dst a b

let fpshuffle ~dst v idx =
  vop "fpshuffle" fp_slots (Array.length idx);
  Vec.fshuffle ~dst v idx

let fpselect ~dst mask a b =
  vop "fpselect" fp_slots (Array.length a);
  Vec.fselect ~dst mask a b

let fpsplat ~dst v =
  vop "fpsplat" one_slot (Array.length dst);
  Vec.fsplat ~dst v

let fpsum ~dst v =
  vop "fpsum" sum_slots (Array.length v);
  Vec.fsum ~dst v

let mul16 ~dst a b =
  vop "mul16" i16_slots (Array.length a);
  Vec.imul ~dst a b

let mac16 ~dst acc a b =
  vop "mac16" i16_slots (Array.length a);
  Vec.imac ~dst acc a b

let mac16_scalar ~dst acc a s =
  vop "mac16" i16_slots (Array.length a);
  Vec.imac_scalar ~dst acc a s

let add16 ~dst a b =
  vop "add16" i16_slots (Array.length a);
  Vec.iadd ~dst a b

let sub16 ~dst a b =
  vop "sub16" i16_slots (Array.length a);
  Vec.isub ~dst a b

let shuffle16 ~dst v idx =
  vop "shuffle16" i16_slots (Array.length idx);
  Vec.ishuffle ~dst v idx

let mac32 ~dst acc a b =
  vop "mac32" i32_slots (Array.length a);
  Vec.imac ~dst acc a b

let add32 ~dst a b =
  vop "add32" i32_slots (Array.length a);
  Vec.iadd ~dst a b

let sub32 ~dst a b =
  vop "sub32" i32_slots (Array.length a);
  Vec.isub ~dst a b

let srs16 ~dst ~shift acc =
  vop "srs16" i16_slots (Array.length acc);
  Vec.srs ~dst Cgsim.Dtype.I16 shift acc

let srs32 ~dst ~shift acc =
  vop "srs32" i32_slots (Array.length acc);
  Vec.srs ~dst Cgsim.Dtype.I32 shift acc

let ups16 ~dst ~shift v =
  vop "ups16" i16_slots (Array.length v);
  Vec.ups ~dst shift v

let slice name mem off lanes =
  if off < 0 || off + lanes > Array.length mem then
    invalid_arg
      (Printf.sprintf "aie: %s out of range (off=%d lanes=%d len=%d)" name off lanes
         (Array.length mem))

let load_f32 ~dst mem off =
  let lanes = Array.length dst in
  slice "load_f32" mem off lanes;
  load (4 * lanes);
  Array.blit mem off dst 0 lanes

let store_f32 mem off v =
  let lanes = Array.length v in
  slice "store_f32" mem off lanes;
  store (4 * lanes);
  Array.blit v 0 mem off lanes

let load_i16 ~dst mem off =
  let lanes = Array.length dst in
  slice "load_i16" mem off lanes;
  load (2 * lanes);
  Array.blit mem off dst 0 lanes

let store_i16 mem off v =
  let lanes = Array.length v in
  slice "store_i16" mem off lanes;
  store (2 * lanes);
  Array.blit v 0 mem off lanes

let scalar_op ?count name = Trace.sop ?count name
