let ceil_div a b = (a + b - 1) / b

let fp_slots lanes = max 1 (ceil_div lanes Cfg.fp32_macs_per_cycle)

let i16_slots lanes = max 1 (ceil_div lanes Cfg.int16_macs_per_cycle)

let i32_slots lanes = max 1 (ceil_div lanes Cfg.int32_macs_per_cycle)

let sum_slots lanes =
  (* Tree reduction: log2(lanes) shuffle+add pairs. *)
  max 1 (int_of_float (ceil (log (float_of_int (max 2 lanes)) /. log 2.0)))

let one_slot _ = 1

(* Every op tests the recorder it is handed before it computes a slot
   count or builds an event, then calls its Vec op directly: untraced
   ([None]), a call costs one branch and one lane loop into the caller's
   [dst], and allocates nothing. *)
let[@inline] vop tr name slots lanes =
  match tr with
  | Some r when Trace.recording r -> Trace.push r (Trace.Vop { name; slots = slots lanes })
  | _ -> ()

let[@inline] load tr bytes =
  match tr with
  | Some r when Trace.recording r -> Trace.push r (Trace.Load { bytes })
  | _ -> ()

let[@inline] store tr bytes =
  match tr with
  | Some r when Trace.recording r -> Trace.push r (Trace.Store { bytes })
  | _ -> ()

let fpadd tr ~dst a b =
  vop tr "fpadd" fp_slots (Array.length a);
  Vec.fadd ~dst a b

let fpsub tr ~dst a b =
  vop tr "fpsub" fp_slots (Array.length a);
  Vec.fsub ~dst a b

let fpmul tr ~dst a b =
  vop tr "fpmul" fp_slots (Array.length a);
  Vec.fmul ~dst a b

let fpmac tr ~dst acc a b =
  vop tr "fpmac" fp_slots (Array.length a);
  Vec.fmac ~dst acc a b

let fpmac_scalar tr ~dst acc src k b =
  vop tr "fpmac" fp_slots (Array.length b);
  Vec.fmac_scalar ~dst acc src k b

let fpmax tr ~dst a b =
  vop tr "fpmax" fp_slots (Array.length a);
  Vec.fmax ~dst a b

let fpmin tr ~dst a b =
  vop tr "fpmin" fp_slots (Array.length a);
  Vec.fmin ~dst a b

let fpshuffle tr ~dst v idx =
  vop tr "fpshuffle" fp_slots (Array.length idx);
  Vec.fshuffle ~dst v idx

let fpselect tr ~dst mask a b =
  vop tr "fpselect" fp_slots (Array.length a);
  Vec.fselect ~dst mask a b

let fpsplat tr ~dst v =
  vop tr "fpsplat" one_slot (Array.length dst);
  Vec.fsplat ~dst v

let fpsum tr ~dst v =
  vop tr "fpsum" sum_slots (Array.length v);
  Vec.fsum ~dst v

let mul16 tr ~dst a b =
  vop tr "mul16" i16_slots (Array.length a);
  Vec.imul ~dst a b

let mac16 tr ~dst acc a b =
  vop tr "mac16" i16_slots (Array.length a);
  Vec.imac ~dst acc a b

let mac16_scalar tr ~dst acc a s =
  vop tr "mac16" i16_slots (Array.length a);
  Vec.imac_scalar ~dst acc a s

let add16 tr ~dst a b =
  vop tr "add16" i16_slots (Array.length a);
  Vec.iadd ~dst a b

let sub16 tr ~dst a b =
  vop tr "sub16" i16_slots (Array.length a);
  Vec.isub ~dst a b

let shuffle16 tr ~dst v idx =
  vop tr "shuffle16" i16_slots (Array.length idx);
  Vec.ishuffle ~dst v idx

let mac32 tr ~dst acc a b =
  vop tr "mac32" i32_slots (Array.length a);
  Vec.imac ~dst acc a b

let add32 tr ~dst a b =
  vop tr "add32" i32_slots (Array.length a);
  Vec.iadd ~dst a b

let sub32 tr ~dst a b =
  vop tr "sub32" i32_slots (Array.length a);
  Vec.isub ~dst a b

let srs16 tr ~dst ~shift acc =
  vop tr "srs16" i16_slots (Array.length acc);
  Vec.srs ~dst Cgsim.Dtype.I16 shift acc

let srs32 tr ~dst ~shift acc =
  vop tr "srs32" i32_slots (Array.length acc);
  Vec.srs ~dst Cgsim.Dtype.I32 shift acc

let ups16 tr ~dst ~shift v =
  vop tr "ups16" i16_slots (Array.length v);
  Vec.ups ~dst shift v

let slice name mem off lanes =
  if off < 0 || off + lanes > Array.length mem then
    invalid_arg
      (Printf.sprintf "aie: %s out of range (off=%d lanes=%d len=%d)" name off lanes
         (Array.length mem))

let load_f32 tr ~dst mem off =
  let lanes = Array.length dst in
  slice "load_f32" mem off lanes;
  load tr (4 * lanes);
  Array.blit mem off dst 0 lanes

let store_f32 tr mem off v =
  let lanes = Array.length v in
  slice "store_f32" mem off lanes;
  store tr (4 * lanes);
  Array.blit v 0 mem off lanes

let load_i16 tr ~dst mem off =
  let lanes = Array.length dst in
  slice "load_i16" mem off lanes;
  load tr (2 * lanes);
  Array.blit mem off dst 0 lanes

let store_i16 tr mem off v =
  let lanes = Array.length v in
  slice "store_i16" mem off lanes;
  store tr (2 * lanes);
  Array.blit v 0 mem off lanes

let scalar_op tr ?count name = Trace.sop tr ?count name
