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
   loop, and allocates only its result. *)
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

let fpadd a b =
  vop "fpadd" fp_slots (Array.length a);
  Vec.fadd a b

let fpsub a b =
  vop "fpsub" fp_slots (Array.length a);
  Vec.fsub a b

let fpmul a b =
  vop "fpmul" fp_slots (Array.length a);
  Vec.fmul a b

let fpmac acc a b =
  vop "fpmac" fp_slots (Array.length a);
  Vec.fmac acc a b

let fpmac_scalar acc s b =
  vop "fpmac" fp_slots (Array.length b);
  Vec.fmac_scalar acc s b

let fpmax a b =
  vop "fpmax" fp_slots (Array.length a);
  Vec.fmax a b

let fpmin a b =
  vop "fpmin" fp_slots (Array.length a);
  Vec.fmin a b

let fpshuffle v idx =
  vop "fpshuffle" fp_slots (Array.length idx);
  Vec.fshuffle v idx

let fpselect mask a b =
  vop "fpselect" fp_slots (Array.length a);
  Vec.fselect mask a b

let fpsplat lanes v =
  vop "fpsplat" one_slot lanes;
  Vec.fsplat lanes v

let fpsum v =
  vop "fpsum" sum_slots (Array.length v);
  Vec.fsum v

let mul16 a b =
  vop "mul16" i16_slots (Array.length a);
  Vec.imul a b

let mac16 acc a b =
  vop "mac16" i16_slots (Array.length a);
  Vec.imac acc a b

let mac16_scalar acc a s =
  vop "mac16" i16_slots (Array.length a);
  Vec.imac_scalar acc a s

let add16 a b =
  vop "add16" i16_slots (Array.length a);
  Vec.iadd a b

let sub16 a b =
  vop "sub16" i16_slots (Array.length a);
  Vec.isub a b

let shuffle16 v idx =
  vop "shuffle16" i16_slots (Array.length idx);
  Vec.ishuffle v idx

let mac32 acc a b =
  vop "mac32" i32_slots (Array.length a);
  Vec.imac acc a b

let add32 a b =
  vop "add32" i32_slots (Array.length a);
  Vec.iadd a b

let sub32 a b =
  vop "sub32" i32_slots (Array.length a);
  Vec.isub a b

let srs16 ~shift acc =
  vop "srs16" i16_slots (Array.length acc);
  Vec.srs Cgsim.Dtype.I16 shift acc

let srs32 ~shift acc =
  vop "srs32" i32_slots (Array.length acc);
  Vec.srs Cgsim.Dtype.I32 shift acc

let ups16 ~shift v =
  vop "ups16" i16_slots (Array.length v);
  Vec.ups shift v

let slice name mem off lanes =
  if off < 0 || lanes < 0 || off + lanes > Array.length mem then
    invalid_arg
      (Printf.sprintf "aie: %s out of range (off=%d lanes=%d len=%d)" name off lanes
         (Array.length mem))

let load_f32 mem off lanes =
  slice "load_f32" mem off lanes;
  load (4 * lanes);
  Array.sub mem off lanes

let store_f32 mem off v =
  let lanes = Array.length v in
  slice "store_f32" mem off lanes;
  store (4 * lanes);
  Array.blit v 0 mem off lanes

let load_i16 mem off lanes =
  slice "load_i16" mem off lanes;
  load (2 * lanes);
  Array.sub mem off lanes

let store_i16 mem off v =
  let lanes = Array.length v in
  slice "store_i16" mem off lanes;
  store (2 * lanes);
  Array.blit v 0 mem off lanes

let scalar_op ?count name = Trace.sop ?count name
