let lanes = 16

let block_bytes = 4 * lanes

(* Bitonic network for 16 lanes: for merge sizes k = 2,4,8,16 and strides
   j = k/2 .. 1, lane i exchanges with lane (i xor j); ascending regions
   are those with (i land k) = 0.  A lane keeps the minimum of the pair
   when it is the lower index of an ascending pair or the upper index of a
   descending pair. *)
let stages =
  let stage k j =
    let perm = Array.init lanes (fun i -> i lxor j) in
    let keep_min =
      Array.init lanes (fun i ->
          let ascending = i land k = 0 in
          let lower = i land j = 0 in
          Bool.equal ascending lower)
    in
    perm, keep_min
  in
  Array.of_list
    (List.concat_map
       (fun k ->
         let rec strides j = if j = 0 then [] else stage k j :: strides (j / 2) in
         strides (k / 2))
       [ 2; 4; 8; 16 ])

(* The vector registers one sort works in besides the vector it sorts,
   and the recorder its intrinsics charge. *)
type scratch = {
  tr : Aie.Trace.recorder option;
  partner : float array;
  lo : float array;
  hi : float array;
}

let scratch tr =
  { tr; partner = Array.make lanes 0.0; lo = Array.make lanes 0.0; hi = Array.make lanes 0.0 }

let sort_vector s v =
  if Array.length v <> lanes then invalid_arg "bitonic: expected 16 lanes";
  for st = 0 to Array.length stages - 1 do
    let perm, keep_min = stages.(st) in
    Aie.Intrinsics.fpshuffle s.tr ~dst:s.partner v perm;
    Aie.Intrinsics.fpmin s.tr ~dst:s.lo v s.partner;
    Aie.Intrinsics.fpmax s.tr ~dst:s.hi v s.partner;
    Aie.Intrinsics.fpselect s.tr ~dst:v keep_min s.lo s.hi
  done

let kernel =
  Cgsim.Kernel.define ~realm:Cgsim.Kernel.Aie ~name:"bitonic_kernel"
    ~rates:[ "in", lanes; "out", lanes ]
    ~pure:true
    [
      Cgsim.Kernel.in_port "in" Cgsim.Dtype.F32;
      Cgsim.Kernel.out_port "out" Cgsim.Dtype.F32;
    ]
    (fun b ->
      let input = Cgsim.Kernel.rd b 0 and output = Cgsim.Kernel.wr b 0 in
      let v = Array.make lanes 0.0 and s = scratch (Aie.Trace.recorder b) in
      while true do
        Aie.Trace.mark_iteration s.tr;
        Cgsim.Port.get_window_f32 input v;
        sort_vector s v;
        Aie.Intrinsics.scalar_op s.tr ~count:2 "blk_ctl";
        Cgsim.Port.put_window_f32 output v
      done)

let graph () =
  Cgsim.Builder.make ~name:"bitonic" ~inputs:[ "in", Cgsim.Dtype.F32 ] (fun b conns ->
      let out = Cgsim.Builder.net b Cgsim.Dtype.F32 in
      ignore (Cgsim.Builder.add_kernel b kernel [ List.hd conns; out ]);
      Cgsim.Builder.attach_attributes b out
        [ Cgsim.Attr.s "plio_name" "bitonic_out"; Cgsim.Attr.i "plio_width" 64 ];
      [ out ])

let input_floats ~reps = Workloads.Signals.random_f32 ~seed:42 (reps * lanes)

let sources ~reps = [ Cgsim.Io.of_f32_array (input_floats ~reps) ]
