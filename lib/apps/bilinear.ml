let group = 16

let quads_per_block = 256

let quad_bytes = 8

let block_bytes = quads_per_block * quad_bytes

let quad_dtype =
  Cgsim.Dtype.Struct
    [
      "pix", Cgsim.Dtype.Vector (Cgsim.Dtype.U8, 4);
      "xf", Cgsim.Dtype.U16;
      "yf", Cgsim.Dtype.U16;
    ]

let quad_value (q : Workloads.Images.quad) =
  Cgsim.Value.Rec
    [
      ( "pix",
        Cgsim.Value.Vec
          [|
            Cgsim.Value.Int q.p00;
            Cgsim.Value.Int q.p01;
            Cgsim.Value.Int q.p10;
            Cgsim.Value.Int q.p11;
          |] );
      "xf", Cgsim.Value.Int q.xf;
      "yf", Cgsim.Value.Int q.yf;
    ]

let quad_of_value v =
  let pix = Cgsim.Value.to_vec (Cgsim.Value.field v "pix") in
  {
    Workloads.Images.p00 = Cgsim.Value.to_int pix.(0);
    p01 = Cgsim.Value.to_int pix.(1);
    p10 = Cgsim.Value.to_int pix.(2);
    p11 = Cgsim.Value.to_int pix.(3);
    xf = Cgsim.Value.to_int (Cgsim.Value.field v "xf");
    yf = Cgsim.Value.to_int (Cgsim.Value.field v "yf");
  }

(* Vectorized blend over one 16-request group.  Pixels are upshifted to
   Q8, both horizontal blends and the vertical blend use a Q15 multiply
   followed by shift-round (32-bit accumulators, no mid-pipeline
   saturation), matching Workloads.Reference.bilinear_scalar exactly. *)
let blend_group quads =
  let open Aie.Intrinsics in
  if Array.length quads <> group then invalid_arg "bilinear: expected a 16-quad group";
  let lane f = Array.map f quads in
  let p00 = lane (fun q -> q.Workloads.Images.p00) in
  let p01 = lane (fun q -> q.Workloads.Images.p01) in
  let p10 = lane (fun q -> q.Workloads.Images.p10) in
  let p11 = lane (fun q -> q.Workloads.Images.p11) in
  let xf = lane (fun q -> q.Workloads.Images.xf) in
  let yf = lane (fun q -> q.Workloads.Images.yf) in
  let q8 v = ups16 ~shift:8 v in
  let blend a b f =
    (* a + ((b - a) * f) >> 15, rounded, in 32-bit accumulators *)
    let delta = sub32 b a in
    let prod = mac32 (Aie.Vec.isplat group 0) delta f in
    add32 a (srs32 ~shift:15 prod)
  in
  let top = blend (q8 p00) (q8 p01) xf in
  let bot = blend (q8 p10) (q8 p11) xf in
  let out = blend top bot yf in
  Array.map (fun v -> Cgsim.Value.clamp_int Cgsim.Dtype.U16 v) out

let kernel =
  Cgsim.Kernel.define ~realm:Cgsim.Kernel.Aie ~name:"bilinear_kernel"
    ~rates:[ "req", 1; "out", 1 ]
    ~pure:true
    [
      Cgsim.Kernel.in_port "req" quad_dtype;
      Cgsim.Kernel.out_port "out" Cgsim.Dtype.U16;
    ]
    (fun b ->
      let input = Cgsim.Kernel.rd b 0 and output = Cgsim.Kernel.wr b 0 in
      let groups_per_block = quads_per_block / group in
      while true do
        Aie.Trace.mark_iteration ();
        Aie.Trace.with_pipelined_loop ~trip:groups_per_block (fun _g ->
            let quads = Array.map quad_of_value (Cgsim.Port.get_window input group) in
            let out = blend_group quads in
            Aie.Intrinsics.scalar_op ~count:2 "addr";
            Cgsim.Port.put_window_int output out)
      done)

let () = Cgsim.Registry.register kernel

let graph () =
  Cgsim.Builder.make ~name:"bilinear" ~inputs:[ "req", quad_dtype ] (fun b conns ->
      let out = Cgsim.Builder.net b Cgsim.Dtype.U16 in
      ignore (Cgsim.Builder.add_kernel b kernel [ List.hd conns; out ]);
      Cgsim.Builder.attach_attributes b out
        [ Cgsim.Attr.s "plio_name" "bilinear_out"; Cgsim.Attr.i "plio_width" 64 ];
      [ out ])

let image = lazy (Workloads.Images.synthetic ~width:256 ~height:256)

(* Pool domains build request sources concurrently; forcing a lazy from
   two domains at once raises [CamlinternalLazy.Undefined], so the first
   force is serialized. *)
let image_lock = Mutex.create ()

let input_quads ~reps =
  let image = Mutex.protect image_lock (fun () -> Lazy.force image) in
  Workloads.Images.sample_quads ~seed:7 image (reps * quads_per_block)

let sources ~reps =
  [ Cgsim.Io.of_array (Array.map quad_value (input_quads ~reps)) ]
