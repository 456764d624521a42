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

(* The vector registers one group's blend works in: the six request
   lanes, then the two horizontal blends and the multiply temporaries;
   and the recorder its intrinsics charge. *)
type scratch = {
  tr : Aie.Trace.recorder option;
  p00 : int array;
  p01 : int array;
  p10 : int array;
  p11 : int array;
  xf : int array;
  yf : int array;
  top : int array;
  bot : int array;
  delta : int array;
  prod : int array;
}

let scratch tr =
  let lane () = Array.make group 0 in
  {
    tr;
    p00 = lane ();
    p01 = lane ();
    p10 = lane ();
    p11 = lane ();
    xf = lane ();
    yf = lane ();
    top = lane ();
    bot = lane ();
    delta = lane ();
    prod = lane ();
  }

(* dst = a + ((b - a) * f) >> 15, rounded, in 32-bit accumulators. *)
let blend s ~dst a b f =
  let open Aie.Intrinsics in
  sub32 s.tr ~dst:s.delta b a;
  Aie.Vec.isplat ~dst:s.prod 0;
  mac32 s.tr ~dst:s.prod s.prod s.delta f;
  srs32 s.tr ~dst:s.prod ~shift:15 s.prod;
  add32 s.tr ~dst a s.prod

(* A request's lanes in a {!quad_dtype} lane buffer: the four pixels,
   then xf, then yf. *)
let lanes_per_req = 6

(* Vectorized blend over one 16-request group.  Pixels are upshifted to
   Q8, both horizontal blends and the vertical blend use a Q15 multiply
   followed by shift-round (32-bit accumulators, no mid-pipeline
   saturation), matching Workloads.Reference.bilinear_scalar exactly. *)
let blend_group s ~dst (req : Cgsim.Port.lanes) =
  let open Aie.Intrinsics in
  if Array.length req.ints < group * lanes_per_req then
    invalid_arg "bilinear: expected a 16-request group";
  Aie.Vec.check_lanes "bilinear output" dst s.top;
  (* Request lanes straight into the vector registers. *)
  let l = req.ints in
  for i = 0 to group - 1 do
    let b = i * lanes_per_req in
    s.p00.(i) <- l.(b);
    s.p01.(i) <- l.(b + 1);
    s.p10.(i) <- l.(b + 2);
    s.p11.(i) <- l.(b + 3);
    s.xf.(i) <- l.(b + 4);
    s.yf.(i) <- l.(b + 5)
  done;
  ups16 s.tr ~dst:s.p01 ~shift:8 s.p01;
  ups16 s.tr ~dst:s.p00 ~shift:8 s.p00;
  blend s ~dst:s.top s.p00 s.p01 s.xf;
  ups16 s.tr ~dst:s.p11 ~shift:8 s.p11;
  ups16 s.tr ~dst:s.p10 ~shift:8 s.p10;
  blend s ~dst:s.bot s.p10 s.p11 s.xf;
  blend s ~dst:s.top s.top s.bot s.yf;
  for i = 0 to group - 1 do
    dst.(i) <- Cgsim.Value.clamp_int Cgsim.Dtype.U16 s.top.(i)
  done

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
      let s = scratch (Aie.Trace.recorder b) and out = Array.make group 0 in
      let req = Cgsim.Port.lanes quad_dtype group in
      while true do
        Aie.Trace.mark_iteration s.tr;
        Aie.Trace.with_pipelined_loop s.tr ~trip:groups_per_block (fun _g ->
            Cgsim.Port.get_lanes input req 0 group;
            blend_group s ~dst:out req;
            Aie.Intrinsics.scalar_op s.tr ~count:2 "addr";
            Cgsim.Port.put_window_int output out)
      done)

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
