let samples_per_window = 2048

let block_bytes = 4 * samples_per_window

let group = 8

let basis = 4 + 8 (* y1 y2 x1 x2 then x0..x7 *)

let window_settings = Cgsim.Settings.window block_bytes

(* Column j of the matrix: the contribution of basis element j to the
   eight outputs, obtained by running the biquad recurrence on the unit
   basis vector (linearity).  Basis layout: [y-1; y-2; x-1; x-2; x0..x7]. *)
let section_matrix (s : Workloads.Reference.biquad) =
  let open Workloads.Reference in
  let col j =
    let u k = if j = k then 1.0 else 0.0 in
    let y1 = ref (u 0) and y2 = ref (u 1) in
    let x1 = ref (u 2) and x2 = ref (u 3) in
    Array.init group (fun k ->
        let xk = u (4 + k) in
        let yk =
          (s.b0 *. xk) +. (s.b1 *. !x1) +. (s.b2 *. !x2) -. (s.a1 *. !y1) -. (s.a2 *. !y2)
        in
        x2 := !x1;
        x1 := xk;
        y2 := !y1;
        y1 := yk;
        yk)
  in
  Array.init basis (fun j -> Array.map Cgsim.Value.round_f32 (col j))

let kernel =
  Cgsim.Kernel.define ~realm:Cgsim.Kernel.Aie ~name:"iir_kernel"
    ~rates:[ "in", samples_per_window; "out", samples_per_window ]
    ~pure:true
    [
      Cgsim.Kernel.in_port "in" Cgsim.Dtype.F32 ~settings:window_settings;
      Cgsim.Kernel.out_port "out" Cgsim.Dtype.F32 ~settings:window_settings;
    ]
    (fun b ->
      let input = Cgsim.Kernel.rd b 0 and output = Cgsim.Kernel.wr b 0 in
      let tr = Aie.Trace.recorder b in
      let sections = Workloads.Reference.iir_sections in
      let matrices = Array.map section_matrix sections in
      (* Boundary state per section, carried across groups and windows. *)
      let state = Array.map (fun _ -> [| 0.0; 0.0; 0.0; 0.0 |]) sections in
      let groups = samples_per_window / group in
      let buf = Array.make samples_per_window 0.0 in
      let x = Array.make group 0.0 and acc = Array.make group 0.0 in
      while true do
        Aie.Trace.mark_iteration tr;
        Cgsim.Port.get_window_f32 input buf;
        for si = 0 to Array.length matrices - 1 do
          let m = matrices.(si) and st = state.(si) in
          Aie.Trace.with_pipelined_loop tr ~trip:groups (fun g ->
              Aie.Intrinsics.load_f32 tr ~dst:x buf (g * group);
              Aie.Intrinsics.fpsplat tr ~dst:acc 0.0;
              for j = 0 to 3 do
                Aie.Intrinsics.fpmac_scalar tr ~dst:acc acc st j m.(j)
              done;
              for k = 0 to group - 1 do
                Aie.Intrinsics.fpmac_scalar tr ~dst:acc acc x k m.(4 + k)
              done;
              (* Update boundary state: y1 y2 x1 x2. *)
              st.(1) <- acc.(group - 2);
              st.(0) <- acc.(group - 1);
              st.(3) <- x.(group - 2);
              st.(2) <- x.(group - 1);
              Aie.Intrinsics.scalar_op tr ~count:4 "state";
              Aie.Intrinsics.store_f32 tr buf (g * group) acc)
        done;
        Aie.Intrinsics.scalar_op tr ~count:4 "win_ctl";
        Cgsim.Port.put_window_f32 output buf
      done)

let graph () =
  Cgsim.Builder.make ~name:"iir" ~inputs:[ "in", Cgsim.Dtype.F32 ] (fun b conns ->
      let out = Cgsim.Builder.net b Cgsim.Dtype.F32 in
      ignore (Cgsim.Builder.add_kernel b kernel [ List.hd conns; out ]);
      Cgsim.Builder.attach_attributes b out
        [ Cgsim.Attr.s "plio_name" "iir_out"; Cgsim.Attr.i "plio_width" 64 ];
      [ out ])

let input_samples ~reps = Workloads.Signals.step_noise_f32 ~seed:23 (reps * samples_per_window)

let sources ~reps = [ Cgsim.Io.of_f32_array (input_samples ~reps) ]
