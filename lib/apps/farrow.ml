let samples_per_window = 2048

let block_bytes = 2 * samples_per_window

let group = 32

let taps = Workloads.Reference.farrow_taps

let cascade_dtype = Cgsim.Dtype.Vector (Cgsim.Dtype.I16, 2)

let window_settings = Cgsim.Settings.window block_bytes

(* --------------------------- stage 1 --------------------------- *)

let stage1 =
  Cgsim.Kernel.define ~realm:Cgsim.Kernel.Aie ~name:"farrow_stage1"
    ~rates:[ "in", samples_per_window; "c01", samples_per_window; "c23", samples_per_window ]
    ~pure:true
    [
      Cgsim.Kernel.in_port "in" Cgsim.Dtype.I16 ~settings:window_settings;
      Cgsim.Kernel.out_port "c01" cascade_dtype;
      Cgsim.Kernel.out_port "c23" cascade_dtype;
    ]
    (fun b ->
      let input = Cgsim.Kernel.rd b 0 in
      let c01 = Cgsim.Kernel.wr b 0 and c23 = Cgsim.Kernel.wr b 1 in
      let tr = Aie.Trace.recorder b in
      let coeffs = Workloads.Reference.farrow_coeffs_q15 in
      let groups = samples_per_window / group in
      (* ext.(i + taps - 1) = samples.(i), prefixed with the sample
         history across window boundaries (zero-initialised, as in the
         scalar reference). *)
      let samples = Array.make samples_per_window 0 in
      let ext = Array.make (taps - 1 + samples_per_window) 0 in
      let x = Array.init taps (fun _ -> Array.make group 0) in
      let acc = Array.make group 0 in
      let c = Array.init (Array.length coeffs) (fun _ -> Array.make group 0) in
      (* One group of (c0, c1) and (c2, c3) pairs, two lanes each. *)
      let out01 = Cgsim.Port.lanes cascade_dtype group in
      let out23 = Cgsim.Port.lanes cascade_dtype group in
      while true do
        Aie.Trace.mark_iteration tr;
        Cgsim.Port.get_window_int input samples;
        Array.blit samples 0 ext (taps - 1) samples_per_window;
        Aie.Intrinsics.scalar_op tr ~count:4 "win_setup";
        Aie.Trace.with_pipelined_loop tr ~trip:groups (fun g ->
            let base = g * group in
            (* One shifted 32-lane load per tap, shared by all four
               sub-filters. *)
            for k = 0 to taps - 1 do
              Aie.Intrinsics.load_i16 tr ~dst:x.(k) ext (base + k)
            done;
            for m = 0 to Array.length coeffs - 1 do
              let row = coeffs.(m) in
              Aie.Vec.isplat ~dst:acc 0;
              for k = 0 to taps - 1 do
                Aie.Intrinsics.mac16_scalar tr ~dst:acc acc x.(k) row.(k)
              done;
              Aie.Intrinsics.srs16 tr ~dst:c.(m) ~shift:15 acc
            done;
            Aie.Intrinsics.scalar_op tr ~count:2 "addr";
            for s = 0 to group - 1 do
              out01.ints.(2 * s) <- c.(0).(s);
              out01.ints.((2 * s) + 1) <- c.(1).(s);
              out23.ints.(2 * s) <- c.(2).(s);
              out23.ints.((2 * s) + 1) <- c.(3).(s)
            done;
            (* stage2 drains c01/c23 interleaved per sample, so a
               whole-group burst on one port before the other would
               overrun the in-flight buffering of both streams and
               deadlock.  put_window2 writes the two lane buffers in
               lockstep chunks bounded by the tighter queue's free
               space, each chunk a lane write at its offset into the
               buffers: block-path transfers that copy and box nothing,
               without changing the observable element order beyond
               what the consumer's interleave already absorbs. *)
            Cgsim.Port.put_window2 c01 c23 out01 out23 group);
        Array.blit ext samples_per_window ext 0 (taps - 1)
      done)

(* --------------------------- stage 2 --------------------------- *)

let stage2 =
  Cgsim.Kernel.define ~realm:Cgsim.Kernel.Aie ~name:"farrow_stage2"
    ~rates:
      [ "c01", samples_per_window; "c23", samples_per_window; "d", 0; "out", samples_per_window ]
    ~pure:true
    [
      Cgsim.Kernel.in_port "c01" cascade_dtype;
      Cgsim.Kernel.in_port "c23" cascade_dtype;
      Cgsim.Kernel.in_port "d" Cgsim.Dtype.I16 ~settings:Cgsim.Settings.rtp;
      Cgsim.Kernel.out_port "out" Cgsim.Dtype.I16 ~settings:window_settings;
    ]
    (fun b ->
      let c01 = Cgsim.Kernel.rd b 0
      and c23 = Cgsim.Kernel.rd b 1
      and d_port = Cgsim.Kernel.rd b 2
      and output = Cgsim.Kernel.wr b 0 in
      let tr = Aie.Trace.recorder b in
      let d = Cgsim.Port.get_int d_port in
      let dv = Array.make group d in
      let groups = samples_per_window / group in
      let c = Array.init 4 (fun _ -> Array.make group 0) in
      let acc = Array.make group 0 and prod = Array.make group 0 and y = Array.make group 0 in
      let in01 = Cgsim.Port.lanes cascade_dtype group in
      let in23 = Cgsim.Port.lanes cascade_dtype group in
      while true do
        Aie.Trace.mark_iteration tr;
        Aie.Trace.with_pipelined_loop tr ~trip:groups (fun _g ->
            (* Interleave the two cascade streams per sample, matching the
               producer's write order — with 32-word stream FIFOs a
               port-at-a-time drain would need more in-flight buffering
               than the switch provides. *)
            for s = 0 to group - 1 do
              Cgsim.Port.get_lanes c01 in01 s 1;
              Cgsim.Port.get_lanes c23 in23 s 1;
              c.(0).(s) <- in01.ints.(2 * s);
              c.(1).(s) <- in01.ints.((2 * s) + 1);
              c.(2).(s) <- in23.ints.(2 * s);
              c.(3).(s) <- in23.ints.((2 * s) + 1)
            done;
            (* Horner: acc = ((c3*d + c2)*d + c1)*d + c0 in Q15. *)
            Array.blit c.(3) 0 acc 0 group;
            for m = 2 downto 0 do
              Aie.Intrinsics.mul16 tr ~dst:prod acc dv;
              Aie.Intrinsics.srs16 tr ~dst:prod ~shift:15 prod;
              Aie.Intrinsics.add16 tr ~dst:acc prod c.(m)
            done;
            Aie.Intrinsics.srs16 tr ~dst:y ~shift:0 acc;
            Aie.Intrinsics.scalar_op tr ~count:2 "addr";
            Cgsim.Port.put_window_int output y)
      done)

let graph () =
  Cgsim.Builder.make ~name:"farrow"
    ~inputs:[ "d", Cgsim.Dtype.I16; "in", Cgsim.Dtype.I16 ]
    (fun b conns ->
      match conns with
      | [ d; input ] ->
        let c01 = Cgsim.Builder.net b cascade_dtype in
        let c23 = Cgsim.Builder.net b cascade_dtype in
        let out = Cgsim.Builder.net b Cgsim.Dtype.I16 in
        ignore (Cgsim.Builder.add_kernel b stage1 [ input; c01; c23 ]);
        ignore (Cgsim.Builder.add_kernel b stage2 [ c01; c23; d; out ]);
        Cgsim.Builder.attach_attributes b out
          [ Cgsim.Attr.s "plio_name" "farrow_out"; Cgsim.Attr.i "plio_width" 64 ];
        [ out ]
      | _ -> assert false)

let default_d_q15 = 13107 (* 0.4 *)

let input_samples ~reps =
  Workloads.Signals.chirp_i16 ~seed:11 ~amplitude:12000 (reps * samples_per_window)

let sources ~reps =
  [
    Cgsim.Io.rtp (Cgsim.Value.Int default_d_q15);
    Cgsim.Io.of_int_array Cgsim.Dtype.I16 (input_samples ~reps);
  ]
