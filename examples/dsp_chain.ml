(* DSP-chain example: a custom compute graph combining the farrow
   fractional-delay stages with the IIR low-pass, showing how graphs are
   composed from a library of kernels and swept over a runtime parameter.

     dune exec examples/dsp_chain.exe *)

open Cgsim

(* farrow stage1/stage2 -> i16-to-f32 conversion -> IIR low-pass *)
let i16_to_f32 =
  Kernel.define ~realm:Kernel.Aie ~name:"dsp_i16_to_f32"
    [ Kernel.in_port "in" Dtype.I16; Kernel.out_port "out" Dtype.F32 ]
    (fun b ->
      let input = Kernel.rd b 0 and out = Kernel.wr b 0 in
      while true do
        Port.put_f32 out (float_of_int (Port.get_int input) /. 32768.0)
      done)

let chain_graph () =
  Builder.make ~name:"dsp_chain"
    ~inputs:[ "d", Dtype.I16; "samples", Dtype.I16 ]
    (fun g conns ->
      match conns with
      | [ d; samples ] ->
        let c01 = Builder.net g Apps.Farrow.cascade_dtype in
        let c23 = Builder.net g Apps.Farrow.cascade_dtype in
        let delayed = Builder.net g Dtype.I16 in
        let as_float = Builder.net g Dtype.F32 in
        let filtered = Builder.net g Dtype.F32 in
        ignore (Builder.add_kernel g Apps.Farrow.stage1 [ samples; c01; c23 ]);
        ignore (Builder.add_kernel g Apps.Farrow.stage2 [ c01; c23; d; delayed ]);
        ignore (Builder.add_kernel g i16_to_f32 [ delayed; as_float ]);
        ignore (Builder.add_kernel g Apps.Iir.kernel [ as_float; filtered ]);
        [ filtered ]
      | _ -> assert false)

let rms a =
  sqrt (Array.fold_left (fun acc v -> acc +. (v *. v)) 0.0 a /. float_of_int (Array.length a))

let () =
  Printf.printf "== DSP chain: farrow fractional delay -> IIR low-pass ==\n";
  let samples = Workloads.Signals.chirp_i16 ~seed:5 ~amplitude:12000 2048 in
  (* Sweep the fractional delay (a runtime parameter) and measure the
     output RMS: the low-pass response to the chirp is delay-invariant,
     so the RMS stays stable while each run re-instantiates the graph
     with a different RTP value. *)
  List.iter
    (fun d_frac ->
      let d_q15 = int_of_float (d_frac *. 32768.0) in
      let d_q15 = min 32767 (max 0 d_q15) in
      let sink, result = Io.f32_buffer () in
      let stats =
        Runtime.execute_exn (chain_graph ())
          ~sources:
            [ Io.rtp (Value.Int d_q15); Io.of_int_array Dtype.I16 samples ]
          ~sinks:[ sink ]
      in
      let out = result () in
      Printf.printf "d = %.2f: %5d samples out, rms = %.4f (%d fiber slices)\n" d_frac
        (Array.length out) (rms out) stats.Sched.slices)
    [ 0.0; 0.25; 0.5; 0.75 ];
  (* The same composed graph runs on the cycle-approximate simulator. *)
  let sink = Io.null () in
  let deploy = Aiesim.Deploy.baseline (chain_graph ()) in
  let report =
    Aiesim.Sim.run deploy
      ~sources:
        [ Io.rtp (Value.Int 16384); Io.of_int_array Dtype.I16 samples ]
      ~sinks:[ sink ]
  in
  Printf.printf "\naiesim: 4-kernel chain, %.1f ns per 4096-byte block\n"
    report.Aiesim.Sim.ns_per_block
