(* Quickstart: define two kernels, build a compute graph, and simulate it
   with cgsim — the OCaml rendition of the paper's Figures 3 and 4.

     dune exec examples/quickstart.exe *)

open Cgsim

(* A compute kernel (cf. COMPUTE_KERNEL, Figure 3): reads pairs of values
   from two input streams, writes their sum to the output stream.  The
   body runs as a cooperative fiber; every port operation is a suspension
   point (the co_await analogue). *)
let adder_kernel =
  Kernel.define ~realm:Kernel.Aie ~name:"quickstart_adder"
    [
      Kernel.in_port "in1" Dtype.F32;
      Kernel.in_port "in2" Dtype.F32;
      Kernel.out_port "out" Dtype.F32;
    ]
    (fun b ->
      let in1 = Kernel.rd b 0 and in2 = Kernel.rd b 1 and out = Kernel.wr b 0 in
      while true do
        let v = Port.get_f32 in1 +. Port.get_f32 in2 in
        Port.put_f32 out v
      done)

(* Squares a stream. *)
let square_kernel =
  Kernel.define ~realm:Kernel.Aie ~name:"quickstart_square"
    [ Kernel.in_port "in" Dtype.F32; Kernel.out_port "out" Dtype.F32 ]
    (fun b ->
      let input = Kernel.rd b 0 and out = Kernel.wr b 0 in
      while true do
        let v = Port.get_f32 input in
        Port.put_f32 out (v *. v)
      done)

(* Graph construction (cf. make_compute_graph_v, Figure 4): the function
   receives connectors for the graph's inputs, wires kernels together
   through internal connectors, and returns the output connectors.
   Construction runs strictly before execution and freezes into the
   flattened serialized form. *)
let graph =
  Builder.make ~name:"quickstart"
    ~inputs:[ "a", Dtype.F32; "b", Dtype.F32 ]
    (fun g conns ->
      match conns with
      | [ a; b ] ->
        let sum = Builder.net g Dtype.F32 in
        let squared = Builder.net g Dtype.F32 in
        ignore (Builder.add_kernel g adder_kernel [ a; b; sum ]);
        ignore (Builder.add_kernel g square_kernel [ sum; squared ]);
        Builder.attach_attributes g squared [ Attr.s "plio_name" "result"; Attr.i "plio_width" 64 ];
        [ squared ]
      | _ -> assert false)

let () =
  Format.printf "Serialized graph:@.%a@.@." Serialized.pp graph;
  (* Run: attach container-backed sources and sinks (Section 3.7) and let
     the scheduler drive all fibers until no one can continue. *)
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  let ys = [| 10.0; 20.0; 30.0; 40.0 |] in
  let sink, result = Io.f32_buffer () in
  let stats =
    Runtime.execute_exn graph ~sources:[ Io.of_f32_array xs; Io.of_f32_array ys ] ~sinks:[ sink ]
  in
  Array.iteri
    (fun i v -> Printf.printf "(%g + %g)^2 = %g\n" xs.(i) ys.(i) v)
    (result ());
  Format.printf "@.scheduler: %a@." Sched.pp_stats stats
