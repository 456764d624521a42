type t = {
  name : string;
  block_bytes : int;
  table2_reps : int;
  graph : unit -> Cgsim.Serialized.t;
  sources : reps:int -> Cgsim.Io.source list;
  make_sinks : unit -> Cgsim.Io.sink list * (unit -> Cgsim.Value.t list);
  check : reps:int -> Cgsim.Value.t list -> (unit, string) result;
}

let single_buffer_sinks () =
  let sink, contents = Cgsim.Io.buffer () in
  [ sink ], contents

let err fmt = Format.kasprintf (fun s -> Error s) fmt

let check_floats ~what ~tol expected actual =
  if Array.length expected <> List.length actual then
    err "%s: expected %d outputs, got %d" what (Array.length expected) (List.length actual)
  else begin
    let rec scan i = function
      | [] -> Ok ()
      | v :: rest ->
        let a = Cgsim.Value.to_float v in
        let e = expected.(i) in
        if Float.abs (a -. e) > tol +. (tol *. Float.abs e) then
          err "%s: output %d: expected %g, got %g" what i e a
        else scan (i + 1) rest
    in
    scan 0 actual
  end

let check_ints ~what expected actual =
  if Array.length expected <> List.length actual then
    err "%s: expected %d outputs, got %d" what (Array.length expected) (List.length actual)
  else begin
    let rec scan i = function
      | [] -> Ok ()
      | v :: rest ->
        let a = Cgsim.Value.to_int v in
        if a <> expected.(i) then err "%s: output %d: expected %d, got %d" what i expected.(i) a
        else scan (i + 1) rest
    in
    scan 0 actual
  end

let bitonic =
  {
    name = "bitonic";
    block_bytes = Bitonic.block_bytes;
    table2_reps = 1024;
    graph = Bitonic.graph;
    sources = (fun ~reps -> Bitonic.sources ~reps);
    make_sinks = single_buffer_sinks;
    check =
      (fun ~reps actual ->
        let input = Bitonic.input_floats ~reps in
        let expected =
          Array.concat
            (List.init reps (fun blk ->
                 Workloads.Reference.sort_f32 (Array.sub input (blk * Bitonic.lanes) Bitonic.lanes)))
        in
        check_floats ~what:"bitonic" ~tol:0.0 expected actual);
  }

let farrow =
  {
    name = "farrow";
    block_bytes = Farrow.block_bytes;
    table2_reps = 512;
    graph = Farrow.graph;
    sources = (fun ~reps -> Farrow.sources ~reps);
    make_sinks = single_buffer_sinks;
    check =
      (fun ~reps actual ->
        let input = Farrow.input_samples ~reps in
        let expected =
          Workloads.Reference.farrow_scalar ~d_q15:Farrow.default_d_q15 input
        in
        check_ints ~what:"farrow" expected actual);
  }

let iir =
  {
    name = "iir";
    block_bytes = Iir.block_bytes;
    table2_reps = 256;
    graph = Iir.graph;
    sources = (fun ~reps -> Iir.sources ~reps);
    make_sinks = single_buffer_sinks;
    check =
      (fun ~reps actual ->
        let input = Iir.input_samples ~reps in
        let expected =
          Workloads.Reference.iir_scalar Workloads.Reference.iir_sections input
        in
        (* The vectorized kernel uses an f32 coefficient-matrix
           formulation; allow a small tolerance vs. the f64 direct form. *)
        check_floats ~what:"iir" ~tol:2e-3 expected actual);
  }

let bilinear =
  {
    name = "bilinear";
    block_bytes = Bilinear.block_bytes;
    table2_reps = 256;
    graph = Bilinear.graph;
    sources = (fun ~reps -> Bilinear.sources ~reps);
    make_sinks = single_buffer_sinks;
    check =
      (fun ~reps actual ->
        let quads = Bilinear.input_quads ~reps in
        let expected =
          Array.map
            (fun (q : Workloads.Images.quad) ->
              Workloads.Reference.bilinear_scalar ~p00:q.p00 ~p01:q.p01 ~p10:q.p10 ~p11:q.p11
                ~xf:q.xf ~yf:q.yf)
            quads
        in
        check_ints ~what:"bilinear" expected actual);
  }

let all = [ bitonic; farrow; iir; bilinear ]

let find name = List.find_opt (fun t -> String.equal t.name name) all

let twins = [ Bitonic.kernel; Farrow.stage1; Farrow.stage2; Iir.kernel; Bilinear.kernel ]

let run_cgsim ?config t ~reps =
  let g = t.graph () in
  let sinks, contents = t.make_sinks () in
  match Cgsim.Runtime.execute ?config g ~sources:(t.sources ~reps) ~sinks with
  | exception e -> Error (Printexc.to_string e)
  | Cgsim.Runtime.Completed stats ->
    (match t.check ~reps (contents ()) with
     | Ok () -> Ok stats
     | Error e -> Error e)
  | o -> Error (Format.asprintf "%a" Cgsim.Runtime.pp_outcome o)
