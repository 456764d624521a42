(* Table 1 reproduction: processing time per input block on the
   cycle-approximate AIE simulator, hand-written (Direct) deploys vs.
   extractor-generated (Thunk) deploys, plus relative throughput. *)

type row = {
  app : string;
  block_bytes : int;
  paper_amd_ns : float;
  paper_this_ns : float;
  paper_rel_pct : float;
  baseline_ns : float;
  extracted_ns : float;
  rel_pct : float;
  blocks : int;
}

let paper_numbers = function
  | "bitonic" -> 3556.8, 4168.8, 85.32
  | "farrow" -> 912.8, 1019.0, 89.58
  | "iir" -> 5410.0, 5385.0, 100.46
  | "bilinear" -> 484.0, 567.2, 85.33
  | app -> invalid_arg ("no paper numbers for " ^ app)

(* Enough repetitions to measure a steady-state inter-iteration time past
   the pipeline-fill transient. *)
let reps_for_timing = 8

(* The "This work" column comes from the real extraction pipeline: the
   app's CGC prototype source goes through the front-end, consteval,
   partitioning and code generation, and the resulting deploy carries the
   generated adapter thunks' cost model.  A missing examples/cgc or a
   failing extraction raises, naming the .cgc file: a silent fallback
   would print a column that does not come from the pipeline. *)
let cgc_path name =
  let rec find dir =
    let candidate = Filename.concat dir "examples/cgc" in
    if Sys.file_exists candidate then Filename.concat candidate (name ^ ".cgc")
    else begin
      let parent = Filename.dirname dir in
      if String.equal parent dir then
        failwith
          (Printf.sprintf "bench table1: no examples/cgc in %s or above it (looking for %s.cgc)"
             (Sys.getcwd ()) name)
      else find parent
    end
  in
  find (Sys.getcwd ())

let extracted_deploy (h : Apps.Harness.t) =
  let path = cgc_path h.name in
  match Extractor.Project.extract_file path with
  | [ p ] -> Extractor.Project.deploy p
  | ps ->
    failwith
      (Printf.sprintf "bench table1: %s: expected one extracted graph, got %d" path
         (List.length ps))
  | exception e -> failwith (Printf.sprintf "bench table1: %s: %s" path (Printexc.to_string e))

let run_one (h : Apps.Harness.t) =
  let measure label deploy =
    let sinks, contents = h.make_sinks () in
    let report = Aiesim.Sim.run deploy ~sources:(h.sources ~reps:reps_for_timing) ~sinks in
    (match h.check ~reps:reps_for_timing (contents ()) with
     | Ok () -> ()
     | Error e ->
       failwith (Printf.sprintf "%s (%s) functional check failed: %s" h.name label e));
    report
  in
  let baseline = measure "baseline" (Aiesim.Deploy.baseline (h.graph ())) in
  let extracted = measure "extracted" (extracted_deploy h) in
  let paper_amd_ns, paper_this_ns, paper_rel_pct = paper_numbers h.name in
  {
    app = h.name;
    block_bytes = h.block_bytes;
    paper_amd_ns;
    paper_this_ns;
    paper_rel_pct;
    baseline_ns = baseline.Aiesim.Sim.ns_per_block;
    extracted_ns = extracted.Aiesim.Sim.ns_per_block;
    rel_pct = Aiesim.Sim.relative_throughput_percent ~baseline ~extracted;
    blocks = baseline.Aiesim.Sim.blocks;
  }

let rows () = List.map run_one Apps.Harness.all

let print_rows rows =
  Printf.printf "\n== Table 1: processing time per input block (aiesim, %g MHz) ==\n"
    Aie.Cfg.clock_mhz;
  Printf.printf "%-9s %8s | %10s %10s %8s | %10s %10s %8s\n" "graph" "block(B)" "paper-AMD"
    "paper-this" "paper-%" "base(ns)" "extr(ns)" "rel-%";
  List.iter
    (fun r ->
      Printf.printf "%-9s %8d | %10.1f %10.1f %8.2f | %10.1f %10.1f %8.2f\n" r.app r.block_bytes
        r.paper_amd_ns r.paper_this_ns r.paper_rel_pct r.baseline_ns r.extracted_ns r.rel_pct)
    rows;
  Printf.printf
    "(absolute ns are from our VLIW/stream model, not AMD's testbed; the shape to compare\n\
    \ is the rel-%% column: >=85%% everywhere, ~100%% for the window-based IIR)\n%!"

let run () = print_rows (rows ())
