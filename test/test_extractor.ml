(* Tests for the graph extractor: partitioning, kernel rewriting,
   co-extraction, code generation, and the end-to-end extraction of the
   four evaluation apps from their CGC sources. *)

let contains needle hay =
  let n = String.length needle in
  let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let cgc_dir =
  (* Tests run from the build sandbox; sources live in the repo. *)
  let rec find dir =
    let candidate = Filename.concat dir "examples/cgc" in
    if Sys.file_exists candidate then candidate
    else begin
      let parent = Filename.dirname dir in
      if String.equal parent dir then failwith "cannot locate examples/cgc"
      else find parent
    end
  in
  find (Sys.getcwd ())

let load_app name = Filename.concat cgc_dir (name ^ ".cgc")

(* ------------------------------------------------------------------ *)
(* Partitioning                                                       *)
(* ------------------------------------------------------------------ *)

(* A mixed-realm source: host kernel (noextract) feeding an AIE kernel. *)
let mixed_source =
  {|#include "cgsim.hpp"

COMPUTE_KERNEL(noextract, mx_host_prep, KernelReadPort<float> in, KernelWritePort<float> out) {
    while (true) { co_await out.put(co_await in.get()); }
};

COMPUTE_KERNEL(aie, mx_aie_scale, KernelReadPort<float> in, KernelWritePort<float> out) {
    while (true) { co_await out.put(co_await in.get()); }
};

[[extract_compute_graph]]
constexpr auto mx_graph = make_compute_graph_v<[](IoConnector<float> a) {
    IoConnector<float> staged, result;
    mx_host_prep(a, staged);
    mx_aie_scale(staged, result);
    return std::make_tuple(result);
}>;|}

let mixed_graph () =
  let env = Cgc.Driver.analyze_string ~file:"mixed.cgc" mixed_source in
  match Cgc.Sema.graphs env with
  | [ g ] -> env, Cgc.Consteval.eval_graph ~twins:[] env g
  | _ -> Alcotest.fail "expected one graph"

let test_partition_classify () =
  let _, g = mixed_graph () in
  let classes = Extractor.Partition.classify g in
  (* net0: global input; net1: host->aie (inter); net2: global output *)
  Alcotest.(check bool) "net0 global" true
    (Extractor.Partition.equal_port_class classes.(0) Extractor.Partition.Global);
  Alcotest.(check bool) "net1 inter-realm" true
    (Extractor.Partition.equal_port_class classes.(1) Extractor.Partition.Inter_realm);
  Alcotest.(check bool) "net2 global" true
    (Extractor.Partition.equal_port_class classes.(2) Extractor.Partition.Global)

let test_partition_intra () =
  let env = Cgc.Driver.analyze_string ~file:"intra.cgc"
    {|#include "cgsim.hpp"
COMPUTE_KERNEL(aie, ia_a, KernelReadPort<float> in, KernelWritePort<float> out) {
    while (true) { co_await out.put(co_await in.get()); }
};
constexpr auto ia_graph = make_compute_graph_v<[](IoConnector<float> a) {
    IoConnector<float> m, z;
    ia_a(a, m);
    ia_a(m, z);
    return std::make_tuple(z);
}>;|}
  in
  let g = Cgc.Consteval.eval_graph ~twins:[] env (List.hd (Cgc.Sema.graphs env)) in
  let classes = Extractor.Partition.classify g in
  Alcotest.(check bool) "middle net is intra-aie" true
    (Extractor.Partition.equal_port_class classes.(1)
       (Extractor.Partition.Intra_realm Cgsim.Kernel.Aie))

let test_partition_subgraph () =
  let _, g = mixed_graph () in
  let sub = Extractor.Partition.subgraph g Cgsim.Kernel.Aie in
  Alcotest.(check int) "one aie kernel" 1 (Array.length sub.Cgsim.Serialized.kernels);
  Alcotest.(check int) "two nets" 2 (Array.length sub.Cgsim.Serialized.nets);
  (* The inter-realm net becomes the subgraph's external input. *)
  Alcotest.(check int) "one input" 1 (Array.length sub.Cgsim.Serialized.input_order);
  Alcotest.(check int) "one output" 1 (Array.length sub.Cgsim.Serialized.output_order);
  match Cgsim.Serialized.validate_diags sub with
  | [] -> ()
  | diags ->
    Alcotest.failf "subgraph invalid: %s"
      (String.concat "; " (List.map Cgsim.Diagnostic.render diags))

let test_partition_missing_realm () =
  let _, g = mixed_graph () in
  match Extractor.Partition.subgraph g Cgsim.Kernel.Pl with
  | exception Extractor.Partition.Partition_error _ -> ()
  | _ -> Alcotest.fail "empty realm must be rejected"

(* ------------------------------------------------------------------ *)
(* Kernel rewriting                                                   *)
(* ------------------------------------------------------------------ *)

let adder_env () =
  Cgc.Driver.analyze_string ~file:"adder.cgc"
    {|#include "cgsim.hpp"
static float scale(float x) { return x * 2.0f; }
COMPUTE_KERNEL(aie, rw_adder, KernelReadPort<float> in1, KernelReadPort<float> in2, KernelWritePort<float> out) {
    while (true) {
        const float val = (co_await in1.get()) + (co_await in2.get());
        co_await out.put(scale(val));
    }
};
[[extract_compute_graph]]
constexpr auto rw_graph = make_compute_graph_v<[](IoConnector<float> a, IoConnector<float> b) {
    IoConnector<float> c;
    rw_adder(a, b, c);
    return std::make_tuple(c);
}>;|}

let test_rewrite_forward_decl () =
  let env = adder_env () in
  let k = List.hd (Cgc.Sema.kernels env) in
  Alcotest.(check string) "decl"
    "void rw_adder(KernelReadPort<float> in1, KernelReadPort<float> in2, KernelWritePort<float> \
     out);"
    (Extractor.Kernel_rewrite.forward_decl env k)

let test_rewrite_definition () =
  let env = adder_env () in
  let k = List.hd (Cgc.Sema.kernels env) in
  let tu = Option.get (Cgc.Sema.defining_tu env "rw_adder") in
  let text = Extractor.Kernel_rewrite.definition env ~source:tu.Cgc.Ast.tu_source k in
  Alcotest.(check bool) "plain function header" true (contains "void rw_adder(" text);
  Alcotest.(check bool) "no macro left" false (contains "COMPUTE_KERNEL" text);
  Alcotest.(check bool) "no co_await left" false (contains "co_await" text);
  Alcotest.(check bool) "synchronous calls remain" true (contains "in1.get()" text);
  Alcotest.(check bool) "body kept" true (contains "scale(val)" text)

let test_rewrite_thunk () =
  let env = adder_env () in
  let k = List.hd (Cgc.Sema.kernels env) in
  let thunk = Extractor.Kernel_rewrite.aie_thunk env k in
  Alcotest.(check bool) "entry point" true (contains "void rw_adder_aie(" thunk);
  Alcotest.(check bool) "native stream params" true (contains "input_stream<float> *in1_s" thunk);
  Alcotest.(check bool) "adapter objects" true (contains "KernelReadPort<float> in1{in1_s};" thunk);
  Alcotest.(check bool) "calls the kernel" true (contains "rw_adder(in1, in2, out);" thunk)

let test_rewrite_window_thunk () =
  let env =
    Cgc.Driver.analyze_string ~file:"w.cgc"
      {|#include "cgsim.hpp"
COMPUTE_KERNEL(aie, w_k, KernelWindowReadPort<float, 8192> in, KernelRtpPort<int16_t> d, KernelWindowWritePort<float, 8192> out) {
    while (true) { co_await out.put(co_await in.get()); }
};
[[extract_compute_graph]]
constexpr auto w_graph = make_compute_graph_v<[](IoConnector<float> a, IoConnector<int16_t> d) {
    IoConnector<float> z;
    w_k(a, d, z);
    return std::make_tuple(z);
}>;|}
  in
  let k = List.hd (Cgc.Sema.kernels env) in
  let thunk = Extractor.Kernel_rewrite.aie_thunk env k in
  Alcotest.(check bool) "window param" true (contains "input_window<float> *in_w" thunk);
  Alcotest.(check bool) "rtp param" true (contains "int16_t d_v" thunk);
  Alcotest.(check bool) "window adapter" true
    (contains "KernelWindowReadPort<float, 8192> in{in_w};" thunk)

(* ------------------------------------------------------------------ *)
(* Co-extraction                                                      *)
(* ------------------------------------------------------------------ *)

let test_coextract_deps_and_includes () =
  let env =
    Cgc.Driver.analyze_string ~file:"co.cgc"
      {|#include "cgsim.hpp"
#include <cstdint>
static constexpr int GAIN_SHIFT = 3;
static int apply_gain(int x) { return x << GAIN_SHIFT; }
static int unused_helper(int x) { return x; }
COMPUTE_KERNEL(aie, co_k, KernelReadPort<int32_t> in, KernelWritePort<int32_t> out) {
    while (true) { co_await out.put(apply_gain(co_await in.get())); }
};
[[extract_compute_graph]]
constexpr auto co_graph = make_compute_graph_v<[](IoConnector<int32_t> a) {
    IoConnector<int32_t> z;
    co_k(a, z);
    return std::make_tuple(z);
}>;|}
  in
  let decls = Extractor.Coextract.support_decls env [ "co_k" ] in
  Alcotest.(check int) "two support decls" 2 (List.length decls);
  Alcotest.(check bool) "constant first" true (contains "GAIN_SHIFT = 3" (List.nth decls 0));
  Alcotest.(check bool) "helper second" true (contains "apply_gain" (List.nth decls 1));
  Alcotest.(check bool) "unused helper excluded" false
    (List.exists (contains "unused_helper") decls);
  let incs =
    Extractor.Coextract.includes_for env
      ~blacklist:Extractor.Coextract.aie_header_blacklist
      ~runtime_header:Extractor.Coextract.aie_runtime_header
  in
  Alcotest.(check bool) "runtime header first" true
    (String.equal (List.hd incs) "#include \"cgsim_aie_rt.hpp\"");
  Alcotest.(check bool) "cstdint kept" true (List.mem "#include <cstdint>" incs);
  Alcotest.(check bool) "cgsim.hpp blacklisted" false
    (List.exists (contains "cgsim.hpp") incs)

(* ------------------------------------------------------------------ *)
(* Full extraction of the four evaluation apps                        *)
(* ------------------------------------------------------------------ *)

let extract_app name =
  match Extractor.Project.extract_file (load_app name) with
  | [ p ] -> p
  | _ -> Alcotest.failf "%s: expected exactly one extractable graph" name

let test_extract_project_files () =
  let p = extract_app "bitonic" in
  let paths = List.map (fun f -> f.Extractor.Project.rel_path) p.Extractor.Project.files in
  Alcotest.(check (list string)) "files"
    [ "README.md"; "cgsim_aie_rt.hpp"; "kernel_decls.hpp"; "graph.hpp"; "bitonic_kernel.cc" ]
    paths

let test_extract_graph_hpp_content () =
  let p = extract_app "farrow" in
  let graph_hpp =
    List.find (fun f -> f.Extractor.Project.rel_path = "graph.hpp") p.Extractor.Project.files
  in
  let c = graph_hpp.Extractor.Project.contents in
  Alcotest.(check bool) "adf graph class" true (contains "class farrow_graph : public graph" c);
  Alcotest.(check bool) "kernel create stage1" true
    (contains "kernel::create(farrow_stage1_aie)" c);
  Alcotest.(check bool) "kernel create stage2" true
    (contains "kernel::create(farrow_stage2_aie)" c);
  Alcotest.(check bool) "window connect" true (contains "connect<window<4096>>" c);
  Alcotest.(check bool) "stream connect" true (contains "connect<stream>" c);
  Alcotest.(check bool) "rtp connect" true (contains "connect<parameter>" c);
  Alcotest.(check bool) "plio name attribute used" true (contains "\"farrow_out\"" c)

let test_extract_kernel_cc_content () =
  let p = extract_app "farrow" in
  let cc =
    List.find
      (fun f -> f.Extractor.Project.rel_path = "farrow_stage1.cc")
      p.Extractor.Project.files
  in
  let c = cc.Extractor.Project.contents in
  Alcotest.(check bool) "coefficients co-extracted" true (contains "FARROW_COEFF" c);
  Alcotest.(check bool) "srs helper co-extracted" true (contains "static int srs15" c);
  Alcotest.(check bool) "define co-extracted" true (contains "#define FARROW_SAMPLES 2048" c);
  Alcotest.(check bool) "no co_await" false (contains "co_await" c);
  Alcotest.(check bool) "thunk present" true (contains "void farrow_stage1_aie(" c);
  Alcotest.(check bool) "runtime header" true (contains "cgsim_aie_rt.hpp" c);
  Alcotest.(check bool) "api header excluded" false (contains "#include \"cgsim.hpp\"" c)

let test_extract_topology_matches_ocaml_twin () =
  (* The consteval'd CGC graphs must be topologically identical to the
     OCaml-built graphs used by the simulators. *)
  List.iter
    (fun (cgc_name, builder_graph) ->
      let p = extract_app cgc_name in
      Alcotest.(check bool)
        (cgc_name ^ " topology matches")
        true
        (Cgsim.Serialized.equal_topology p.Extractor.Project.serialized (builder_graph ())))
    [
      "bitonic", Apps.Bitonic.graph;
      "farrow", Apps.Farrow.graph;
      "iir", Apps.Iir.graph;
      "bilinear", Apps.Bilinear.graph;
    ]

let test_extract_deploy_runs_functionally () =
  (* Extracted deploys execute on aiesim (thunk cost model) and produce
     the exact outputs of the cgsim prototype. *)
  let h = Apps.Harness.bitonic in
  let p = extract_app "bitonic" in
  let deploy = Extractor.Project.deploy p in
  let sinks, contents = h.Apps.Harness.make_sinks () in
  let _report = Aiesim.Sim.run deploy ~sources:(h.Apps.Harness.sources ~reps:4) ~sinks in
  match h.Apps.Harness.check ~reps:4 (contents ()) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "extracted bitonic deploy wrong: %s" e

let test_extract_rejects_no_aie () =
  match
    Extractor.Project.extract_string ~file:"h.cgc"
      {|#include "cgsim.hpp"
COMPUTE_KERNEL(noextract, nx_only, KernelReadPort<float> in, KernelWritePort<float> out) {
    while (true) { co_await out.put(co_await in.get()); }
};
[[extract_compute_graph]]
constexpr auto nx_graph = make_compute_graph_v<[](IoConnector<float> a) {
    IoConnector<float> z;
    nx_only(a, z);
    return std::make_tuple(z);
}>;|}
  with
  | exception Extractor.Project.Extract_error _ -> ()
  | _ -> Alcotest.fail "graph without AIE kernels must be rejected"

let test_extract_attribute_filter () =
  let env =
    Cgc.Driver.analyze_string ~file:"two.cgc"
      {|#include "cgsim.hpp"
COMPUTE_KERNEL(aie, af_k, KernelReadPort<float> in, KernelWritePort<float> out) {
    while (true) { co_await out.put(co_await in.get()); }
};
[[extract_compute_graph]]
constexpr auto af_marked = make_compute_graph_v<[](IoConnector<float> a) {
    IoConnector<float> z;
    af_k(a, z);
    return std::make_tuple(z);
}>;
constexpr auto af_unmarked = make_compute_graph_v<[](IoConnector<float> a) {
    IoConnector<float> z;
    af_k(a, z);
    return std::make_tuple(z);
}>;|}
  in
  Alcotest.(check int) "only marked graph" 1
    (List.length (Extractor.Project.extractable_graphs env));
  Alcotest.(check int) "all graphs" 2
    (List.length (Extractor.Project.extractable_graphs ~all_graphs:true env))

(* ------------------------------------------------------------------ *)
(* Multi-realm extraction (AIE + PL/HLS + host)                       *)
(* ------------------------------------------------------------------ *)

let test_extract_hybrid_partitions () =
  let p = extract_app "hybrid" in
  (match p.Extractor.Project.aie_subgraph with
   | Some sub -> Alcotest.(check int) "one aie kernel" 1 (Array.length sub.Cgsim.Serialized.kernels)
   | None -> Alcotest.fail "hybrid must have an AIE partition");
  (match p.Extractor.Project.pl_subgraph with
   | Some sub -> Alcotest.(check int) "one pl kernel" 1 (Array.length sub.Cgsim.Serialized.kernels)
   | None -> Alcotest.fail "hybrid must have a PL partition");
  Alcotest.(check (list string)) "host kernels" [ "hybrid_monitor" ]
    p.Extractor.Project.host_kernels;
  let paths = List.map (fun f -> f.Extractor.Project.rel_path) p.Extractor.Project.files in
  Alcotest.(check bool) "aie graph file" true (List.mem "graph.hpp" paths);
  Alcotest.(check bool) "pl toplevel" true (List.mem "pl/hybrid_pl.cpp" paths);
  Alcotest.(check bool) "pl kernel" true (List.mem "pl/hybrid_widen.cpp" paths);
  Alcotest.(check bool) "host manifest" true (List.mem "host/MANIFEST" paths)

let test_extract_hls_content () =
  let p = extract_app "hybrid" in
  let file name =
    (List.find (fun f -> f.Extractor.Project.rel_path = name) p.Extractor.Project.files)
      .Extractor.Project.contents
  in
  let top = file "pl/hybrid_pl.cpp" in
  Alcotest.(check bool) "dataflow pragma" true (contains "#pragma HLS DATAFLOW" top);
  Alcotest.(check bool) "toplevel function" true (contains "void hybrid_pl(" top);
  Alcotest.(check bool) "wrapper instantiated" true (contains "hybrid_widen_hls(" top);
  let cc = file "pl/hybrid_widen.cpp" in
  Alcotest.(check bool) "axis interface" true (contains "#pragma HLS INTERFACE axis" cc);
  Alcotest.(check bool) "helper co-extracted" true (contains "saturate24" cc);
  Alcotest.(check bool) "constant co-extracted" true (contains "HYBRID_GAIN" cc);
  Alcotest.(check bool) "no co_await" false (contains "co_await" cc);
  let decls = file "pl/pl_kernels.hpp" in
  Alcotest.(check bool) "hls_stream include" true (contains "#include <hls_stream.h>" decls)

let test_extract_hybrid_inter_realm_nets () =
  let p = extract_app "hybrid" in
  let classes = p.Extractor.Project.port_classes in
  (* samples->widen = global; widen->average = inter (pl->aie);
     average->monitor = inter (aie->host); monitor->out = global *)
  Alcotest.(check bool) "pl->aie inter" true
    (Extractor.Partition.equal_port_class classes.(1) Extractor.Partition.Inter_realm);
  Alcotest.(check bool) "aie->host inter" true
    (Extractor.Partition.equal_port_class classes.(2) Extractor.Partition.Inter_realm)

let test_extract_gmio_codegen () =
  let projects =
    Extractor.Project.extract_string ~file:"g.cgc"
      {|#include "cgsim.hpp"
COMPUTE_KERNEL(aie, gx_k, KernelGmioReadPort<int32_t> in, KernelGmioWritePort<int32_t> out) {
    while (true) { co_await out.put(co_await in.get()); }
};
[[extract_compute_graph]]
constexpr auto gx_graph = make_compute_graph_v<[](IoConnector<int32_t> ddr) {
    IoConnector<int32_t> z;
    gx_k(ddr, z);
    return std::make_tuple(z);
}>;|}
  in
  match projects with
  | [ p ] ->
    let graph_hpp =
      (List.find (fun f -> f.Extractor.Project.rel_path = "graph.hpp") p.Extractor.Project.files)
        .Extractor.Project.contents
    in
    Alcotest.(check bool) "input gmio" true (contains "input_gmio::create" graph_hpp);
    Alcotest.(check bool) "output gmio" true (contains "output_gmio::create" graph_hpp);
    let cc =
      (List.find (fun f -> f.Extractor.Project.rel_path = "gx_k.cc") p.Extractor.Project.files)
        .Extractor.Project.contents
    in
    Alcotest.(check bool) "gmio thunk param" true (contains "input_gmio<int32_t> *in_g" cc);
    Alcotest.(check bool) "gmio adapter" true (contains "KernelGmioReadPort<int32_t> in{in_g};" cc)
  | _ -> Alcotest.fail "one project expected"

let test_extract_write_to_disk () =
  let p = extract_app "iir" in
  let dir = Filename.temp_file "cgx" "" in
  Sys.remove dir;
  let written = Extractor.Project.write ~dir p in
  Alcotest.(check int) "five files" 5 (List.length written);
  List.iter
    (fun path -> Alcotest.(check bool) (path ^ " exists") true (Sys.file_exists path))
    written;
  (* Generated headers re-lex cleanly (no stray tokens); README.md is
     markdown, not C++, so it is exempt. *)
  List.iter
    (fun path ->
      if Filename.basename path <> "README.md" then begin
        let contents = In_channel.with_open_bin path In_channel.input_all in
        ignore (Cgc.Lexer.tokenize ~file:path contents)
      end)
    written

let () =
  Alcotest.run "extractor"
    [
      ( "partition",
        [
          Alcotest.test_case "classify" `Quick test_partition_classify;
          Alcotest.test_case "intra-realm" `Quick test_partition_intra;
          Alcotest.test_case "aie subgraph" `Quick test_partition_subgraph;
          Alcotest.test_case "missing realm" `Quick test_partition_missing_realm;
        ] );
      ( "kernel-rewrite",
        [
          Alcotest.test_case "forward decl" `Quick test_rewrite_forward_decl;
          Alcotest.test_case "definition" `Quick test_rewrite_definition;
          Alcotest.test_case "stream thunk" `Quick test_rewrite_thunk;
          Alcotest.test_case "window/rtp thunk" `Quick test_rewrite_window_thunk;
        ] );
      ( "coextract",
        [ Alcotest.test_case "deps and includes" `Quick test_coextract_deps_and_includes ] );
      ( "project",
        [
          Alcotest.test_case "file set" `Quick test_extract_project_files;
          Alcotest.test_case "graph.hpp content" `Quick test_extract_graph_hpp_content;
          Alcotest.test_case "kernel .cc content" `Quick test_extract_kernel_cc_content;
          Alcotest.test_case "topology matches OCaml twins" `Quick
            test_extract_topology_matches_ocaml_twin;
          Alcotest.test_case "extracted deploy runs" `Quick test_extract_deploy_runs_functionally;
          Alcotest.test_case "rejects AIE-free graphs" `Quick test_extract_rejects_no_aie;
          Alcotest.test_case "attribute filter" `Quick test_extract_attribute_filter;
          Alcotest.test_case "hybrid partitions" `Quick test_extract_hybrid_partitions;
          Alcotest.test_case "hls content" `Quick test_extract_hls_content;
          Alcotest.test_case "inter-realm nets" `Quick test_extract_hybrid_inter_realm_nets;
          Alcotest.test_case "gmio codegen" `Quick test_extract_gmio_codegen;
          Alcotest.test_case "write to disk" `Quick test_extract_write_to_disk;
        ] );
    ]
