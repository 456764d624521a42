(* Tests for the CGC front-end: lexer, parser, sema, consteval and
   rewriter. *)

let adder_source =
  {|#include "cgsim.hpp"
#include <cstdint>

// doubles a float
static float scale(float x) { return x * 2.0f; }

COMPUTE_KERNEL(
    aie,
    adder_kernel,
    KernelReadPort<float> in1,
    KernelReadPort<float> in2,
    KernelWritePort<float> out
) {
    while (true) {
        const float val = (co_await in1.get())
                        + (co_await in2.get());
        co_await out.put(scale(val));
    }
};

[[extract_compute_graph]]
constexpr auto adder_graph = make_compute_graph_v<[](
    IoConnector<float> a,
    IoConnector<float> b
) {
    IoConnector<float> c;
    adder_kernel(a, b, c);
    attach_attributes(c, {{"plio_name", "sum_out"}, {"plio_width", 64}});
    return std::make_tuple(c);
}>;
|}

(* ------------------------------------------------------------------ *)
(* Lexer                                                              *)
(* ------------------------------------------------------------------ *)

let test_lexer_basic () =
  let toks = Cgc.Lexer.tokenize ~file:"t.cgc" "int x = 42; // comment\nfloat y = 1.5f;" in
  let kinds = List.map (fun t -> t.Cgc.Token.kind) toks in
  match kinds with
  | [ Cgc.Token.Kw "int"; Ident "x"; Punct "="; Int_lit (42, _); Punct ";"; Kw "float";
      Ident "y"; Punct "="; Float_lit (v, _); Punct ";"; Eof ] ->
    Alcotest.(check (float 1e-9)) "float lit" 1.5 v
  | _ -> Alcotest.fail "unexpected token stream"

let test_lexer_directives () =
  let toks = Cgc.Lexer.tokenize ~file:"t.cgc" "#include \"a.hpp\"\n#include <vector>\n#define N 16\n" in
  match List.map (fun t -> t.Cgc.Token.kind) toks with
  | [ Cgc.Token.Directive_include { path = "a.hpp"; system = false };
      Directive_include { path = "vector"; system = true };
      Directive_define { name = "N"; body = "16" }; Eof ] ->
    ()
  | _ -> Alcotest.fail "directives not recognized"

let test_lexer_positions () =
  let toks = Cgc.Lexer.tokenize ~file:"t.cgc" "ab\ncd" in
  match toks with
  | [ a; b; _eof ] ->
    Alcotest.(check int) "a line" 1 a.Cgc.Token.range.Cgc.Srcloc.start.Cgc.Srcloc.line;
    Alcotest.(check int) "b line" 2 b.Cgc.Token.range.Cgc.Srcloc.start.Cgc.Srcloc.line;
    Alcotest.(check int) "b offset" 3 b.Cgc.Token.range.Cgc.Srcloc.start.Cgc.Srcloc.offset
  | _ -> Alcotest.fail "expected two tokens"

let test_lexer_unterminated_comment () =
  match Cgc.Lexer.tokenize ~file:"t.cgc" "/* nope" with
  | exception Cgc.Diag.Error _ -> ()
  | _ -> Alcotest.fail "unterminated comment must be diagnosed"

let test_lexer_string_escapes () =
  match Cgc.Lexer.tokenize ~file:"t.cgc" {|"a\nb"|} with
  | [ { Cgc.Token.kind = Cgc.Token.Str_lit "a\nb"; _ }; _ ] -> ()
  | _ -> Alcotest.fail "string escape not decoded"

(* ------------------------------------------------------------------ *)
(* Parser                                                             *)
(* ------------------------------------------------------------------ *)

let parse_tu src = Cgc.Parser.parse ~file:"t.cgc" src

let test_parse_adder () =
  let tu = parse_tu adder_source in
  let kinds =
    List.map
      (function
        | Cgc.Ast.T_include _ -> "include"
        | Cgc.Ast.T_define _ -> "define"
        | Cgc.Ast.T_pragma _ -> "pragma"
        | Cgc.Ast.T_struct _ -> "struct"
        | Cgc.Ast.T_global _ -> "global"
        | Cgc.Ast.T_func _ -> "func"
        | Cgc.Ast.T_kernel _ -> "kernel"
        | Cgc.Ast.T_graph _ -> "graph")
      tu.Cgc.Ast.tu_items
  in
  Alcotest.(check (list string)) "item kinds" [ "include"; "include"; "func"; "kernel"; "graph" ]
    kinds

let test_parse_kernel_detail () =
  let tu = parse_tu adder_source in
  let k =
    List.find_map (function Cgc.Ast.T_kernel k -> Some k | _ -> None) tu.Cgc.Ast.tu_items
    |> Option.get
  in
  Alcotest.(check string) "realm" "aie" k.Cgc.Ast.k_realm;
  Alcotest.(check string) "name" "adder_kernel" k.Cgc.Ast.k_name;
  Alcotest.(check int) "ports" 3 (List.length k.Cgc.Ast.k_params);
  (* The expansion range must span the whole COMPUTE_KERNEL(...){...} *)
  let text = Cgc.Rewriter.slice_range ~source:tu.Cgc.Ast.tu_source k.Cgc.Ast.k_range in
  Alcotest.(check bool) "starts at macro" true
    (String.length text > 14 && String.sub text 0 14 = "COMPUTE_KERNEL");
  Alcotest.(check bool) "contains body" true
    (let rec contains i =
       i + 8 <= String.length text && (String.sub text i 8 = "co_await" || contains (i + 1))
     in
     contains 0)

let test_parse_graph_detail () =
  let tu = parse_tu adder_source in
  let g =
    List.find_map (function Cgc.Ast.T_graph g -> Some g | _ -> None) tu.Cgc.Ast.tu_items
    |> Option.get
  in
  Alcotest.(check string) "name" "adder_graph" g.Cgc.Ast.g_name;
  Alcotest.(check (list string)) "attrs" [ "extract_compute_graph" ] g.Cgc.Ast.g_attrs;
  Alcotest.(check int) "lambda params" 2 (List.length g.Cgc.Ast.g_lambda.Cgc.Ast.l_params)

let test_parse_template_shift_split () =
  (* >> closing two template levels must split. *)
  let tu = parse_tu "static KernelReadPort<IoConnector<float>> weird() { return x; }" in
  match tu.Cgc.Ast.tu_items with
  | [ Cgc.Ast.T_func { name = "weird"; _ } ] -> ()
  | _ -> Alcotest.fail "nested template closed by >> should parse"

let test_parse_for_loop () =
  let tu = parse_tu "static int f() { int acc = 0; for (int i = 0; i < 4; ++i) { acc += i; } return acc; }" in
  match tu.Cgc.Ast.tu_items with
  | [ Cgc.Ast.T_func { body; _ } ] ->
    Alcotest.(check int) "three statements" 3 (List.length body)
  | _ -> Alcotest.fail "for loop should parse"

let test_parse_error_located () =
  match parse_tu "static float f( { }" with
  | exception Cgc.Diag.Error (range, _) ->
    Alcotest.(check int) "error on line 1" 1 range.Cgc.Srcloc.start.Cgc.Srcloc.line
  | _ -> Alcotest.fail "malformed input must be diagnosed"

let test_parse_struct_with_arrays () =
  let tu = parse_tu "struct q { uint8_t pix[4]; uint16_t xf; uint16_t yf; };" in
  match tu.Cgc.Ast.tu_items with
  | [ Cgc.Ast.T_struct { name = "q"; fields; _ } ] ->
    Alcotest.(check int) "fields" 3 (List.length fields)
  | _ -> Alcotest.fail "struct should parse"

(* ------------------------------------------------------------------ *)
(* Sema                                                               *)
(* ------------------------------------------------------------------ *)

let analyze src = Cgc.Driver.analyze_string ~file:"t.cgc" src

let test_sema_adder () =
  let env = analyze adder_source in
  Alcotest.(check int) "kernels" 1 (List.length (Cgc.Sema.kernels env));
  Alcotest.(check int) "graphs" 1 (List.length (Cgc.Sema.graphs env));
  let k = List.hd (Cgc.Sema.kernels env) in
  let ports = Cgc.Sema.ports_of_kernel env k in
  Alcotest.(check int) "port count" 3 (List.length ports);
  match ports with
  | [ p1; _; p3 ] ->
    Alcotest.(check bool) "in dtype" true (Cgsim.Dtype.equal p1.Cgsim.Kernel.dtype Cgsim.Dtype.F32);
    Alcotest.(check bool) "out dir" true (p3.Cgsim.Kernel.dir = Cgsim.Kernel.Out)
  | _ -> Alcotest.fail "bad ports"

let test_sema_struct_dtype () =
  let env =
    analyze
      "struct quad { uint8_t pix[4]; uint16_t xf; uint16_t yf; };\n\
       COMPUTE_KERNEL(aie, k, KernelReadPort<quad> in, KernelWritePort<uint16_t> out) { while \
       (true) { co_await out.put(0); } };"
  in
  let k = List.hd (Cgc.Sema.kernels env) in
  match Cgc.Sema.ports_of_kernel env k with
  | [ { Cgsim.Kernel.dtype = Cgsim.Dtype.Struct fields; _ }; _ ] ->
    Alcotest.(check int) "struct fields" 3 (List.length fields);
    (match fields with
     | ("pix", Cgsim.Dtype.Vector (Cgsim.Dtype.U8, 4)) :: _ -> ()
     | _ -> Alcotest.fail "array field should become a vector dtype")
  | _ -> Alcotest.fail "struct port expected"

let test_sema_window_rtp_ports () =
  let env =
    analyze
      "COMPUTE_KERNEL(aie, k, KernelWindowReadPort<float, 8192> in, KernelRtpPort<int16_t> d, \
       KernelWindowWritePort<float, 8192> out) { while (true) { } };"
  in
  let k = List.hd (Cgc.Sema.kernels env) in
  match Cgc.Sema.ports_of_kernel env k with
  | [ win_in; rtp; win_out ] ->
    Alcotest.(check bool) "window in" true
      (Cgsim.Settings.equal win_in.Cgsim.Kernel.settings (Cgsim.Settings.window 8192));
    Alcotest.(check bool) "rtp" true
      (Cgsim.Settings.equal rtp.Cgsim.Kernel.settings Cgsim.Settings.rtp);
    Alcotest.(check bool) "window out dir" true (win_out.Cgsim.Kernel.dir = Cgsim.Kernel.Out)
  | _ -> Alcotest.fail "three ports expected"

let test_sema_gmio_ports () =
  let env =
    analyze
      "COMPUTE_KERNEL(aie, gk, KernelGmioReadPort<int32_t> in, KernelGmioWritePort<int32_t> out) \
       { while (true) { co_await out.put(co_await in.get()); } };"
  in
  let k = List.hd (Cgc.Sema.kernels env) in
  match Cgc.Sema.ports_of_kernel env k with
  | [ i; o ] ->
    Alcotest.(check bool) "gmio in" true
      (Cgsim.Settings.equal i.Cgsim.Kernel.settings Cgsim.Settings.gmio);
    Alcotest.(check bool) "gmio out" true
      (Cgsim.Settings.equal o.Cgsim.Kernel.settings Cgsim.Settings.gmio)
  | _ -> Alcotest.fail "two ports expected"

let test_sema_bad_realm () =
  match analyze "COMPUTE_KERNEL(gpu, k, KernelReadPort<float> in) { };" with
  | exception Cgc.Sema.Sema_error _ -> ()
  | _ -> Alcotest.fail "unknown realm must be diagnosed"

let test_sema_bad_port_type () =
  match analyze "COMPUTE_KERNEL(aie, k, float x) { };" with
  | exception Cgc.Sema.Sema_error _ -> ()
  | _ -> Alcotest.fail "non-port parameter must be diagnosed"

let test_sema_duplicate () =
  match analyze "static int a = 1;\nstatic int a = 2;" with
  | exception Cgc.Sema.Sema_error _ -> ()
  | _ -> Alcotest.fail "duplicate definition must be diagnosed"

let test_sema_deps () =
  let env =
    analyze
      "static constexpr int N = 4;\n\
       static constexpr int M = N * 2;\n\
       static int helper(int x) { return x + M; }\n\
       static int unrelated(int x) { return x; }\n\
       COMPUTE_KERNEL(aie, k, KernelReadPort<int32_t> in, KernelWritePort<int32_t> out) { while \
       (true) { co_await out.put(helper(co_await in.get())); } };"
  in
  let deps = Cgc.Sema.transitive_deps env [ "k" ] in
  Alcotest.(check (list string)) "transitive deps in source order" [ "N"; "M"; "helper" ] deps

(* ------------------------------------------------------------------ *)
(* Consteval                                                          *)
(* ------------------------------------------------------------------ *)

let eval_graph_of ?(twins = []) src =
  let env = analyze src in
  match Cgc.Sema.graphs env with
  | [ g ] -> Cgc.Consteval.eval_graph ~twins env g
  | _ -> Alcotest.fail "expected exactly one graph"

let test_consteval_adder () =
  let g = eval_graph_of adder_source in
  Alcotest.(check int) "kernels" 1 (Array.length g.Cgsim.Serialized.kernels);
  Alcotest.(check int) "nets" 3 (Array.length g.Cgsim.Serialized.nets);
  Alcotest.(check int) "inputs" 2 (Array.length g.Cgsim.Serialized.input_order);
  Alcotest.(check int) "outputs" 1 (Array.length g.Cgsim.Serialized.output_order);
  (* Attributes attached through attach_attributes must be preserved. *)
  let out_net = Cgsim.Serialized.net g g.Cgsim.Serialized.output_order.(0) in
  Alcotest.(check (option string)) "plio name" (Some "sum_out")
    (Cgsim.Attr.find_string "plio_name" out_net.Cgsim.Serialized.attrs);
  Alcotest.(check (option int)) "plio width" (Some 64)
    (Cgsim.Attr.find_int "plio_width" out_net.Cgsim.Serialized.attrs)

let test_consteval_loop_unroll () =
  (* A constexpr for loop building a chain of N kernels. *)
  let src =
    {|static constexpr int N = 5;
COMPUTE_KERNEL(aie, chain_scale, KernelReadPort<float> in, KernelWritePort<float> out) {
    while (true) { co_await out.put(co_await in.get()); }
};
constexpr auto chain_graph = make_compute_graph_v<[](IoConnector<float> a) {
    IoConnector<float> prev = a;
    for (int i = 0; i < N; ++i) {
        IoConnector<float> next;
        chain_scale(prev, next);
        prev = next;
    }
    return std::make_tuple(prev);
}>;|}
  in
  let g = eval_graph_of src in
  Alcotest.(check int) "five kernel instances" 5 (Array.length g.Cgsim.Serialized.kernels);
  Alcotest.(check int) "six nets" 6 (Array.length g.Cgsim.Serialized.nets)

let test_consteval_matches_builder () =
  (* The CGC adder graph and the equivalent OCaml builder graph have equal
     topologies — the round-trip property from DESIGN.md. *)
  let cgc_g = eval_graph_of adder_source in
  let twin = cgc_g.Cgsim.Serialized.kernels.(0).Cgsim.Serialized.kernel in
  let builder_g =
    Cgsim.Builder.make ~name:"adder_graph"
      ~inputs:[ "a", Cgsim.Dtype.F32; "b", Cgsim.Dtype.F32 ]
      (fun b conns ->
        match conns with
        | [ a; bb ] ->
          let c = Cgsim.Builder.net b Cgsim.Dtype.F32 in
          ignore (Cgsim.Builder.add_kernel b twin [ a; bb; c ]);
          Cgsim.Builder.attach_attributes b c
            [ Cgsim.Attr.s "plio_name" "sum_out"; Cgsim.Attr.i "plio_width" 64 ];
          [ c ]
        | _ -> assert false)
  in
  Alcotest.(check bool) "equal topology" true (Cgsim.Serialized.equal_topology cgc_g builder_g)

(* The twins are an argument, not a property of the process: the same
   source evaluates against a twin that declares rates and purity, or
   against none, and each graph reads what its own call resolved. *)
let test_consteval_twins_are_an_argument () =
  let twin =
    Cgsim.Kernel.define ~realm:Cgsim.Kernel.Aie ~name:"adder_kernel" ~pure:true
      ~rates:[ "in1", 3; "in2", 3; "out", 3 ]
      [
        Cgsim.Kernel.in_port "in1" Cgsim.Dtype.F32;
        Cgsim.Kernel.in_port "in2" Cgsim.Dtype.F32;
        Cgsim.Kernel.out_port "out" Cgsim.Dtype.F32;
      ]
      (fun _ -> ())
  in
  let with_twin = eval_graph_of ~twins:[ twin ] adder_source in
  let without = eval_graph_of adder_source in
  let reports_i402 g =
    List.exists
      (fun (d : Cgsim.Diagnostic.t) -> String.equal d.Cgsim.Diagnostic.code "CG-I402")
      (Cgsim.Lint.run g)
  in
  let kernel g = g.Cgsim.Serialized.kernels.(0).Cgsim.Serialized.kernel in
  Alcotest.(check bool) "the twin is the instance's kernel" true (kernel with_twin == twin);
  Alcotest.(check bool) "declared purity: no CG-I402" false (reports_i402 with_twin);
  Alcotest.(check (option int)) "declared rate" (Some 3) (Cgsim.Rates.port_rate with_twin 0 0);
  Alcotest.(check bool) "no twin: CG-I402" true (reports_i402 without);
  Alcotest.(check (option int)) "no twin: no rate" None (Cgsim.Rates.port_rate without 0 0);
  Alcotest.(check bool) "a placeholder per call" false
    (kernel without == kernel (eval_graph_of adder_source))

(* A kernel invoked in a loop resolves once per call: every instance
   holds one definition, also when a declared depth overlays the twin's
   ports (a fresh record per invocation would be two definitions under
   one name, CG-E007). *)
let test_consteval_loop_shares_definition () =
  let src =
    {|COMPUTE_KERNEL(aie, loop_pass, KernelReadPort<float, 4> in, KernelWritePort<float> out) {
    while (true) { co_await out.put(co_await in.get()); }
};
constexpr auto loop_graph = make_compute_graph_v<[](IoConnector<float> a) {
    IoConnector<float> prev = a;
    for (int i = 0; i < 3; ++i) {
        IoConnector<float> next;
        loop_pass(prev, next);
        prev = next;
    }
    return std::make_tuple(prev);
}>;|}
  in
  let twin =
    Cgsim.Kernel.define ~realm:Cgsim.Kernel.Aie ~name:"loop_pass"
      [ Cgsim.Kernel.in_port "in" Cgsim.Dtype.F32; Cgsim.Kernel.out_port "out" Cgsim.Dtype.F32 ]
      (fun _ -> ())
  in
  List.iter
    (fun (what, twins) ->
      let g = eval_graph_of ~twins src in
      let ks = Array.map (fun ki -> ki.Cgsim.Serialized.kernel) g.Cgsim.Serialized.kernels in
      Alcotest.(check int) (what ^ ": three instances") 3 (Array.length ks);
      Alcotest.(check bool) (what ^ ": one definition") true
        (Array.for_all (fun k -> k == ks.(0)) ks);
      Alcotest.(check (option int)) (what ^ ": declared depth") (Some 4)
        ks.(0).Cgsim.Kernel.ports.(0).Cgsim.Kernel.settings.Cgsim.Settings.depth)
    [ "twin", [ twin ]; "placeholder", [] ]

let test_consteval_broadcast_merge () =
  let src =
    {|COMPUTE_KERNEL(aie, bm_scale, KernelReadPort<float> in, KernelWritePort<float> out) {
    while (true) { co_await out.put(co_await in.get()); }
};
constexpr auto bm_graph = make_compute_graph_v<[](IoConnector<float> a) {
    IoConnector<float> m;
    bm_scale(a, m);
    bm_scale(a, m);
    IoConnector<float> o1, o2;
    bm_scale(m, o1);
    bm_scale(m, o2);
    return std::make_tuple(o1, o2);
}>;|}
  in
  let g = eval_graph_of src in
  (* Net m: two writers (merge) and two readers (broadcast). *)
  let m = Cgsim.Serialized.net g 1 in
  Alcotest.(check int) "merge writers" 2 (List.length m.Cgsim.Serialized.writers);
  Alcotest.(check int) "broadcast readers" 2 (List.length m.Cgsim.Serialized.readers)

let test_consteval_constant () =
  let env = analyze "static constexpr int A = 6;\nstatic constexpr int B = A * 7;" in
  match Cgc.Consteval.eval_constant env "B" with
  | Cgc.Consteval.V_int 42 -> ()
  | _ -> Alcotest.fail "B should evaluate to 42"

let contains needle hay =
  let n = String.length needle in
  let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_consteval_type_error () =
  let src =
    {|COMPUTE_KERNEL(aie, te_scale, KernelReadPort<float> in, KernelWritePort<float> out) {
    while (true) { co_await out.put(co_await in.get()); }
};
constexpr auto te_graph = make_compute_graph_v<[](IoConnector<int32_t> a) {
    IoConnector<float> b;
    te_scale(a, b);
    return std::make_tuple(b);
}>;|}
  in
  match eval_graph_of src with
  | exception Cgsim.Builder.Construction_error msg ->
    (* The refusal is CG-E002 at the te_scale call, line 6. *)
    Alcotest.(check bool) ("code and call site: " ^ msg) true
      (contains "t.cgc:6:5: error[CG-E002]" msg)
  | _ -> Alcotest.fail "connecting int connector to float port must fail"

let test_consteval_runtime_dependence_rejected () =
  (* Calling an ordinary function at graph construction time is exactly
     what the compile-time design forbids (Section 3.1). *)
  let src =
    {|static int rand_count() { return 4; }
COMPUTE_KERNEL(aie, rd_scale, KernelReadPort<float> in, KernelWritePort<float> out) {
    while (true) { co_await out.put(co_await in.get()); }
};
constexpr auto rd_graph = make_compute_graph_v<[](IoConnector<float> a) {
    IoConnector<float> b;
    int n = rand_count();
    rd_scale(a, b);
    return std::make_tuple(b);
}>;|}
  in
  match eval_graph_of src with
  | exception Cgc.Consteval.Eval_error _ -> ()
  | _ -> Alcotest.fail "non-constexpr calls in graph definitions must be rejected"

(* ------------------------------------------------------------------ *)
(* Property: random graphs round-trip through CGC                      *)
(* ------------------------------------------------------------------ *)

(* One shared f32 pass-through kernel, the twin of every node; the
   generated CGC source declares the same signature so the consteval twin
   check holds. *)
let prop_node_kernel =
  Cgsim.Kernel.define ~realm:Cgsim.Kernel.Aie ~name:"prop_node_kernel"
    [ Cgsim.Kernel.in_port "in" Cgsim.Dtype.F32; Cgsim.Kernel.out_port "out" Cgsim.Dtype.F32 ]
    (fun b ->
      let i = Cgsim.Kernel.rd b 0 and o = Cgsim.Kernel.wr b 0 in
      while true do
        Cgsim.Port.put o (Cgsim.Port.get i)
      done)

let prop_kernel_cgc =
  "#include \"cgsim.hpp\"\n\
   COMPUTE_KERNEL(aie, prop_node_kernel, KernelReadPort<float> in, KernelWritePort<float> out) {\n\
   \    while (true) { co_await out.put(co_await in.get()); }\n\
   };\n"

(* A random DAG is a list of ops: each op reads an existing net and
   either creates a fresh destination net or merges into an existing
   kernel-driven net.  Net 0 is the graph input. *)
type dag_op = { src : int; fresh : bool }

let dag_gen =
  QCheck.Gen.(
    list_size (int_range 1 12)
      (map2 (fun s fresh -> { src = s; fresh }) (int_bound 1000) (frequencyl [ 4, true; 1, false ])))

let dag_arb =
  QCheck.make dag_gen ~print:(fun ops ->
      String.concat ";"
        (List.map (fun o -> Printf.sprintf "%d%s" o.src (if o.fresh then "+" else "")) ops))

(* Interpret the op list deterministically into (src_net, dst_net) pairs
   over a growing net set; returns edges and the final net count. *)
let elaborate ops =
  (* nets: 0 = input, then one per fresh op *)
  let edges = ref [] in
  let kernel_driven = ref [] in
  let count = ref 1 in
  List.iter
    (fun o ->
      let src = o.src mod !count in
      let dst =
        if o.fresh || !kernel_driven = [] then begin
          let d = !count in
          incr count;
          kernel_driven := d :: !kernel_driven;
          d
        end
        else begin
          let candidates = List.filter (fun d -> d > src) !kernel_driven in
          match candidates with
          | [] ->
            let d = !count in
            incr count;
            kernel_driven := d :: !kernel_driven;
            d
          | d :: _ -> d
        end
      in
      edges := (src, dst) :: !edges)
    ops;
  List.rev !edges, !count

let dag_to_cgc edges count =
  let buf = Buffer.create 512 in
  Buffer.add_string buf prop_kernel_cgc;
  Buffer.add_string buf
    "constexpr auto prop_graph = make_compute_graph_v<[](IoConnector<float> n0) {\n";
  for i = 1 to count - 1 do
    Buffer.add_string buf (Printf.sprintf "    IoConnector<float> n%d;\n" i)
  done;
  List.iter
    (fun (s, d) -> Buffer.add_string buf (Printf.sprintf "    prop_node_kernel(n%d, n%d);\n" s d))
    edges;
  Buffer.add_string buf (Printf.sprintf "    return std::make_tuple(n%d);\n}>;\n" (count - 1));
  Buffer.contents buf

let dag_to_builder edges count =
  Cgsim.Builder.make ~name:"prop_graph" ~inputs:[ "n0", Cgsim.Dtype.F32 ] (fun b conns ->
      let nets = Array.make count (List.hd conns) in
      for i = 1 to count - 1 do
        nets.(i) <- Cgsim.Builder.net b Cgsim.Dtype.F32
      done;
      List.iter
        (fun (s, d) -> ignore (Cgsim.Builder.add_kernel b prop_node_kernel [ nets.(s); nets.(d) ]))
        edges;
      [ nets.(count - 1) ])

let prop_random_graph_roundtrip =
  QCheck.Test.make ~name:"consteval(random CGC DAG) == builder(same DAG)" ~count:60 dag_arb
    (fun ops ->
      let edges, count = elaborate ops in
      let source = dag_to_cgc edges count in
      let env = Cgc.Driver.analyze_string ~file:"prop.cgc" source in
      match Cgc.Sema.graphs env with
      | [ g ] ->
        let via_cgc = Cgc.Consteval.eval_graph ~twins:[ prop_node_kernel ] env g in
        let via_builder = dag_to_builder edges count in
        Cgsim.Serialized.equal_topology via_cgc via_builder
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Rewriter                                                           *)
(* ------------------------------------------------------------------ *)

let test_rewriter_basic () =
  let r = Cgc.Rewriter.create ~source:"hello cruel world" in
  Cgc.Rewriter.remove r ~start:5 ~stop:11;
  Cgc.Rewriter.insert r ~at:17 "!";
  Alcotest.(check string) "edited" "hello world!" (Cgc.Rewriter.apply r)

let test_rewriter_overlap_rejected () =
  let r = Cgc.Rewriter.create ~source:"abcdef" in
  Cgc.Rewriter.remove r ~start:1 ~stop:4;
  Cgc.Rewriter.remove r ~start:3 ~stop:5;
  match Cgc.Rewriter.apply r with
  | exception Cgc.Rewriter.Rewrite_error _ -> ()
  | _ -> Alcotest.fail "overlapping edits must be rejected"

let test_rewriter_strip_co_await () =
  (* The standard transformation of Section 4.4: remove co_await tokens,
     leaving synchronous calls. *)
  let tu = parse_tu adder_source in
  let r = Cgc.Rewriter.create ~source:tu.Cgc.Ast.tu_source in
  List.iter
    (function
      | Cgc.Ast.T_kernel k ->
        Cgc.Ast.iter_exprs
          (fun e ->
            match e.Cgc.Ast.e_desc with
            | Cgc.Ast.Co_await (_, kw_range) ->
              Cgc.Rewriter.remove r ~start:kw_range.Cgc.Srcloc.start.Cgc.Srcloc.offset
                ~stop:kw_range.Cgc.Srcloc.stop.Cgc.Srcloc.offset
            | _ -> ())
          k.Cgc.Ast.k_body
      | _ -> ())
    tu.Cgc.Ast.tu_items;
  let out = Cgc.Rewriter.apply r in
  Alcotest.(check bool) "no co_await left" false (contains "co_await" out);
  Alcotest.(check bool) "calls kept" true (contains "in1.get()" out)

let () =
  Alcotest.run "cgc"
    [
      ( "lexer",
        [
          Alcotest.test_case "basic tokens" `Quick test_lexer_basic;
          Alcotest.test_case "directives" `Quick test_lexer_directives;
          Alcotest.test_case "positions" `Quick test_lexer_positions;
          Alcotest.test_case "unterminated comment" `Quick test_lexer_unterminated_comment;
          Alcotest.test_case "string escapes" `Quick test_lexer_string_escapes;
        ] );
      ( "parser",
        [
          Alcotest.test_case "adder items" `Quick test_parse_adder;
          Alcotest.test_case "kernel detail" `Quick test_parse_kernel_detail;
          Alcotest.test_case "graph detail" `Quick test_parse_graph_detail;
          Alcotest.test_case ">> template split" `Quick test_parse_template_shift_split;
          Alcotest.test_case "for loop" `Quick test_parse_for_loop;
          Alcotest.test_case "located errors" `Quick test_parse_error_located;
          Alcotest.test_case "struct with arrays" `Quick test_parse_struct_with_arrays;
        ] );
      ( "sema",
        [
          Alcotest.test_case "adder" `Quick test_sema_adder;
          Alcotest.test_case "struct dtypes" `Quick test_sema_struct_dtype;
          Alcotest.test_case "window/rtp ports" `Quick test_sema_window_rtp_ports;
          Alcotest.test_case "gmio ports" `Quick test_sema_gmio_ports;
          Alcotest.test_case "bad realm" `Quick test_sema_bad_realm;
          Alcotest.test_case "bad port type" `Quick test_sema_bad_port_type;
          Alcotest.test_case "duplicates" `Quick test_sema_duplicate;
          Alcotest.test_case "dependency analysis" `Quick test_sema_deps;
        ] );
      ( "consteval",
        [
          Alcotest.test_case "adder graph" `Quick test_consteval_adder;
          Alcotest.test_case "loop unrolling" `Quick test_consteval_loop_unroll;
          Alcotest.test_case "matches builder topology" `Quick test_consteval_matches_builder;
          Alcotest.test_case "twins are an argument" `Quick test_consteval_twins_are_an_argument;
          Alcotest.test_case "a loop shares one definition" `Quick
            test_consteval_loop_shares_definition;
          Alcotest.test_case "broadcast & merge" `Quick test_consteval_broadcast_merge;
          Alcotest.test_case "constants" `Quick test_consteval_constant;
          Alcotest.test_case "dtype error" `Quick test_consteval_type_error;
          Alcotest.test_case "runtime dependence rejected" `Quick
            test_consteval_runtime_dependence_rejected;
        ] );
      "properties", [ QCheck_alcotest.to_alcotest prop_random_graph_roundtrip ];
      ( "rewriter",
        [
          Alcotest.test_case "basic edits" `Quick test_rewriter_basic;
          Alcotest.test_case "overlap rejected" `Quick test_rewriter_overlap_rejected;
          Alcotest.test_case "strip co_await" `Quick test_rewriter_strip_co_await;
        ] );
    ]
