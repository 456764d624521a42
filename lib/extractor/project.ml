exception Extract_error of string

type file = {
  rel_path : string;
  contents : string;
}

type t = {
  graph_name : string;
  source_file : string;
  serialized : Cgsim.Serialized.t;
  aie_subgraph : Cgsim.Serialized.t option;
  pl_subgraph : Cgsim.Serialized.t option;
  host_kernels : string list;
  files : file list;
  port_classes : Partition.port_class array;
  lint : Cgsim.Diagnostic.t list;
}

let extract_attribute = "extract_compute_graph"

let extractable_graphs ?(all_graphs = false) env =
  List.filter
    (fun (g : Cgc.Ast.graph) -> all_graphs || List.mem extract_attribute g.Cgc.Ast.g_attrs)
    (Cgc.Sema.graphs env)

let host_manifest (g : Cgc.Ast.graph) serialized host_kernels =
  let buf = Buffer.create 512 in
  Printf.ksprintf (Buffer.add_string buf)
    "# Host (noextract) partition of compute graph '%s'\n\
     # These kernels stay in the host application; the extractor leaves\n\
     # their prototype implementations untouched (Section 4: the\n\
     # 'noextract' target excludes kernels from extraction).\n\n"
    g.Cgc.Ast.g_name;
  List.iter (fun k -> Printf.ksprintf (Buffer.add_string buf) "kernel %s\n" k) host_kernels;
  let classes = Partition.classify serialized in
  Array.iteri
    (fun i cls ->
      Printf.ksprintf (Buffer.add_string buf) "net %d: %s\n" i
        (Format.asprintf "%a" Partition.pp_port_class cls))
    classes;
  Buffer.contents buf

(* The generated project's front page: what was extracted, and what the
   static analyzer had to say about the graph it came from.  Warnings
   ride along with the generated code so whoever builds it downstream
   sees them without re-running the linter. *)
let readme (g : Cgc.Ast.graph) (serialized : Cgsim.Serialized.t) host_kernels lint =
  let buf = Buffer.create 512 in
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  addf "# Extracted compute graph `%s`\n\n" g.Cgc.Ast.g_name;
  addf "%d kernel instances, %d nets, %d inputs, %d outputs.\n\n"
    (Array.length serialized.Cgsim.Serialized.kernels)
    (Array.length serialized.Cgsim.Serialized.nets)
    (Array.length serialized.Cgsim.Serialized.input_order)
    (Array.length serialized.Cgsim.Serialized.output_order);
  if host_kernels <> [] then
    addf "Host (noextract) kernels: %s.\n\n" (String.concat ", " host_kernels);
  addf "## Static analysis\n\n";
  (match
     List.filter
       (fun (d : Cgsim.Diagnostic.t) -> d.Cgsim.Diagnostic.severity <> Cgsim.Diagnostic.Info)
       lint
   with
   | [] -> addf "The graph lints clean (%s).\n" (Cgsim.Report.summary lint)
   | visible ->
     addf "The linter reported %s on this graph:\n\n" (Cgsim.Report.summary lint);
     List.iter (fun d -> addf "- %s\n" (Cgsim.Diagnostic.render d)) visible);
  Buffer.contents buf

let extract env (g : Cgc.Ast.graph) =
  let serialized = Cgc.Consteval.eval_graph ~twins:Apps.Harness.twins env g in
  let lint = Cgsim.Lint.run serialized in
  (match Cgsim.Diagnostic.max_severity lint with
   | Some Cgsim.Diagnostic.Error ->
     let errors =
       List.filter
         (fun (d : Cgsim.Diagnostic.t) ->
           d.Cgsim.Diagnostic.severity = Cgsim.Diagnostic.Error)
         lint
     in
     raise
       (Extract_error
          (Printf.sprintf "graph %s fails static analysis:\n%s" g.Cgc.Ast.g_name
             (String.concat "\n" (List.map Cgsim.Diagnostic.render errors))))
   | _ -> ());
  let port_classes = Partition.classify serialized in
  let realms = Partition.realms serialized in
  let has r = List.exists (Cgsim.Kernel.equal_realm r) realms in
  if not (has Cgsim.Kernel.Aie || has Cgsim.Kernel.Pl) then
    raise
      (Extract_error
         (Printf.sprintf "graph %s contains no AIE- or PL-realm kernels to extract"
            g.Cgc.Ast.g_name));
  (* Keep the user's graph name on each partition: it names the generated
     top-level classes/functions. *)
  let named_subgraph realm =
    if has realm then
      Some
        { (Partition.subgraph serialized realm) with Cgsim.Serialized.gname = g.Cgc.Ast.g_name }
    else None
  in
  let aie_subgraph = named_subgraph Cgsim.Kernel.Aie in
  let pl_subgraph = named_subgraph Cgsim.Kernel.Pl in
  let host_kernels =
    List.filter_map
      (fun (ki : Cgsim.Serialized.kernel_inst) ->
        let k = ki.kernel in
        if Cgsim.Kernel.equal_realm k.Cgsim.Kernel.realm Cgsim.Kernel.Noextract then
          Some k.Cgsim.Kernel.name
        else None)
      (Array.to_list serialized.Cgsim.Serialized.kernels)
    |> List.sort_uniq compare
  in
  let aie_files =
    match aie_subgraph with
    | None -> []
    | Some sub ->
      { rel_path = Coextract.aie_runtime_header; contents = Runtime_headers.aie }
      :: { rel_path = "kernel_decls.hpp"; contents = Codegen_aie.kernel_decls_hpp env sub }
      :: { rel_path = "graph.hpp"; contents = Codegen_aie.graph_hpp env sub }
      :: List.map
           (fun name ->
             { rel_path = name ^ ".cc"; contents = Codegen_aie.kernel_cc env sub name })
           (Codegen_aie.unique_kernels sub)
  in
  let pl_files =
    match pl_subgraph with
    | None -> []
    | Some sub ->
      { rel_path = "pl/" ^ Codegen_hls.hls_runtime_header; contents = Runtime_headers.hls }
      :: { rel_path = "pl/pl_kernels.hpp"; contents = Codegen_hls.kernels_hpp env sub }
      :: { rel_path = Printf.sprintf "pl/%s_pl.cpp" g.Cgc.Ast.g_name;
           contents = Codegen_hls.toplevel_cpp env sub }
      :: List.map
           (fun name ->
             { rel_path = "pl/" ^ name ^ ".cpp"; contents = Codegen_hls.kernel_cpp env sub name })
           (Codegen_aie.unique_kernels sub)
  in
  let host_files =
    if host_kernels = [] then []
    else [ { rel_path = "host/MANIFEST"; contents = host_manifest g serialized host_kernels } ]
  in
  let source_file =
    match Cgc.Sema.defining_tu env g.Cgc.Ast.g_name with
    | Some tu -> tu.Cgc.Ast.tu_file
    | None -> "<unknown>"
  in
  let readme_file =
    { rel_path = "README.md"; contents = readme g serialized host_kernels lint }
  in
  {
    graph_name = g.Cgc.Ast.g_name;
    source_file;
    serialized;
    aie_subgraph;
    pl_subgraph;
    host_kernels;
    files = (readme_file :: aie_files) @ pl_files @ host_files;
    port_classes;
    lint;
  }

let extract_file ?include_dirs ?all_graphs path =
  let env = Cgc.Driver.analyze_file ?include_dirs path in
  match extractable_graphs ?all_graphs env with
  | [] -> raise (Extract_error (path ^ ": no extractable compute graphs found"))
  | graphs -> List.map (extract env) graphs

let extract_string ?all_graphs ?file source =
  let env = Cgc.Driver.analyze_string ?file source in
  match extractable_graphs ?all_graphs env with
  | [] -> raise (Extract_error "no extractable compute graphs found")
  | graphs -> List.map (extract env) graphs

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let write ~dir t =
  let base = Filename.concat dir t.graph_name in
  mkdir_p base;
  List.map
    (fun f ->
      let path = Filename.concat base f.rel_path in
      mkdir_p (Filename.dirname path);
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc f.contents);
      path)
    t.files

let deploy t =
  match t.aie_subgraph with
  | Some sub -> Aiesim.Deploy.extracted sub
  | None ->
    raise (Extract_error (Printf.sprintf "graph %s has no AIE partition to deploy" t.graph_name))

let pp_summary ppf t =
  Format.fprintf ppf "@[<v>graph %s (from %s)@," t.graph_name t.source_file;
  Format.fprintf ppf "  %d kernels, %d nets@,"
    (Array.length t.serialized.Cgsim.Serialized.kernels)
    (Array.length t.serialized.Cgsim.Serialized.nets);
  let pp_part label = function
    | None -> ()
    | Some (sub : Cgsim.Serialized.t) ->
      Format.fprintf ppf "  %s partition: %d kernels, %d nets@," label
        (Array.length sub.Cgsim.Serialized.kernels)
        (Array.length sub.Cgsim.Serialized.nets)
  in
  pp_part "AIE" t.aie_subgraph;
  pp_part "PL" t.pl_subgraph;
  if t.host_kernels <> [] then
    Format.fprintf ppf "  host kernels: %s@," (String.concat ", " t.host_kernels);
  Array.iteri
    (fun i cls ->
      Format.fprintf ppf "  net %d: %a@," i Partition.pp_port_class cls)
    t.port_classes;
  Format.fprintf ppf "  files: %s@]"
    (String.concat ", " (List.map (fun f -> f.rel_path) t.files))
