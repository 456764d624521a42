let hls_runtime_header = "cgsim_hls_rt.hpp"

let hls_header_blacklist = Coextract.aie_header_blacklist

let banner what (g : Cgsim.Serialized.t) =
  Printf.sprintf
    "// %s for compute graph '%s' (PL/HLS realm)\n// generated by cgx (cgsim graph extractor); \
     do not edit\n"
    what g.gname

let find_kernel_ast env name =
  match Cgc.Sema.find env name with
  | Some (Cgc.Sema.E_kernel k) -> k
  | _ -> failwith (Printf.sprintf "extractor: kernel %s has no CGC definition" name)

(* hls::stream interface spelling for one port. *)
let hls_param env (p : Cgc.Ast.param) =
  let spec = Cgc.Sema.port_of_param env p in
  let elem = Cgc.Sema.port_elem_spelling env p in
  match Cgsim.Settings.resolved_transport spec.Cgsim.Kernel.settings, spec.Cgsim.Kernel.dir with
  | Cgsim.Settings.Rtp, Cgsim.Kernel.In -> Printf.sprintf "%s %s_v" elem p.Cgc.Ast.p_name
  | Cgsim.Settings.Rtp, Cgsim.Kernel.Out -> Printf.sprintf "%s &%s_v" elem p.Cgc.Ast.p_name
  | _, Cgsim.Kernel.In -> Printf.sprintf "hls::stream<%s> &%s_s" elem p.Cgc.Ast.p_name
  | _, Cgsim.Kernel.Out -> Printf.sprintf "hls::stream<%s> &%s_s" elem p.Cgc.Ast.p_name

let wrapper_name name = name ^ "_hls"

let hls_wrapper env (k : Cgc.Ast.kernel) =
  let buf = Buffer.create 256 in
  let params = List.map (hls_param env) k.Cgc.Ast.k_params in
  Buffer.add_string buf
    (Printf.sprintf "void %s(%s) {\n" (wrapper_name k.Cgc.Ast.k_name) (String.concat ", " params));
  List.iter
    (fun (p : Cgc.Ast.param) ->
      let spec = Cgc.Sema.port_of_param env p in
      match Cgsim.Settings.resolved_transport spec.Cgsim.Kernel.settings with
      | Cgsim.Settings.Rtp ->
        Buffer.add_string buf
          (Printf.sprintf "#pragma HLS INTERFACE s_axilite port=%s_v\n" p.Cgc.Ast.p_name)
      | _ ->
        Buffer.add_string buf
          (Printf.sprintf "#pragma HLS INTERFACE axis port=%s_s\n" p.Cgc.Ast.p_name))
    k.Cgc.Ast.k_params;
  List.iter
    (fun (p : Cgc.Ast.param) ->
      let spec = Cgc.Sema.port_of_param env p in
      let elem = Cgc.Sema.port_elem_spelling env p in
      let name = p.Cgc.Ast.p_name in
      let line =
        match
          Cgsim.Settings.resolved_transport spec.Cgsim.Kernel.settings, spec.Cgsim.Kernel.dir
        with
        | Cgsim.Settings.Rtp, _ -> Printf.sprintf "    KernelRtpPort<%s> %s{%s_v};" elem name name
        | Cgsim.Settings.Window w, Cgsim.Kernel.In ->
          Printf.sprintf "    KernelWindowReadPort<%s, %d> %s{%s_s};" elem w name name
        | Cgsim.Settings.Window w, Cgsim.Kernel.Out ->
          Printf.sprintf "    KernelWindowWritePort<%s, %d> %s{%s_s};" elem w name name
        | (Cgsim.Settings.Stream | Cgsim.Settings.Gmio), Cgsim.Kernel.In ->
          Printf.sprintf "    KernelReadPort<%s> %s{%s_s};" elem name name
        | (Cgsim.Settings.Stream | Cgsim.Settings.Gmio), Cgsim.Kernel.Out ->
          Printf.sprintf "    KernelWritePort<%s> %s{%s_s};" elem name name
      in
      Buffer.add_string buf (line ^ "\n"))
    k.Cgc.Ast.k_params;
  Buffer.add_string buf
    (Printf.sprintf "    %s(%s);\n}\n" k.Cgc.Ast.k_name
       (String.concat ", "
          (List.map (fun (p : Cgc.Ast.param) -> p.Cgc.Ast.p_name) k.Cgc.Ast.k_params)));
  Buffer.contents buf

let kernels_hpp env (g : Cgsim.Serialized.t) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (banner "kernel declarations" g);
  Buffer.add_string buf "#pragma once\n#include <hls_stream.h>\n";
  Buffer.add_string buf (Printf.sprintf "#include \"%s\"\n\n" hls_runtime_header);
  List.iter
    (fun name ->
      let k = find_kernel_ast env name in
      Buffer.add_string buf (Kernel_rewrite.forward_decl env k);
      Buffer.add_char buf '\n';
      let params = List.map (hls_param env) k.Cgc.Ast.k_params in
      Buffer.add_string buf
        (Printf.sprintf "void %s(%s);\n\n" (wrapper_name name) (String.concat ", " params)))
    (Codegen_aie.unique_kernels g);
  Buffer.contents buf

let kernel_cpp env (g : Cgsim.Serialized.t) name =
  let k = find_kernel_ast env name in
  let tu =
    match Cgc.Sema.defining_tu env name with
    | Some tu -> tu
    | None -> failwith (Printf.sprintf "extractor: no source for kernel %s" name)
  in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf (banner (Printf.sprintf "kernel %s" name) g);
  Buffer.add_string buf "#include <hls_stream.h>\n";
  List.iter
    (fun line -> Buffer.add_string buf (line ^ "\n"))
    (Coextract.includes_for env ~blacklist:hls_header_blacklist ~runtime_header:hls_runtime_header);
  Buffer.add_char buf '\n';
  List.iter
    (fun decl ->
      Buffer.add_string buf decl;
      Buffer.add_string buf "\n\n")
    (Coextract.support_decls env [ name ]);
  Buffer.add_string buf (Kernel_rewrite.definition env ~source:tu.Cgc.Ast.tu_source k);
  Buffer.add_string buf "\n\n";
  Buffer.add_string buf (hls_wrapper env k);
  Buffer.contents buf

let toplevel_cpp env (g : Cgsim.Serialized.t) =
  let buf = Buffer.create 2048 in
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  Buffer.add_string buf (banner "top-level dataflow region" g);
  addf "#include <hls_stream.h>\n#include \"pl_kernels.hpp\"\n\n";
  (* Top-level signature: one hls::stream per global net, one scalar per
     RTP input. *)
  let net_elem (n : Cgsim.Serialized.net) =
    (* A net has no CGC parameter of its own: spell its element as a
       kernel port on it declares it, so a struct keeps its name. *)
    let port_on_net (ki : Cgsim.Serialized.kernel_inst) =
      let params = (find_kernel_ast env ki.kernel.Cgsim.Kernel.name).Cgc.Ast.k_params in
      List.find_mapi
        (fun i p ->
          if ki.port_nets.(i) = n.net_id then Some (Cgc.Sema.port_elem_spelling env p) else None)
        params
    in
    match Array.find_map port_on_net g.kernels with
    | Some elem -> elem
    | None -> Cgsim.Dtype.cpp_spelling n.Cgsim.Serialized.dtype
  in
  let externals =
    List.map
      (fun nid ->
        let n = g.nets.(nid) in
        match Cgsim.Settings.resolved_transport n.Cgsim.Serialized.settings with
        | Cgsim.Settings.Rtp -> Printf.sprintf "%s rtp_net%d" (net_elem n) nid
        | _ -> Printf.sprintf "hls::stream<%s> &net%d" (net_elem n) nid)
      (Array.to_list g.input_order)
    @ List.map
        (fun nid ->
          let n = g.nets.(nid) in
          Printf.sprintf "hls::stream<%s> &net%d" (net_elem n) nid)
        (Array.to_list g.output_order)
  in
  addf "void %s_pl(%s) {\n" g.gname (String.concat ", " externals);
  addf "#pragma HLS DATAFLOW\n";
  (* Internal channels. *)
  Array.iter
    (fun (n : Cgsim.Serialized.net) ->
      if n.global_input = None && n.global_output = None then
        addf "    static hls::stream<%s> net%d(\"net%d\");\n" (net_elem n) n.net_id n.net_id)
    g.nets;
  (* Kernel instantiations, positional port binding. *)
  Array.iter
    (fun (ki : Cgsim.Serialized.kernel_inst) ->
      let args =
        Array.to_list
          (Array.mapi
             (fun i (spec : Cgsim.Kernel.port_spec) ->
               let nid = ki.port_nets.(i) in
               match Cgsim.Settings.resolved_transport spec.Cgsim.Kernel.settings with
               | Cgsim.Settings.Rtp -> Printf.sprintf "rtp_net%d" nid
               | _ -> Printf.sprintf "net%d" nid)
             ki.kernel.Cgsim.Kernel.ports)
      in
      addf "    %s(%s); // %s\n"
        (wrapper_name ki.kernel.Cgsim.Kernel.name)
        (String.concat ", " args) ki.inst_name)
    g.kernels;
  addf "}\n";
  Buffer.contents buf
