exception Rewrite_error of string

let signature env (k : Cgc.Ast.kernel) =
  ignore env;
  let params =
    List.map
      (fun (p : Cgc.Ast.param) ->
        (* Re-render the parameter from its AST type to normalize
           whitespace. *)
        let rec render (t : Cgc.Ast.typ) =
          match t.Cgc.Ast.t_desc with
          | Cgc.Ast.Tname n -> n
          | Cgc.Ast.Tqualified (qs, n) -> String.concat "::" qs ^ "::" ^ n
          | Cgc.Ast.Ttemplate (n, args) ->
            let arg = function
              | Cgc.Ast.Ta_type t -> render t
              | Cgc.Ast.Ta_expr { Cgc.Ast.e_desc = Cgc.Ast.Int_lit i; _ } -> string_of_int i
              | Cgc.Ast.Ta_expr _ -> "/*expr*/"
            in
            Printf.sprintf "%s<%s>" n (String.concat ", " (List.map arg args))
          | Cgc.Ast.Tconst t -> "const " ^ render t
          | Cgc.Ast.Tref t -> render t ^ "&"
          | Cgc.Ast.Tptr t -> render t ^ "*"
          | Cgc.Ast.Tarray (t, _) -> render t ^ "[]"
          | Cgc.Ast.Tauto -> "auto"
        in
        Printf.sprintf "%s %s" (render p.Cgc.Ast.p_type) p.Cgc.Ast.p_name)
      k.Cgc.Ast.k_params
  in
  Printf.sprintf "void %s(%s)" k.Cgc.Ast.k_name (String.concat ", " params)

let forward_decl env k = signature env k ^ ";"

let definition env ~source (k : Cgc.Ast.kernel) =
  (* Rewrite a buffer scoped to the kernel's macro expansion range: the
     [COMPUTE_KERNEL(realm, name, ports)] header becomes a plain function
     header and co_await tokens disappear. *)
  let header_start = k.Cgc.Ast.k_range.Cgc.Srcloc.start.Cgc.Srcloc.offset in
  let body_start = k.Cgc.Ast.k_body_range.Cgc.Srcloc.start.Cgc.Srcloc.offset in
  let k_start = header_start in
  let k_stop = k.Cgc.Ast.k_range.Cgc.Srcloc.stop.Cgc.Srcloc.offset in
  let local_src = Cgc.Rewriter.slice ~source ~start:k_start ~stop:k_stop in
  let local = Cgc.Rewriter.create ~source:local_src in
  Cgc.Rewriter.replace local ~start:0 ~stop:(body_start - k_start) (signature env k ^ " ");
  Cgc.Ast.iter_exprs
    (fun e ->
      match e.Cgc.Ast.e_desc with
      | Cgc.Ast.Co_await (_, kw_range) ->
        let start = kw_range.Cgc.Srcloc.start.Cgc.Srcloc.offset - k_start in
        let stop = ref (kw_range.Cgc.Srcloc.stop.Cgc.Srcloc.offset - k_start) in
        while
          !stop < String.length local_src && (local_src.[!stop] = ' ' || local_src.[!stop] = '\n')
        do
          incr stop
        done;
        Cgc.Rewriter.remove local ~start ~stop:!stop
      | _ -> ())
    k.Cgc.Ast.k_body;
  let text = Cgc.Rewriter.apply local in
  (* Drop a trailing semicolon left over from the macro form. *)
  let text = String.trim text in
  if String.length text > 0 && text.[String.length text - 1] = ';' then
    String.sub text 0 (String.length text - 1)
  else text

let aie_native_param env (p : Cgc.Ast.param) =
  let spec = Cgc.Sema.port_of_param env p in
  let elem = Cgc.Sema.port_elem_spelling env p in
  match Cgsim.Settings.resolved_transport spec.Cgsim.Kernel.settings, spec.Cgsim.Kernel.dir with
  | Cgsim.Settings.Stream, Cgsim.Kernel.In ->
    Printf.sprintf "input_stream<%s> *%s_s" elem p.Cgc.Ast.p_name
  | Cgsim.Settings.Stream, Cgsim.Kernel.Out ->
    Printf.sprintf "output_stream<%s> *%s_s" elem p.Cgc.Ast.p_name
  | Cgsim.Settings.Window _, Cgsim.Kernel.In ->
    Printf.sprintf "input_window<%s> *%s_w" elem p.Cgc.Ast.p_name
  | Cgsim.Settings.Window _, Cgsim.Kernel.Out ->
    Printf.sprintf "output_window<%s> *%s_w" elem p.Cgc.Ast.p_name
  | Cgsim.Settings.Rtp, Cgsim.Kernel.In -> Printf.sprintf "%s %s_v" elem p.Cgc.Ast.p_name
  | Cgsim.Settings.Rtp, Cgsim.Kernel.Out -> Printf.sprintf "%s *%s_v" elem p.Cgc.Ast.p_name
  | Cgsim.Settings.Gmio, Cgsim.Kernel.In ->
    Printf.sprintf "input_gmio<%s> *%s_g" elem p.Cgc.Ast.p_name
  | Cgsim.Settings.Gmio, Cgsim.Kernel.Out ->
    Printf.sprintf "output_gmio<%s> *%s_g" elem p.Cgc.Ast.p_name

let aie_thunk env (k : Cgc.Ast.kernel) =
  let buf = Buffer.create 256 in
  let natives = List.map (aie_native_param env) k.Cgc.Ast.k_params in
  Buffer.add_string buf
    (Printf.sprintf "void %s_aie(%s) {\n" k.Cgc.Ast.k_name (String.concat ", " natives));
  List.iter
    (fun (p : Cgc.Ast.param) ->
      let spec = Cgc.Sema.port_of_param env p in
      let elem = Cgc.Sema.port_elem_spelling env p in
      let name = p.Cgc.Ast.p_name in
      let line =
        match
          Cgsim.Settings.resolved_transport spec.Cgsim.Kernel.settings, spec.Cgsim.Kernel.dir
        with
        | Cgsim.Settings.Stream, Cgsim.Kernel.In ->
          Printf.sprintf "    KernelReadPort<%s> %s{%s_s};" elem name name
        | Cgsim.Settings.Stream, Cgsim.Kernel.Out ->
          Printf.sprintf "    KernelWritePort<%s> %s{%s_s};" elem name name
        | Cgsim.Settings.Window w, Cgsim.Kernel.In ->
          Printf.sprintf "    KernelWindowReadPort<%s, %d> %s{%s_w};" elem w name name
        | Cgsim.Settings.Window w, Cgsim.Kernel.Out ->
          Printf.sprintf "    KernelWindowWritePort<%s, %d> %s{%s_w};" elem w name name
        | Cgsim.Settings.Rtp, Cgsim.Kernel.In ->
          Printf.sprintf "    KernelRtpPort<%s> %s{%s_v};" elem name name
        | Cgsim.Settings.Rtp, Cgsim.Kernel.Out ->
          Printf.sprintf "    KernelRtpPort<%s> %s{%s_v};" elem name name
        | Cgsim.Settings.Gmio, Cgsim.Kernel.In ->
          Printf.sprintf "    KernelGmioReadPort<%s> %s{%s_g};" elem name name
        | Cgsim.Settings.Gmio, Cgsim.Kernel.Out ->
          Printf.sprintf "    KernelGmioWritePort<%s> %s{%s_g};" elem name name
      in
      Buffer.add_string buf (line ^ "\n"))
    k.Cgc.Ast.k_params;
  Buffer.add_string buf
    (Printf.sprintf "    %s(%s);\n}\n" k.Cgc.Ast.k_name
       (String.concat ", " (List.map (fun (p : Cgc.Ast.param) -> p.Cgc.Ast.p_name) k.Cgc.Ast.k_params)));
  Buffer.contents buf
