exception Eval_error of Srcloc.range * string

let fail range fmt = Format.kasprintf (fun s -> raise (Eval_error (range, s))) fmt

type value =
  | V_int of int
  | V_float of float
  | V_bool of bool
  | V_str of string
  | V_conn of Cgsim.Builder.conn
  | V_tuple of value list
  | V_unit

let value_kind = function
  | V_int _ -> "int"
  | V_float _ -> "float"
  | V_bool _ -> "bool"
  | V_str _ -> "string"
  | V_conn _ -> "IoConnector"
  | V_tuple _ -> "tuple"
  | V_unit -> "void"

(* Mutable evaluation scope (lexical chain). *)
type scope = {
  vars : (string, value ref) Hashtbl.t;
  parent : scope option;
}

let new_scope parent = { vars = Hashtbl.create 8; parent }

let rec lookup scope name =
  match Hashtbl.find_opt scope.vars name with
  | Some r -> Some r
  | None -> (match scope.parent with Some p -> lookup p name | None -> None)

exception Return_value of value

(* ------------------------------------------------------------------ *)
(* Constant expressions shared by globals and graph lambdas            *)
(* ------------------------------------------------------------------ *)

let as_int range = function
  | V_int i -> i
  | V_bool b -> if b then 1 else 0
  | v -> fail range "expected an integer, got %s" (value_kind v)

let as_bool range = function
  | V_bool b -> b
  | V_int i -> i <> 0
  | v -> fail range "expected a boolean, got %s" (value_kind v)

let arith range op a b =
  match a, b, op with
  | V_int x, V_int y, "+" -> V_int (x + y)
  | V_int x, V_int y, "-" -> V_int (x - y)
  | V_int x, V_int y, "*" -> V_int (x * y)
  | V_int x, V_int y, "/" ->
    if y = 0 then fail range "division by zero in constant expression" else V_int (x / y)
  | V_int x, V_int y, "%" ->
    if y = 0 then fail range "modulo by zero in constant expression" else V_int (x mod y)
  | V_int x, V_int y, "<<" -> V_int (x lsl y)
  | V_int x, V_int y, ">>" -> V_int (x asr y)
  | V_int x, V_int y, "&" -> V_int (x land y)
  | V_int x, V_int y, "|" -> V_int (x lor y)
  | V_int x, V_int y, "^" -> V_int (x lxor y)
  | V_int x, V_int y, "<" -> V_bool (x < y)
  | V_int x, V_int y, ">" -> V_bool (x > y)
  | V_int x, V_int y, "<=" -> V_bool (x <= y)
  | V_int x, V_int y, ">=" -> V_bool (x >= y)
  | V_int x, V_int y, "==" -> V_bool (x = y)
  | V_int x, V_int y, "!=" -> V_bool (x <> y)
  | (V_float _ | V_int _), (V_float _ | V_int _), _ -> begin
    let fx = match a with V_float f -> f | V_int i -> float_of_int i | _ -> assert false in
    let fy = match b with V_float f -> f | V_int i -> float_of_int i | _ -> assert false in
    match op with
    | "+" -> V_float (fx +. fy)
    | "-" -> V_float (fx -. fy)
    | "*" -> V_float (fx *. fy)
    | "/" -> V_float (fx /. fy)
    | "<" -> V_bool (fx < fy)
    | ">" -> V_bool (fx > fy)
    | "<=" -> V_bool (fx <= fy)
    | ">=" -> V_bool (fx >= fy)
    | "==" -> V_bool (fx = fy)
    | "!=" -> V_bool (fx <> fy)
    | _ -> fail range "operator %s is not usable on floats in constant expressions" op
  end
  | V_bool x, V_bool y, "&&" -> V_bool (x && y)
  | V_bool x, V_bool y, "||" -> V_bool (x || y)
  | V_str x, V_str y, "==" -> V_bool (String.equal x y)
  | V_str x, V_str y, "!=" -> V_bool (not (String.equal x y))
  | _ -> fail range "operator %s cannot combine %s and %s" op (value_kind a) (value_kind b)

(* ------------------------------------------------------------------ *)
(* Graph evaluation                                                    *)
(* ------------------------------------------------------------------ *)

type ctx = {
  env : Sema.env;
  builder : Cgsim.Builder.t;
  globals_cache : (string, value) Hashtbl.t;
  twins : Cgsim.Kernel.t list;  (* executable twins, from the caller *)
  kernels : (string, Cgsim.Kernel.t) Hashtbl.t;
      (* this call's kernel per CGC definition, resolved on first use *)
}

let rec eval_global ctx range name =
  match Hashtbl.find_opt ctx.globals_cache name with
  | Some v -> v
  | None ->
    let v =
      match Sema.find ctx.env name with
      | Some (Sema.E_global { quals; init = Some init; _ })
        when List.mem "constexpr" quals || List.mem "const" quals ->
        eval_const_expr ctx init
      | Some (Sema.E_global _) ->
        fail range "%s is not a constexpr value usable at graph-construction time" name
      | Some (Sema.E_define body) -> begin
        (* Parse the macro body as an expression once. *)
        match int_of_string_opt body with
        | Some i -> V_int i
        | None -> begin
          match float_of_string_opt body with
          | Some f -> V_float f
          | None -> V_str body
        end
      end
      | Some _ -> fail range "%s cannot be evaluated as a constant" name
      | None -> fail range "unknown name %s in constant expression" name
    in
    Hashtbl.replace ctx.globals_cache name v;
    v

and eval_const_expr ctx (e : Ast.expr) : value =
  match e.Ast.e_desc with
  | Ast.Int_lit i -> V_int i
  | Ast.Float_lit f -> V_float f
  | Ast.Str_lit s -> V_str s
  | Ast.Bool_lit b -> V_bool b
  | Ast.Ident name -> eval_global ctx e.Ast.e_range name
  | Ast.Binop (op, a, b) ->
    arith e.Ast.e_range op (eval_const_expr ctx a) (eval_const_expr ctx b)
  | Ast.Unop ("-", a) -> begin
    match eval_const_expr ctx a with
    | V_int i -> V_int (-i)
    | V_float f -> V_float (-.f)
    | v -> fail e.Ast.e_range "cannot negate %s" (value_kind v)
  end
  | Ast.Unop ("!", a) -> V_bool (not (as_bool e.Ast.e_range (eval_const_expr ctx a)))
  | Ast.Cond (c, t, f) ->
    if as_bool e.Ast.e_range (eval_const_expr ctx c) then eval_const_expr ctx t
    else eval_const_expr ctx f
  | Ast.Cast (_, x) -> eval_const_expr ctx x
  | _ -> fail e.Ast.e_range "unsupported construct in constant expression"

(* Resolve the kernel for a CGC kernel definition: prefer the caller's
   executable twin of that name, whose signature must match; otherwise
   build a placeholder so the graph can be frozen and extracted. *)
let resolve_kernel ctx (k : Ast.kernel) : Cgsim.Kernel.t =
  let ports = Sema.ports_of_kernel ctx.env k in
  let realm =
    match Cgsim.Kernel.realm_of_string k.Ast.k_realm with
    | Some r -> r
    | None -> fail k.Ast.k_range "unknown realm %s" k.Ast.k_realm
  in
  let named (t : Cgsim.Kernel.t) = String.equal t.Cgsim.Kernel.name k.Ast.k_name in
  match List.find_opt named ctx.twins with
  | Some twin ->
    let twin_ports = Array.to_list twin.Cgsim.Kernel.ports in
    if List.length twin_ports <> List.length ports then
      fail k.Ast.k_range "kernel %s: CGC declaration has %d ports but its twin has %d"
        k.Ast.k_name (List.length ports) (List.length twin_ports);
    List.iteri
      (fun i (spec : Cgsim.Kernel.port_spec) ->
        let t = List.nth twin_ports i in
        if spec.Cgsim.Kernel.dir <> t.Cgsim.Kernel.dir then
          fail k.Ast.k_range "kernel %s port %s: direction differs from the twin" k.Ast.k_name
            spec.Cgsim.Kernel.pname;
        if not (Cgsim.Dtype.equal spec.Cgsim.Kernel.dtype t.Cgsim.Kernel.dtype) then
          fail k.Ast.k_range "kernel %s port %s: dtype %s differs from the twin's %s"
            k.Ast.k_name spec.Cgsim.Kernel.pname
            (Cgsim.Dtype.to_string spec.Cgsim.Kernel.dtype)
            (Cgsim.Dtype.to_string t.Cgsim.Kernel.dtype);
        (* Settings compare after defaulting: an unset transport resolves
           to Stream, so KernelReadPort<T> matches a twin that left its
           settings implicit — but windows, sizes and RTP must agree. *)
        let same_transport =
          match
            Cgsim.Settings.resolved_transport spec.Cgsim.Kernel.settings,
            Cgsim.Settings.resolved_transport t.Cgsim.Kernel.settings
          with
          | Cgsim.Settings.Stream, Cgsim.Settings.Stream
          | Cgsim.Settings.Rtp, Cgsim.Settings.Rtp
          | Cgsim.Settings.Gmio, Cgsim.Settings.Gmio ->
            true
          | Cgsim.Settings.Window a, Cgsim.Settings.Window b -> a = b
          | ( Cgsim.Settings.Stream | Cgsim.Settings.Window _ | Cgsim.Settings.Rtp
            | Cgsim.Settings.Gmio ),
            _ ->
            false
        in
        if not same_transport then
          fail k.Ast.k_range "kernel %s port %s: transport differs from the twin" k.Ast.k_name
            spec.Cgsim.Kernel.pname)
      ports;
    if not (Cgsim.Kernel.equal_realm twin.Cgsim.Kernel.realm realm) then
      fail k.Ast.k_range "kernel %s: realm differs from the twin" k.Ast.k_name;
    (* Queue depths are CGC-side tuning, not part of the twin contract:
       a declared <.., DEPTH> argument overlays the twin's port settings
       so the instantiated graph actually gets the declared capacity. *)
    let depths_declared =
      List.exists
        (fun (spec : Cgsim.Kernel.port_spec) ->
          spec.Cgsim.Kernel.settings.Cgsim.Settings.depth <> None)
        ports
    in
    if not depths_declared then twin
    else
      {
        twin with
        Cgsim.Kernel.ports =
          Array.of_list
            (List.mapi
               (fun i (spec : Cgsim.Kernel.port_spec) ->
                 let t = List.nth twin_ports i in
                 match spec.Cgsim.Kernel.settings.Cgsim.Settings.depth with
                 | Some d ->
                   {
                     t with
                     Cgsim.Kernel.settings = Cgsim.Settings.with_depth d t.Cgsim.Kernel.settings;
                   }
                 | None -> t)
               ports);
      }
  | None ->
    Cgsim.Kernel.define ~realm ~name:k.Ast.k_name ports (fun _ ->
        failwith
          (Printf.sprintf
             "CGC kernel %s has no executable implementation (extraction-only kernel)"
             k.Ast.k_name))

(* One kernel per CGC definition and call: every invocation (a loop's
   included) shares it, as the graph's one-definition-per-name check
   requires. *)
let kernel_of_cgc ctx (k : Ast.kernel) =
  match Hashtbl.find_opt ctx.kernels k.Ast.k_name with
  | Some kernel -> kernel
  | None ->
    let kernel = resolve_kernel ctx k in
    Hashtbl.add ctx.kernels k.Ast.k_name kernel;
    kernel

let rec eval_expr ctx scope (e : Ast.expr) : value =
  match e.Ast.e_desc with
  | Ast.Int_lit i -> V_int i
  | Ast.Float_lit f -> V_float f
  | Ast.Str_lit s -> V_str s
  | Ast.Bool_lit b -> V_bool b
  | Ast.Ident name -> begin
    match lookup scope name with
    | Some r -> !r
    | None -> begin
      match Sema.find ctx.env name with
      | Some (Sema.E_kernel _) ->
        fail e.Ast.e_range "kernel %s must be invoked, not referenced" name
      | Some _ -> eval_global ctx e.Ast.e_range name
      | None -> fail e.Ast.e_range "unknown name %s in graph definition" name
    end
  end
  | Ast.Binop (op, a, b) -> arith e.Ast.e_range op (eval_expr ctx scope a) (eval_expr ctx scope b)
  | Ast.Unop ("-", a) -> begin
    match eval_expr ctx scope a with
    | V_int i -> V_int (-i)
    | V_float f -> V_float (-.f)
    | v -> fail e.Ast.e_range "cannot negate %s" (value_kind v)
  end
  | Ast.Unop ("!", a) -> V_bool (not (as_bool e.Ast.e_range (eval_expr ctx scope a)))
  | Ast.Unop ("++", a) -> begin
    match a.Ast.e_desc with
    | Ast.Ident n -> begin
      match lookup scope n with
      | Some r ->
        r := V_int (as_int e.Ast.e_range !r + 1);
        !r
      | None -> fail e.Ast.e_range "unknown variable %s" n
    end
    | _ -> fail e.Ast.e_range "++ needs a variable"
  end
  | Ast.Incr_post a -> eval_expr ctx scope { e with Ast.e_desc = Ast.Unop ("++", a) }
  | Ast.Decr_post a -> begin
    match a.Ast.e_desc with
    | Ast.Ident n -> begin
      match lookup scope n with
      | Some r ->
        r := V_int (as_int e.Ast.e_range !r - 1);
        !r
      | None -> fail e.Ast.e_range "unknown variable %s" n
    end
    | _ -> fail e.Ast.e_range "-- needs a variable"
  end
  | Ast.Assign ("=", { Ast.e_desc = Ast.Ident n; _ }, rhs) -> begin
    let v = eval_expr ctx scope rhs in
    match lookup scope n with
    | Some r ->
      r := v;
      v
    | None -> fail e.Ast.e_range "assignment to unknown variable %s" n
  end
  | Ast.Assign (op, ({ Ast.e_desc = Ast.Ident _; _ } as lhs), rhs)
    when String.length op = 2 && op.[1] = '=' ->
    let bin = String.sub op 0 1 in
    eval_expr ctx scope
      { e with Ast.e_desc = Ast.Assign ("=", lhs, { e with Ast.e_desc = Ast.Binop (bin, lhs, rhs) }) }
  | Ast.Cond (c, t, f) ->
    if as_bool e.Ast.e_range (eval_expr ctx scope c) then eval_expr ctx scope t
    else eval_expr ctx scope f
  | Ast.Cast (_, x) -> eval_expr ctx scope x
  | Ast.Call (callee, args) -> eval_call ctx scope e.Ast.e_range callee args
  | Ast.Scoped _ -> fail e.Ast.e_range "qualified names are only callable (std::make_tuple)"
  | Ast.Co_await _ -> fail e.Ast.e_range "co_await cannot appear in a graph definition"
  | Ast.Init_list _ -> fail e.Ast.e_range "brace initializers only appear in attach_attributes"
  | Ast.Member _ | Ast.Arrow _ | Ast.Index _ | Ast.Unop _ | Ast.Assign _ ->
    fail e.Ast.e_range "unsupported construct in graph definition"

and eval_call ctx scope range callee args =
  match callee.Ast.e_desc with
  | Ast.Ident "attach_attributes" -> begin
    match args with
    | [ conn_e; { Ast.e_desc = Ast.Init_list pairs; _ } ] -> begin
      match eval_expr ctx scope conn_e with
      | V_conn conn ->
        let attrs =
          List.map
            (fun (pair : Ast.expr) ->
              match pair.Ast.e_desc with
              | Ast.Init_list [ key_e; val_e ] -> begin
                let key =
                  match eval_expr ctx scope key_e with
                  | V_str s -> s
                  | v -> fail pair.Ast.e_range "attribute key must be a string, got %s" (value_kind v)
                in
                match eval_expr ctx scope val_e with
                | V_str s -> Cgsim.Attr.s key s
                | V_int i -> Cgsim.Attr.i key i
                | v -> fail pair.Ast.e_range "attribute value must be string or int, got %s" (value_kind v)
              end
              | _ -> fail pair.Ast.e_range "attributes must be {key, value} pairs")
            pairs
        in
        Cgsim.Builder.attach_attributes ctx.builder conn attrs;
        V_unit
      | v -> fail range "attach_attributes expects a connector, got %s" (value_kind v)
    end
    | _ -> fail range "attach_attributes expects (connector, {{key, value}, ...})"
  end
  | Ast.Ident name when (match Sema.find ctx.env name with Some (Sema.E_kernel _) -> true | _ -> false) -> begin
    match Sema.find ctx.env name with
    | Some (Sema.E_kernel k) ->
      let kernel = kernel_of_cgc ctx k in
      let conns =
        List.map
          (fun a ->
            match eval_expr ctx scope a with
            | V_conn c -> c
            | v -> fail a.Ast.e_range "kernel arguments must be connectors, got %s" (value_kind v))
          args
      in
      ignore (Cgsim.Builder.add_kernel ctx.builder ~src:(Diag.span_of_range range) kernel conns);
      V_unit
    | _ -> assert false
  end
  | Ast.Scoped ([ "std" ], "make_tuple") ->
    V_tuple (List.map (eval_expr ctx scope) args)
  | Ast.Ident name -> fail range "cannot call %s at graph-construction time" name
  | _ -> fail range "unsupported call in graph definition"

and eval_stmts ctx scope stmts = List.iter (eval_stmt ctx scope) stmts

and eval_stmt ctx scope (s : Ast.stmt) =
  match s.Ast.s_desc with
  | Ast.S_decl d -> begin
    match d.Ast.d_type.Ast.t_desc with
    | Ast.Ttemplate ("IoConnector", _) ->
      let dtype = Sema.connector_dtype ctx.env d.Ast.d_type in
      List.iter
        (fun (name, init) ->
          match init with
          | None ->
            Hashtbl.replace scope.vars name
              (ref
                 (V_conn
                    (Cgsim.Builder.net ~src:(Diag.span_of_range s.Ast.s_range) ctx.builder dtype)))
          | Some e -> begin
            match eval_expr ctx scope e with
            | V_conn c -> Hashtbl.replace scope.vars name (ref (V_conn c))
            | v -> fail s.Ast.s_range "connector %s initialized with %s" name (value_kind v)
          end)
        d.Ast.d_vars
    | _ ->
      List.iter
        (fun (name, init) ->
          let v =
            match init with
            | Some e -> eval_expr ctx scope e
            | None -> V_int 0
          in
          Hashtbl.replace scope.vars name (ref v))
        d.Ast.d_vars
  end
  | Ast.S_expr e -> ignore (eval_expr ctx scope e)
  | Ast.S_if (c, t, f) ->
    if as_bool s.Ast.s_range (eval_expr ctx scope c) then eval_stmts ctx (new_scope (Some scope)) t
    else eval_stmts ctx (new_scope (Some scope)) f
  | Ast.S_while (c, body) ->
    let fuel = ref 100000 in
    while as_bool s.Ast.s_range (eval_expr ctx scope c) do
      decr fuel;
      if !fuel <= 0 then fail s.Ast.s_range "graph-construction loop exceeded 100000 iterations";
      eval_stmts ctx (new_scope (Some scope)) body
    done
  | Ast.S_do_while (body, c) ->
    let continue_ = ref true in
    let fuel = ref 100000 in
    while !continue_ do
      decr fuel;
      if !fuel <= 0 then fail s.Ast.s_range "graph-construction loop exceeded 100000 iterations";
      eval_stmts ctx (new_scope (Some scope)) body;
      continue_ := as_bool s.Ast.s_range (eval_expr ctx scope c)
    done
  | Ast.S_for (init, cond, step, body) ->
    let loop_scope = new_scope (Some scope) in
    Option.iter (eval_stmt ctx loop_scope) init;
    let fuel = ref 100000 in
    let check () =
      match cond with
      | None -> true
      | Some c -> as_bool s.Ast.s_range (eval_expr ctx loop_scope c)
    in
    while check () do
      decr fuel;
      if !fuel <= 0 then fail s.Ast.s_range "graph-construction loop exceeded 100000 iterations";
      eval_stmts ctx (new_scope (Some loop_scope)) body;
      Option.iter (fun e -> ignore (eval_expr ctx loop_scope e)) step
    done
  | Ast.S_return e ->
    let v = match e with Some e -> eval_expr ctx scope e | None -> V_unit in
    raise (Return_value v)
  | Ast.S_break | Ast.S_continue ->
    fail s.Ast.s_range "break/continue are not supported in graph definitions"
  | Ast.S_block body -> eval_stmts ctx (new_scope (Some scope)) body

let eval_graph ~twins env (g : Ast.graph) : Cgsim.Serialized.t =
  let builder = Cgsim.Builder.create ~name:g.Ast.g_name in
  let ctx =
    { env; builder; globals_cache = Hashtbl.create 16; twins; kernels = Hashtbl.create 8 }
  in
  let scope = new_scope None in
  (* Lambda parameters become the graph's global inputs, in order. *)
  List.iter
    (fun (p : Ast.param) ->
      let dtype = Sema.connector_dtype env p.Ast.p_type in
      let conn =
        Cgsim.Builder.input builder ~src:(Diag.span_of_range p.Ast.p_range) ~name:p.Ast.p_name
          dtype
      in
      Hashtbl.replace scope.vars p.Ast.p_name (ref (V_conn conn)))
    g.Ast.g_lambda.Ast.l_params;
  let result =
    match eval_stmts ctx scope g.Ast.g_lambda.Ast.l_body with
    | () -> V_unit
    | exception Return_value v -> v
  in
  let outputs =
    match result with
    | V_tuple vs ->
      List.map
        (function
          | V_conn c -> c
          | v -> fail g.Ast.g_range "graph outputs must be connectors, got %s" (value_kind v))
        vs
    | V_conn c -> [ c ]
    | V_unit -> []
    | v -> fail g.Ast.g_range "graph must return connectors, got %s" (value_kind v)
  in
  List.iteri
    (fun i conn -> Cgsim.Builder.output ctx.builder ~name:(Printf.sprintf "out%d" i) conn)
    outputs;
  Cgsim.Builder.freeze builder

let eval_constant env name =
  let builder = Cgsim.Builder.create ~name:"<constant-eval>" in
  let ctx =
    { env; builder; globals_cache = Hashtbl.create 4; twins = []; kernels = Hashtbl.create 1 }
  in
  eval_global ctx Srcloc.dummy name
