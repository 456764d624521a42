type entry =
  | E_struct of Ast.param list
  | E_func of { quals : string list; ret : Ast.typ; params : Ast.param list }
  | E_global of { quals : string list; typ : Ast.typ; init : Ast.expr option }
  | E_define of string
  | E_kernel of Ast.kernel
  | E_graph of Ast.graph

type env = {
  e_tus : Ast.tu list;
  symbols : (string, entry) Hashtbl.t;
  tu_of : (string, Ast.tu) Hashtbl.t;
  mutable rev_order : string list;
  mutable rev_includes : (string * bool * Ast.tu) list;
}

exception Sema_error of Srcloc.range * string

let fail range fmt = Format.kasprintf (fun s -> raise (Sema_error (range, s))) fmt

let tus env = env.e_tus

let find env name = Hashtbl.find_opt env.symbols name

let defining_tu env name = Hashtbl.find_opt env.tu_of name

let order env = List.rev env.rev_order

let includes env = List.rev env.rev_includes

let kernels env =
  List.filter_map
    (fun name -> match find env name with Some (E_kernel k) -> Some k | _ -> None)
    (order env)

let graphs env =
  List.filter_map
    (fun name -> match find env name with Some (E_graph g) -> Some g | _ -> None)
    (order env)

let define env tu range name entry =
  (match Hashtbl.find_opt env.symbols name with
   | Some _ -> fail range "duplicate definition of %s" name
   | None -> ());
  Hashtbl.add env.symbols name entry;
  Hashtbl.add env.tu_of name tu;
  env.rev_order <- name :: env.rev_order

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

let rec dtype_of_type env (t : Ast.typ) : Cgsim.Dtype.t =
  match t.Ast.t_desc with
  | Ast.Tconst inner | Ast.Tref inner -> dtype_of_type env inner
  | Ast.Tname name -> begin
    match Cgsim.Dtype.of_cpp_spelling name with
    | Some dt -> dt
    | None -> begin
      match find env name with
      | Some (E_struct fields) ->
        Cgsim.Dtype.Struct
          (List.map (fun (f : Ast.param) -> f.Ast.p_name, field_dtype env f.Ast.p_type) fields)
      | _ -> fail t.Ast.t_range "unknown element type %s" name
    end
  end
  | Ast.Tqualified (_, name) -> begin
    match Cgsim.Dtype.of_cpp_spelling name with
    | Some dt -> dt
    | None -> fail t.Ast.t_range "unknown element type %s" name
  end
  | Ast.Ttemplate (name, _) -> fail t.Ast.t_range "template type %s is not a stream element type" name
  | Ast.Tptr _ -> fail t.Ast.t_range "pointer types cannot cross stream ports"
  | Ast.Tarray _ -> fail t.Ast.t_range "array types cannot cross stream ports directly"
  | Ast.Tauto -> fail t.Ast.t_range "auto is not a stream element type"

and field_dtype env (t : Ast.typ) : Cgsim.Dtype.t =
  match t.Ast.t_desc with
  | Ast.Tarray (elem, Some { Ast.e_desc = Ast.Int_lit n; _ }) when n > 0 ->
    Cgsim.Dtype.Vector (dtype_of_type env elem, n)
  | Ast.Tarray (_, _) -> fail t.Ast.t_range "struct array fields need a literal dimension"
  | _ -> dtype_of_type env t

let int_template_arg (t : Ast.targ) range =
  match t with
  | Ast.Ta_expr { Ast.e_desc = Ast.Int_lit n; _ } -> n
  | Ast.Ta_expr _ | Ast.Ta_type _ -> fail range "expected an integer template argument"

let port_of_param env (p : Ast.param) : Cgsim.Kernel.port_spec =
  let range = p.Ast.p_range in
  (* Stream and window port types accept one trailing integer template
     argument declaring the simulation queue depth in elements —
     cgsim's KernelReadPort<T, DEPTH> non-type argument.  Omitted, the
     depth stays unset and resolves to the runtime default. *)
  let depth settings = function
    | [] -> settings
    | [ d ] -> Cgsim.Settings.with_depth (int_template_arg d range) settings
    | _ -> fail range "kernel parameter %s: too many template arguments" p.Ast.p_name
  in
  match p.Ast.p_type.Ast.t_desc with
  | Ast.Ttemplate ("KernelReadPort", Ast.Ta_type elem :: rest) ->
    Cgsim.Kernel.in_port p.Ast.p_name (dtype_of_type env elem)
      ~settings:(depth Cgsim.Settings.stream rest)
  | Ast.Ttemplate ("KernelWritePort", Ast.Ta_type elem :: rest) ->
    Cgsim.Kernel.out_port p.Ast.p_name (dtype_of_type env elem)
      ~settings:(depth Cgsim.Settings.stream rest)
  | Ast.Ttemplate ("KernelWindowReadPort", Ast.Ta_type elem :: bytes :: rest) ->
    Cgsim.Kernel.in_port p.Ast.p_name (dtype_of_type env elem)
      ~settings:(depth (Cgsim.Settings.window (int_template_arg bytes range)) rest)
  | Ast.Ttemplate ("KernelWindowWritePort", Ast.Ta_type elem :: bytes :: rest) ->
    Cgsim.Kernel.out_port p.Ast.p_name (dtype_of_type env elem)
      ~settings:(depth (Cgsim.Settings.window (int_template_arg bytes range)) rest)
  | Ast.Ttemplate ("KernelRtpPort", [ Ast.Ta_type elem ]) ->
    Cgsim.Kernel.in_port p.Ast.p_name (dtype_of_type env elem) ~settings:Cgsim.Settings.rtp
  | Ast.Ttemplate ("KernelGmioReadPort", [ Ast.Ta_type elem ]) ->
    Cgsim.Kernel.in_port p.Ast.p_name (dtype_of_type env elem) ~settings:Cgsim.Settings.gmio
  | Ast.Ttemplate ("KernelGmioWritePort", [ Ast.Ta_type elem ]) ->
    Cgsim.Kernel.out_port p.Ast.p_name (dtype_of_type env elem) ~settings:Cgsim.Settings.gmio
  | Ast.Ttemplate (name, _) ->
    fail range "kernel parameter %s: %s is not a known port type" p.Ast.p_name name
  | _ ->
    fail range "kernel parameter %s must be a Kernel*Port<...> type" p.Ast.p_name

let ports_of_kernel env (k : Ast.kernel) = List.map (port_of_param env) k.Ast.k_params

let port_elem_spelling env (p : Ast.param) =
  let rec tag (t : Ast.typ) =
    match t.Ast.t_desc with
    | Ast.Tconst inner | Ast.Tref inner -> tag inner
    | Ast.Tname name -> Some name
    | _ -> None
  in
  let struct_name =
    match p.Ast.p_type.Ast.t_desc with
    | Ast.Ttemplate (_, Ast.Ta_type elem :: _) -> tag elem
    | _ -> None
  in
  Cgsim.Dtype.cpp_spelling ?struct_name (port_of_param env p).Cgsim.Kernel.dtype

let connector_dtype env (t : Ast.typ) =
  match t.Ast.t_desc with
  | Ast.Ttemplate ("IoConnector", [ Ast.Ta_type elem ]) -> dtype_of_type env elem
  | _ -> fail t.Ast.t_range "expected IoConnector<T>"

(* ------------------------------------------------------------------ *)
(* Analysis                                                            *)
(* ------------------------------------------------------------------ *)

let analyze (tus : Ast.tu list) =
  let env =
    {
      e_tus = tus;
      symbols = Hashtbl.create 64;
      tu_of = Hashtbl.create 64;
      rev_order = [];
      rev_includes = [];
    }
  in
  List.iter
    (fun (tu : Ast.tu) ->
      List.iter
        (fun item ->
          match item with
          | Ast.T_include { path; system; _ } ->
            env.rev_includes <- (path, system, tu) :: env.rev_includes
          | Ast.T_pragma _ -> ()
          | Ast.T_define { name; body; range } -> define env tu range name (E_define body)
          | Ast.T_struct { name; fields; range } -> define env tu range name (E_struct fields)
          | Ast.T_global { name; quals; typ; init; range; _ } ->
            define env tu range name (E_global { quals; typ; init })
          | Ast.T_func { name; quals; ret; params; range; _ } ->
            define env tu range name (E_func { quals; ret; params })
          | Ast.T_kernel k -> define env tu k.Ast.k_range k.Ast.k_name (E_kernel k)
          | Ast.T_graph g -> define env tu g.Ast.g_range g.Ast.g_name (E_graph g))
        tu.Ast.tu_items)
    tus;
  (* Validation pass. *)
  List.iter
    (fun name ->
      match Hashtbl.find env.symbols name with
      | E_kernel k ->
        (match Cgsim.Kernel.realm_of_string k.Ast.k_realm with
         | Some _ -> ()
         | None -> fail k.Ast.k_range "unknown realm %s for kernel %s" k.Ast.k_realm name);
        ignore (ports_of_kernel env k)
      | E_graph g ->
        List.iter
          (fun (p : Ast.param) -> ignore (connector_dtype env p.Ast.p_type))
          g.Ast.g_lambda.Ast.l_params
      | E_struct fields ->
        List.iter (fun (f : Ast.param) -> ignore (field_dtype env f.Ast.p_type)) fields
      | E_func _ | E_global _ | E_define _ -> ())
    (order env);
  env

(* ------------------------------------------------------------------ *)
(* Dependencies                                                        *)
(* ------------------------------------------------------------------ *)

let rec type_names (t : Ast.typ) =
  match t.Ast.t_desc with
  | Ast.Tname n -> [ n ]
  | Ast.Tqualified (_, n) -> [ n ]
  | Ast.Ttemplate (n, args) ->
    n
    :: List.concat_map
         (function Ast.Ta_type t -> type_names t | Ast.Ta_expr e -> expr_names e)
         args
  | Ast.Tconst t | Ast.Tref t | Ast.Tptr t -> type_names t
  | Ast.Tarray (t, dim) ->
    type_names t @ (match dim with Some e -> expr_names e | None -> [])
  | Ast.Tauto -> []

and expr_names e =
  let acc = ref [] in
  Ast.iter_exprs
    (fun e ->
      match e.Ast.e_desc with
      | Ast.Ident n -> acc := n :: !acc
      | Ast.Scoped (_, n) -> acc := n :: !acc
      | _ -> ())
    [ { Ast.s_desc = Ast.S_expr e; s_range = Srcloc.dummy } ];
  List.rev !acc

let func_body env name =
  match Hashtbl.find_opt env.tu_of name with
  | None -> []
  | Some tu ->
    List.concat_map
      (fun item ->
        match item with
        | Ast.T_func f when String.equal f.name name -> f.body
        | _ -> [])
      tu.Ast.tu_items

let idents_of_entry env name =
  match Hashtbl.find_opt env.symbols name with
  | None -> []
  | Some (E_func { params; ret; _ }) ->
    Ast.referenced_idents (func_body env name)
    @ List.concat_map (fun (p : Ast.param) -> type_names p.Ast.p_type) params
    @ type_names ret
  | Some (E_kernel k) ->
    Ast.referenced_idents k.Ast.k_body
    @ List.concat_map (fun (p : Ast.param) -> type_names p.Ast.p_type) k.Ast.k_params
  | Some (E_global { init; typ; _ }) ->
    (match init with None -> [] | Some e -> expr_names e) @ type_names typ
  | Some (E_struct fields) ->
    List.concat_map (fun (f : Ast.param) -> type_names f.Ast.p_type) fields
  | Some (E_graph g) -> Ast.referenced_idents g.Ast.g_lambda.Ast.l_body
  | Some (E_define _) -> []

let direct_deps env name =
  let refs = idents_of_entry env name in
  let seen = Hashtbl.create 8 in
  List.filter
    (fun n ->
      (not (String.equal n name))
      && Hashtbl.mem env.symbols n
      &&
      if Hashtbl.mem seen n then false
      else begin
        Hashtbl.add seen n ();
        true
      end)
    refs

let transitive_deps env roots =
  let visited = Hashtbl.create 16 in
  List.iter (fun r -> Hashtbl.replace visited r ()) roots;
  let collected = Hashtbl.create 16 in
  let rec visit name =
    List.iter
      (fun dep ->
        if not (Hashtbl.mem visited dep) then begin
          Hashtbl.add visited dep ();
          Hashtbl.add collected dep ();
          visit dep
        end)
      (direct_deps env name)
  in
  List.iter visit roots;
  List.filter (Hashtbl.mem collected) (order env)
