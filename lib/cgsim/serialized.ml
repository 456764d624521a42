type endpoint = {
  kernel_idx : int;
  port_idx : int;
}

type net = {
  net_id : int;
  dtype : Dtype.t;
  settings : Settings.t;
  attrs : Attr.t list;
  writers : endpoint list;
  readers : endpoint list;
  global_input : string option;
  global_output : string option;
  src : Srcspan.t option;
}

type kernel_inst = {
  inst_name : string;
  kernel : Kernel.t;
  port_nets : int array;
  src : Srcspan.t option;
}

type t = {
  gname : string;
  kernels : kernel_inst array;
  nets : net array;
  input_order : int array;
  output_order : int array;
}

let net t id = t.nets.(id)

let kernel t idx = t.kernels.(idx)

let inputs t = Array.to_list (Array.map (net t) t.input_order)

let outputs t = Array.to_list (Array.map (net t) t.output_order)

(* ------------------------------------------------------------------ *)
(* Display names — diagnostics name kernels and nets, never indices.  *)
(* ------------------------------------------------------------------ *)

let endpoint_display t (ep : endpoint) =
  if ep.kernel_idx < 0 || ep.kernel_idx >= Array.length t.kernels then
    Printf.sprintf "kernel#%d.port#%d" ep.kernel_idx ep.port_idx
  else begin
    let ki = t.kernels.(ep.kernel_idx) in
    if ep.port_idx < 0 || ep.port_idx >= Array.length ki.kernel.Kernel.ports then
      Printf.sprintf "%s.port#%d" ki.inst_name ep.port_idx
    else Printf.sprintf "%s.%s" ki.inst_name ki.kernel.Kernel.ports.(ep.port_idx).Kernel.pname
  end

let net_display t id =
  if id < 0 || id >= Array.length t.nets then Printf.sprintf "net%d" id
  else begin
    let n = t.nets.(id) in
    match n.global_input, n.global_output with
    | Some name, _ -> Printf.sprintf "input \"%s\" (net%d)" name id
    | _, Some name -> Printf.sprintf "output \"%s\" (net%d)" name id
    | None, None ->
      let eps = List.map (endpoint_display t) (n.writers @ n.readers) in
      if eps = [] then Printf.sprintf "net%d (unconnected)" id
      else Printf.sprintf "net%d (%s)" id (String.concat ", " eps)
  end

let net_src t id =
  if id < 0 || id >= Array.length t.nets then None
  else begin
    let n = t.nets.(id) in
    match n.src with
    | Some _ as s -> s
    | None ->
      List.find_map
        (fun ep ->
          if ep.kernel_idx >= 0 && ep.kernel_idx < Array.length t.kernels then
            t.kernels.(ep.kernel_idx).src
          else None)
        (n.writers @ n.readers)
  end

let validate_diags t =
  let diags = ref [] in
  let problem ?kernels ?nets ?loc code fmt =
    Format.kasprintf
      (fun message ->
        let nets = Option.value nets ~default:[] in
        let loc =
          match loc with
          | Some _ as l -> l
          | None -> List.find_map (net_src t) nets
        in
        diags :=
          Diagnostic.make ~severity:Diagnostic.Error ~code ~graph:t.gname
            ?kernels ~nets:(List.map (net_display t) nets) ~net_ids:nets ?loc message
          :: !diags)
      fmt
  in
  let nk = Array.length t.kernels in
  let nn = Array.length t.nets in
  Array.iteri
    (fun kernel_idx (ki : kernel_inst) ->
      let ports = ki.kernel.Kernel.ports in
      if Array.length ki.port_nets <> Array.length ports then
        problem "CG-E001" ~kernels:[ ki.inst_name ] ?loc:ki.src
          "kernel %s: bound to %d nets but declares %d ports" ki.inst_name
          (Array.length ki.port_nets) (Array.length ports);
      Array.iteri
        (fun p net_id ->
          if net_id < 0 || net_id >= nn then
            problem "CG-E001" ~kernels:[ ki.inst_name ] ?loc:ki.src
              "kernel %s port %s: net id %d out of range" ki.inst_name
              (if p < Array.length ports then ports.(p).Kernel.pname
               else Printf.sprintf "#%d" p)
              net_id
          else begin
            let n = t.nets.(net_id) in
            if p < Array.length ports then begin
              let spec = ports.(p) in
              if not (Dtype.equal spec.Kernel.dtype n.dtype) then
                problem "CG-E002" ~kernels:[ ki.inst_name ] ~nets:[ net_id ]
                  ?loc:(match ki.src with Some _ as s -> s | None -> net_src t net_id)
                  "kernel %s port %s carries %s but %s carries %s" ki.inst_name
                  spec.Kernel.pname
                  (Dtype.to_string spec.Kernel.dtype)
                  (net_display t net_id) (Dtype.to_string n.dtype);
              (* The runtimes wire a kernel by its [port_nets] and the
                 analyses read the nets' lists: the two must agree from
                 this side too. *)
              let role, eps =
                match spec.Kernel.dir with
                | Kernel.Out -> "writers", n.writers
                | Kernel.In -> "readers", n.readers
              in
              if
                not
                  (List.exists (fun ep -> ep.kernel_idx = kernel_idx && ep.port_idx = p) eps)
              then
                problem "CG-E003" ~kernels:[ ki.inst_name ] ~nets:[ net_id ] ?loc:ki.src
                  "kernel %s port %s is bound to %s, which does not list it among its %s"
                  ki.inst_name spec.Kernel.pname (net_display t net_id) role
            end
          end)
        ki.port_nets;
      (* One name, one definition: generated code has one class per
         kernel name, so two definitions under one name cannot both be
         what the graph means.  The first instance using the name owns
         it (the scan ends at this instance at the latest). *)
      let name = ki.kernel.Kernel.name in
      let rec owner j =
        if String.equal t.kernels.(j).kernel.Kernel.name name then t.kernels.(j) else owner (j + 1)
      in
      let first = owner 0 in
      if first.kernel != ki.kernel then
        problem "CG-E007" ~kernels:[ first.inst_name; ki.inst_name ] ?loc:ki.src
          "kernels %s and %s use two different definitions named %s" first.inst_name
          ki.inst_name name)
    t.kernels;
  Array.iteri
    (fun id n ->
      if n.net_id <> id then
        problem "CG-E001" ~nets:[ id ] "%s: stored net id %d differs from its position"
          (net_display t id) n.net_id;
      let check_ep role ep =
        if ep.kernel_idx < 0 || ep.kernel_idx >= nk then
          problem "CG-E001" ~nets:[ id ] "%s: %s endpoint kernel index %d out of range"
            (net_display t id) role ep.kernel_idx
        else begin
          let ki = t.kernels.(ep.kernel_idx) in
          if ep.port_idx < 0 || ep.port_idx >= Array.length ki.kernel.Kernel.ports then
            problem "CG-E001" ~kernels:[ ki.inst_name ] ~nets:[ id ]
              "%s: %s endpoint port index %d out of range for kernel %s" (net_display t id)
              role ep.port_idx ki.inst_name
          else begin
            let spec = ki.kernel.Kernel.ports.(ep.port_idx) in
            let expected = if role = "writer" then Kernel.Out else Kernel.In in
            if spec.Kernel.dir <> expected then
              problem "CG-E003" ~kernels:[ ki.inst_name ] ~nets:[ id ] ?loc:ki.src
                "%s: %s endpoint %s has the wrong direction" (net_display t id) role
                (endpoint_display t ep);
            if ki.port_nets.(ep.port_idx) <> id then
              problem "CG-E003" ~kernels:[ ki.inst_name ] ~nets:[ id ] ?loc:ki.src
                "%s: endpoint %s is bound to net %d instead" (net_display t id)
                (endpoint_display t ep)
                ki.port_nets.(ep.port_idx)
          end
        end
      in
      List.iter (check_ep "writer") n.writers;
      List.iter (check_ep "reader") n.readers;
      (match Settings.validate ~elem_bytes:(Dtype.size_bytes n.dtype) n.settings with
       | Ok () -> ()
       | Error e -> problem "CG-E004" ~nets:[ id ] "%s: %s" (net_display t id) e);
      if n.writers = [] && n.global_input = None && (n.readers <> [] || n.global_output <> None)
      then begin
        let readers = List.map (endpoint_display t) n.readers in
        let waiting = if n.global_output = None then readers else readers @ [ "its sink" ] in
        problem "CG-E005" ~nets:[ id ] ~kernels:readers
          "%s has no data source: no kernel writes it and it is no global input, so %s would \
           wait forever"
          (net_display t id) (String.concat ", " waiting)
      end;
      if n.global_input <> None && n.writers <> [] then
        problem "CG-E005" ~nets:[ id ]
          ~kernels:(List.map (fun ep -> endpoint_display t ep) n.writers)
          "%s is both a global input and kernel-driven" (net_display t id))
    t.nets;
  let check_order role order flag =
    Array.iter
      (fun id ->
        if id < 0 || id >= nn then
          problem "CG-E006" "%s order references net %d, which is out of range" role id
        else if not (flag t.nets.(id)) then
          problem "CG-E006" ~nets:[ id ] "%s order references %s, which is not flagged as such"
            role (net_display t id))
      order
  in
  check_order "input" t.input_order (fun n -> n.global_input <> None);
  check_order "output" t.output_order (fun n -> n.global_output <> None);
  Array.iter
    (fun n ->
      if n.global_input <> None && not (Array.exists (Int.equal n.net_id) t.input_order) then
        problem "CG-E006" ~nets:[ n.net_id ] "%s flagged as input but missing from input order"
          (net_display t n.net_id);
      if n.global_output <> None && not (Array.exists (Int.equal n.net_id) t.output_order) then
        problem "CG-E006" ~nets:[ n.net_id ]
          "%s flagged as output but missing from output order" (net_display t n.net_id))
    t.nets;
  List.rev !diags

let endpoint_equal a b = a.kernel_idx = b.kernel_idx && a.port_idx = b.port_idx

let port_spec_equal (a : Kernel.port_spec) (b : Kernel.port_spec) =
  String.equal a.Kernel.pname b.Kernel.pname
  && a.Kernel.dir = b.Kernel.dir
  && Dtype.equal a.Kernel.dtype b.Kernel.dtype
  && Settings.equal a.Kernel.settings b.Kernel.settings

let net_equal a b =
  Dtype.equal a.dtype b.dtype
  && Settings.equal a.settings b.settings
  && List.length a.attrs = List.length b.attrs
  && List.for_all2 Attr.equal a.attrs b.attrs
  && List.length a.writers = List.length b.writers
  && List.for_all2 endpoint_equal a.writers b.writers
  && List.length a.readers = List.length b.readers
  && List.for_all2 endpoint_equal a.readers b.readers
  && Option.equal String.equal a.global_input b.global_input
  && Option.equal String.equal a.global_output b.global_output

let kernel_inst_equal a b =
  let ka = a.kernel and kb = b.kernel in
  String.equal ka.Kernel.name kb.Kernel.name
  && Kernel.equal_realm ka.Kernel.realm kb.Kernel.realm
  && Array.length ka.Kernel.ports = Array.length kb.Kernel.ports
  && Array.for_all2 port_spec_equal ka.Kernel.ports kb.Kernel.ports
  && Array.length a.port_nets = Array.length b.port_nets
  && Array.for_all2 Int.equal a.port_nets b.port_nets

let equal_topology a b =
  Array.length a.kernels = Array.length b.kernels
  && Array.length a.nets = Array.length b.nets
  && Array.for_all2 kernel_inst_equal a.kernels b.kernels
  && Array.for_all2 net_equal a.nets b.nets
  && Array.length a.input_order = Array.length b.input_order
  && Array.for_all2 Int.equal a.input_order b.input_order
  && Array.length a.output_order = Array.length b.output_order
  && Array.for_all2 Int.equal a.output_order b.output_order

let with_net_depths t depths =
  match depths with
  | [] -> t
  | _ ->
    let nets =
      Array.map
        (fun n ->
          match List.assoc_opt n.net_id depths with
          | Some d when d > 0 -> { n with settings = Settings.with_depth d n.settings }
          | _ -> n)
        t.nets
    in
    { t with nets }

let pp ppf t =
  Format.fprintf ppf "@[<v>graph %s (%d kernels, %d nets)@," t.gname (Array.length t.kernels)
    (Array.length t.nets);
  Array.iteri
    (fun i ki ->
      Format.fprintf ppf "  k%d %s : %s [%s] nets=%s@," i ki.inst_name ki.kernel.Kernel.name
        (Kernel.realm_to_string ki.kernel.Kernel.realm)
        (String.concat ","
           (Array.to_list (Array.map string_of_int ki.port_nets))))
    t.kernels;
  Array.iter
    (fun n ->
      let ep e = Printf.sprintf "k%d.%d" e.kernel_idx e.port_idx in
      Format.fprintf ppf "  n%d %a %s -> %s%s%s@," n.net_id Dtype.pp n.dtype
        (String.concat "+" (List.map ep n.writers))
        (String.concat "+" (List.map ep n.readers))
        (match n.global_input with Some s -> " <in:" ^ s ^ ">" | None -> "")
        (match n.global_output with Some s -> " <out:" ^ s ^ ">" | None -> ""))
    t.nets;
  Format.fprintf ppf "@]"

let stats t =
  let bytes =
    Array.fold_left (fun acc n -> acc + Dtype.size_bytes n.dtype) 0 t.nets
  in
  Printf.sprintf "graph %s: %d kernels, %d nets, %d inputs, %d outputs, %d element bytes total"
    t.gname (Array.length t.kernels) (Array.length t.nets) (Array.length t.input_order)
    (Array.length t.output_order) bytes
