type port_class =
  | Intra_realm of Cgsim.Kernel.realm
  | Inter_realm
  | Global

let equal_port_class a b =
  match a, b with
  | Intra_realm x, Intra_realm y -> Cgsim.Kernel.equal_realm x y
  | Inter_realm, Inter_realm | Global, Global -> true
  | (Intra_realm _ | Inter_realm | Global), _ -> false

let pp_port_class ppf = function
  | Intra_realm r -> Format.fprintf ppf "intra(%s)" (Cgsim.Kernel.realm_to_string r)
  | Inter_realm -> Format.pp_print_string ppf "inter"
  | Global -> Format.pp_print_string ppf "global"

exception Partition_error of string

let endpoint_realm (g : Cgsim.Serialized.t) (ep : Cgsim.Serialized.endpoint) =
  g.kernels.(ep.kernel_idx).kernel.Cgsim.Kernel.realm

let classify (g : Cgsim.Serialized.t) =
  Array.map
    (fun (n : Cgsim.Serialized.net) ->
      if n.global_input <> None || n.global_output <> None then Global
      else begin
        let realms =
          List.map (endpoint_realm g) (n.writers @ n.readers)
        in
        match realms with
        | [] -> Global (* dangling net: external by definition *)
        | r :: rest ->
          if List.for_all (Cgsim.Kernel.equal_realm r) rest then Intra_realm r else Inter_realm
      end)
    g.nets

let realms (g : Cgsim.Serialized.t) =
  Array.fold_left
    (fun acc (ki : Cgsim.Serialized.kernel_inst) ->
      let realm = ki.kernel.Cgsim.Kernel.realm in
      if List.exists (Cgsim.Kernel.equal_realm realm) acc then acc else acc @ [ realm ])
    [] g.kernels

let subgraph (g : Cgsim.Serialized.t) realm =
  let keep_kernel (ki : Cgsim.Serialized.kernel_inst) =
    Cgsim.Kernel.equal_realm ki.kernel.Cgsim.Kernel.realm realm
  in
  let kept_kernels =
    Array.of_list (List.filter keep_kernel (Array.to_list g.kernels))
  in
  if Array.length kept_kernels = 0 then
    raise
      (Partition_error
         (Printf.sprintf "graph %s has no kernels in realm %s" g.gname
            (Cgsim.Kernel.realm_to_string realm)));
  let kernel_remap = Hashtbl.create 8 in
  Array.iteri
    (fun new_idx (ki : Cgsim.Serialized.kernel_inst) ->
      (* original index: find by instance name (unique) *)
      let orig_idx = ref (-1) in
      Array.iteri
        (fun i (o : Cgsim.Serialized.kernel_inst) ->
          if String.equal o.inst_name ki.inst_name then orig_idx := i)
        g.kernels;
      Hashtbl.replace kernel_remap !orig_idx new_idx)
    kept_kernels;
  (* Nets touched by kept kernels. *)
  let touched = Array.make (Array.length g.nets) false in
  Array.iter
    (fun (ki : Cgsim.Serialized.kernel_inst) ->
      Array.iter (fun nid -> touched.(nid) <- true) ki.port_nets)
    kept_kernels;
  let net_remap = Hashtbl.create 16 in
  let kept_net_ids =
    List.filteri
      (fun _ _ -> true)
      (List.filter (fun nid -> touched.(nid)) (List.init (Array.length g.nets) Fun.id))
  in
  List.iteri (fun new_id orig_id -> Hashtbl.replace net_remap orig_id new_id) kept_net_ids;
  let classes = classify g in
  let remap_ep (ep : Cgsim.Serialized.endpoint) =
    match Hashtbl.find_opt kernel_remap ep.kernel_idx with
    | Some k -> Some { ep with Cgsim.Serialized.kernel_idx = k }
    | None -> None
  in
  let nets =
    Array.of_list
      (List.map
         (fun orig_id ->
           let n = g.nets.(orig_id) in
           let writers = List.filter_map remap_ep n.writers in
           let readers = List.filter_map remap_ep n.readers in
           let external_name suffix =
             Printf.sprintf "%s_net%d_%s" g.gname orig_id suffix
           in
           (* A net becomes a subgraph input when its data comes from
              outside the realm (global input or foreign writer), and a
              subgraph output when consumed outside. *)
           let foreign_writer =
             List.exists (fun ep -> remap_ep ep = None) n.writers || n.global_input <> None
           in
           let foreign_reader =
             List.exists (fun ep -> remap_ep ep = None) n.readers || n.global_output <> None
           in
           let global_input =
             if foreign_writer then
               Some (Option.value n.global_input ~default:(external_name "in"))
             else None
           in
           let global_output =
             if foreign_reader then
               Some (Option.value n.global_output ~default:(external_name "out"))
             else None
           in
           ignore classes;
           {
             n with
             Cgsim.Serialized.net_id = Hashtbl.find net_remap orig_id;
             writers;
             readers;
             global_input;
             global_output;
           })
         kept_net_ids)
  in
  let kernels =
    Array.map
      (fun (ki : Cgsim.Serialized.kernel_inst) ->
        { ki with Cgsim.Serialized.port_nets = Array.map (Hashtbl.find net_remap) ki.port_nets })
      kept_kernels
  in
  let input_order =
    Array.of_list
      (List.filter_map
         (fun (n : Cgsim.Serialized.net) ->
           if n.Cgsim.Serialized.global_input <> None then Some n.Cgsim.Serialized.net_id else None)
         (Array.to_list nets))
  in
  let output_order =
    Array.of_list
      (List.filter_map
         (fun (n : Cgsim.Serialized.net) ->
           if n.Cgsim.Serialized.global_output <> None then Some n.Cgsim.Serialized.net_id
           else None)
         (Array.to_list nets))
  in
  let sub =
    {
      Cgsim.Serialized.gname = Printf.sprintf "%s_%s" g.gname (Cgsim.Kernel.realm_to_string realm);
      kernels;
      nets;
      input_order;
      output_order;
    }
  in
  match Cgsim.Serialized.validate_diags sub with
  | [] -> sub
  | diags ->
    raise
      (Partition_error
         (Printf.sprintf "subgraph of %s for realm %s is invalid: %s" g.gname
            (Cgsim.Kernel.realm_to_string realm)
            (String.concat "; " (List.map Cgsim.Diagnostic.render diags))))
