let dtype_to_string t =
  (* Dtype.pp prints "{a:f32; b:i32}"; the format removes blanks so a
     dtype is always a single token. *)
  String.concat "" (String.split_on_char ' ' (Dtype.to_string t))

let settings_tokens (st : Settings.t) =
  let transport =
    match st.Settings.transport with
    | None -> []
    | Some Settings.Stream -> [ "transport=stream" ]
    | Some (Settings.Window b) -> [ Printf.sprintf "transport=window:%d" b ]
    | Some Settings.Rtp -> [ "transport=rtp" ]
    | Some Settings.Gmio -> [ "transport=gmio" ]
  in
  transport
  @ (match st.Settings.beat_bytes with Some b -> [ Printf.sprintf "beat=%d" b ] | None -> [])
  @ (match st.Settings.depth with Some d -> [ Printf.sprintf "depth=%d" d ] | None -> [])

let to_string (g : Serialized.t) =
  let buf = Buffer.create 2048 in
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  addf "cgsim-graph 1\n";
  addf "graph %s\n" g.gname;
  Array.iter
    (fun (ki : Serialized.kernel_inst) ->
      addf "kernel %s %s %s\n" ki.inst_name ki.kernel.Kernel.name
        (Kernel.realm_to_string ki.kernel.Kernel.realm);
      (match ki.src with
       | Some span -> addf "  src %s\n" (Srcspan.to_compact span)
       | None -> ());
      Array.iter
        (fun (spec : Kernel.port_spec) ->
          let dir = match spec.Kernel.dir with Kernel.In -> "in" | Kernel.Out -> "out" in
          let settings = settings_tokens spec.Kernel.settings in
          addf "  port %s %s %s%s\n" spec.Kernel.pname dir
            (dtype_to_string spec.Kernel.dtype)
            (if settings = [] then "" else " " ^ String.concat " " settings))
        ki.kernel.Kernel.ports;
      addf "  nets %s\n"
        (String.concat " " (Array.to_list (Array.map string_of_int ki.port_nets))))
    g.kernels;
  Array.iter
    (fun (n : Serialized.net) ->
      let settings = settings_tokens n.settings in
      addf "net %d %s%s\n" n.net_id (dtype_to_string n.dtype)
        (if settings = [] then "" else " " ^ String.concat " " settings);
      (match n.src with
       | Some span -> addf "  src %s\n" (Srcspan.to_compact span)
       | None -> ());
      List.iter (fun (ep : Serialized.endpoint) -> addf "  writer %d.%d\n" ep.kernel_idx ep.port_idx) n.writers;
      List.iter (fun (ep : Serialized.endpoint) -> addf "  reader %d.%d\n" ep.kernel_idx ep.port_idx) n.readers;
      (match n.global_input with Some name -> addf "  input %s\n" name | None -> ());
      (match n.global_output with Some name -> addf "  output %s\n" name | None -> ());
      List.iter
        (fun (a : Attr.t) ->
          match a.Attr.value with
          | Attr.S v -> addf "  attr %s str %s\n" a.Attr.key v
          | Attr.I v -> addf "  attr %s int %d\n" a.Attr.key v)
        n.attrs)
    g.nets;
  addf "inputs%s\n"
    (String.concat "" (Array.to_list (Array.map (Printf.sprintf " %d") g.input_order)));
  addf "outputs%s\n"
    (String.concat "" (Array.to_list (Array.map (Printf.sprintf " %d") g.output_order)));
  Buffer.contents buf
