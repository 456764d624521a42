let realm_color = function
  | Cgsim.Kernel.Aie -> "lightblue"
  | Cgsim.Kernel.Noextract -> "lightgrey"
  | Cgsim.Kernel.Pl -> "lightgoldenrod"

let transport_label (n : Cgsim.Serialized.net) =
  match Cgsim.Settings.resolved_transport n.settings with
  | Cgsim.Settings.Stream -> "stream"
  | Cgsim.Settings.Window w -> Printf.sprintf "window<%d>" w
  | Cgsim.Settings.Rtp -> "rtp"
  | Cgsim.Settings.Gmio -> "gmio"

(* Worst lint severity naming each net, for edge coloring. *)
let net_severities lint nets =
  let worst = Array.make nets None in
  List.iter
    (fun (d : Cgsim.Diagnostic.t) ->
      List.iter
        (fun id ->
          if id >= 0 && id < nets then
            worst.(id) <-
              (match worst.(id) with
               | None -> Some d.Cgsim.Diagnostic.severity
               | Some s ->
                 if Cgsim.Diagnostic.compare_severity d.Cgsim.Diagnostic.severity s > 0 then
                   Some d.Cgsim.Diagnostic.severity
                 else Some s))
        d.Cgsim.Diagnostic.net_ids)
    lint;
  worst

let severity_style = function
  | Some Cgsim.Diagnostic.Error -> " color=red penwidth=2.0"
  | Some Cgsim.Diagnostic.Warning -> " color=orange penwidth=1.5"
  | Some Cgsim.Diagnostic.Info | None -> ""

let of_graph ?(lint = []) (g : Cgsim.Serialized.t) =
  let buf = Buffer.create 1024 in
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  addf "digraph \"%s\" {\n  rankdir=LR;\n  node [fontname=\"sans-serif\"];\n" g.gname;
  Array.iteri
    (fun i (ki : Cgsim.Serialized.kernel_inst) ->
      addf "  k%d [shape=box, style=filled, fillcolor=%s, label=\"%s\\n[%s]\"];\n" i
        (realm_color ki.kernel.Cgsim.Kernel.realm) ki.inst_name
        (Cgsim.Kernel.realm_to_string ki.kernel.Cgsim.Kernel.realm))
    g.kernels;
  Array.iter
    (fun (n : Cgsim.Serialized.net) ->
      (match n.global_input with
       | Some name -> addf "  in%d [shape=ellipse, label=\"%s\"];\n" n.net_id name
       | None -> ());
      match n.global_output with
      | Some name -> addf "  out%d [shape=ellipse, label=\"%s\"];\n" n.net_id name
      | None -> ())
    g.nets;
  let severities = net_severities lint (Array.length g.nets) in
  Array.iter
    (fun (n : Cgsim.Serialized.net) ->
      let label =
        Printf.sprintf "%s %s" (Cgsim.Dtype.to_string n.dtype) (transport_label n)
      in
      let style = severity_style severities.(n.net_id) in
      let srcs =
        (match n.global_input with Some _ -> [ Printf.sprintf "in%d" n.net_id ] | None -> [])
        @ List.map (fun (ep : Cgsim.Serialized.endpoint) -> Printf.sprintf "k%d" ep.kernel_idx)
            n.writers
      in
      let dsts =
        (match n.global_output with Some _ -> [ Printf.sprintf "out%d" n.net_id ] | None -> [])
        @ List.map (fun (ep : Cgsim.Serialized.endpoint) -> Printf.sprintf "k%d" ep.kernel_idx)
            n.readers
      in
      List.iter
        (fun src ->
          List.iter (fun dst -> addf "  %s -> %s [label=\"%s\"%s];\n" src dst label style) dsts)
        srcs)
    g.nets;
  addf "}\n";
  Buffer.contents buf
