module S = Serialized
module D = Diagnostic

(* Minimum beats the net must buffer for the cycle to progress: the
   larger of what one writer firing deposits and what one reader firing
   demands, over the endpoints that lie inside the component.  [None]
   when any of those endpoints has no known rate. *)
let required_capacity (g : S.t) inside (n : S.net) =
  let rates =
    List.filter_map
      (fun (ep : S.endpoint) ->
        if Hashtbl.mem inside ep.S.kernel_idx then
          Some (Rates.port_rate g ep.S.kernel_idx ep.S.port_idx)
        else None)
      (n.S.writers @ n.S.readers)
  in
  if List.exists Option.is_none rates then None
  else
    Some (List.fold_left (fun acc r -> max acc (Option.get r)) 0 rates)

let cycle_name (g : S.t) kernels =
  let names = List.map (fun k -> g.S.kernels.(k).S.inst_name) kernels in
  String.concat " -> " (names @ [ List.hd names ])

let analyze (g : S.t) =
  let ng = Netgraph.make g in
  let diags = ref [] in
  List.iter
    (fun kernels ->
      let inside = Hashtbl.create 8 in
      List.iter (fun k -> Hashtbl.add inside k ()) kernels;
      let names = List.map (fun k -> g.S.kernels.(k).S.inst_name) kernels in
      let nets = Netgraph.internal_nets ng kernels in
      let under = ref [] in
      let unknown = ref [] in
      List.iter
        (fun id ->
          let n = g.S.nets.(id) in
          let elem_bytes = Dtype.size_bytes n.S.dtype in
          let capacity = Settings.resolved_depth ~elem_bytes n.S.settings in
          match required_capacity g inside n with
          | Some need when capacity < need -> under := (id, capacity, need) :: !under
          | Some _ -> ()
          | None -> unknown := (id, capacity) :: !unknown)
        nets;
      let cyc = cycle_name g kernels in
      (match List.rev !under with
       | (id, capacity, need) :: _ as all ->
         let ids = List.map (fun (id, _, _) -> id) all in
         diags :=
           D.make ~severity:D.Error ~code:"CG-E201" ~graph:g.S.gname ~kernels:names
             ~nets:(List.map (S.net_display g) ids)
             ~net_ids:ids ?loc:(S.net_src g id)
             (Printf.sprintf
                "cycle %s can deadlock: %s buffers %d element%s but the cycle needs at least %d \
                 per firing"
                cyc (S.net_display g id) capacity
                (if capacity = 1 then "" else "s")
                need)
           :: !diags
       | [] -> ());
      (match List.rev !unknown with
       | (id, capacity) :: _ as all when !under = [] ->
         let ids = List.map fst all in
         diags :=
           D.make ~severity:D.Warning ~code:"CG-W202" ~graph:g.S.gname ~kernels:names
             ~nets:(List.map (S.net_display g) ids)
             ~net_ids:ids ?loc:(S.net_src g id)
             (Printf.sprintf
                "cycle %s has nets with unknown rates (%s buffers %d elements); its buffering \
                 cannot be verified — declare kernel rates to check it"
                cyc (S.net_display g id) capacity)
           :: !diags
       | _ -> ());
      if !under = [] && !unknown = [] then
        diags :=
          D.make ~severity:D.Info ~code:"CG-I203" ~graph:g.S.gname ~kernels:names
            ~nets:(List.map (S.net_display g) nets)
            ~net_ids:nets
            (Printf.sprintf "cycle %s is sufficiently buffered for its declared rates" cyc)
          :: !diags)
    (Netgraph.cyclic_sccs ng);
  List.rev !diags
