module S = Serialized
module D = Diagnostic

(* Capacity synthesis.

   The deadlock pass ({!Deadlock}) proves the bound: a cycle makes
   progress iff every internal net buffers at least
   [max(writer beats/firing, reader beats/firing)] elements.  This pass
   turns the same bound into a constructive suggestion — for every
   under-buffered cycle net, the minimal depth that satisfies it.  The
   suggestion is minimal by construction: one element less and the
   deadlock pass's CG-E201 (and the runtime's actual deadlock)
   reappear. *)

(* (net_id, have, need) for every cycle-internal net whose resolved
   capacity is below its bound, grouped per cyclic SCC. *)
let under_per_cycle (g : S.t) =
  let ng = Netgraph.make g in
  List.filter_map
    (fun kernels ->
      let inside = Hashtbl.create 8 in
      List.iter (fun k -> Hashtbl.add inside k ()) kernels;
      let under =
        List.filter_map
          (fun id ->
            let n = g.S.nets.(id) in
            let elem_bytes = Dtype.size_bytes n.S.dtype in
            let have = Settings.resolved_depth ~elem_bytes n.S.settings in
            match Deadlock.required_capacity g inside n with
            | Some need when have < need -> Some (id, have, need)
            | _ -> None)
          (Netgraph.internal_nets ng kernels)
      in
      if under = [] then None else Some (kernels, under))
    (Netgraph.cyclic_sccs ng)

let suggest (g : S.t) =
  let best = Hashtbl.create 8 in
  List.iter
    (fun (_, under) ->
      List.iter
        (fun (id, _, need) ->
          match Hashtbl.find_opt best id with
          | Some prev when prev >= need -> ()
          | _ -> Hashtbl.replace best id need)
        under)
    (under_per_cycle g);
  Hashtbl.fold (fun id need acc -> (id, need) :: acc) best []
  |> List.sort compare

let analyze (g : S.t) =
  List.map
    (fun (kernels, under) ->
      let names = List.map (fun k -> g.S.kernels.(k).S.inst_name) kernels in
      let cyc = String.concat " -> " (names @ [ List.hd names ]) in
      let ids = List.map (fun (id, _, _) -> id) under in
      let show =
        String.concat ", "
          (List.map
             (fun (id, have, need) ->
               Printf.sprintf "%s %d -> %d" (S.net_display g id) have need)
             under)
      in
      D.make ~severity:D.Info ~code:"CG-I204" ~graph:g.S.gname ~kernels:names
        ~nets:(List.map (S.net_display g) ids)
        ~net_ids:ids
        ?loc:(S.net_src g (List.hd ids))
        (Printf.sprintf
           "minimal deadlock-free capacities for cycle %s: %s (apply via \
            Run_config.auto_capacity or take the depths from cgx lint --suggest-capacities)"
           cyc show))
    (under_per_cycle g)
