module S = Serialized
module D = Diagnostic

let fanout_threshold = 4

let analyze (g : S.t) =
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  Array.iter
    (fun (n : S.net) ->
      let id = n.S.net_id in
      let display = S.net_display g id in
      let loc = S.net_src g id in
      let kernel_names eps =
        List.map (fun (ep : S.endpoint) -> g.S.kernels.(ep.S.kernel_idx).S.inst_name) eps
      in
      (* Consumers as the runtime counts them: kernel readers plus the
         implicit sink fiber on a global output. *)
      let consumers = List.length n.S.readers + if n.S.global_output <> None then 1 else 0 in
      if consumers > fanout_threshold then
        emit
          (D.make ~severity:D.Warning ~code:"CG-W301" ~graph:g.S.gname
             ~kernels:(kernel_names n.S.readers)
             ~nets:[ display ] ~net_ids:[ id ] ?loc
             (Printf.sprintf
                "%s broadcasts to %d consumers; retirement advances at the slowest one, so \
                 every producer waits for it"
                display consumers));
      (match n.S.settings.Settings.beat_bytes with
       | Some beat ->
         let elem = Dtype.size_bytes n.S.dtype in
         if beat > 0 && elem > 0 && beat mod elem <> 0 && elem mod beat <> 0 then
           emit
             (D.make ~severity:D.Warning ~code:"CG-W303" ~graph:g.S.gname
                ~nets:[ display ] ~net_ids:[ id ] ?loc
                (Printf.sprintf
                   "%s packs %d-byte elements into %d-byte beats; neither divides the other, so \
                    every beat straddles an element boundary"
                   display elem beat))
       | None -> ()))
    g.S.nets;
  List.rev !diags
