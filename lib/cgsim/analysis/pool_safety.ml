module S = Serialized
module D = Diagnostic

let analyze (g : S.t) =
  let diags = ref [] in
  let unknown = ref [] in
  Array.iter
    (fun (inst : S.kernel_inst) ->
      let name = inst.S.kernel.Kernel.name in
      match inst.S.kernel.Kernel.purity with
      | Kernel.Stateful ->
        diags :=
          D.make ~severity:D.Warning ~code:"CG-W401" ~graph:g.S.gname
            ~kernels:[ inst.S.inst_name ] ?loc:inst.S.src
            (Printf.sprintf
               "kernel %s (%s) is declared stateful: concurrent pool serving of this graph \
                may observe cross-request interference"
               inst.S.inst_name name)
          :: !diags
      | Kernel.Pure -> ()
      | Kernel.Unknown -> if not (List.mem name !unknown) then unknown := name :: !unknown)
    g.S.kernels;
  let diags = List.rev !diags in
  match List.rev !unknown with
  | [] -> diags
  | keys ->
    diags
    @ [
        D.make ~severity:D.Info ~code:"CG-I402" ~graph:g.S.gname
          (Printf.sprintf
             "kernel definition%s %s declare%s no purity; annotate with ~pure to let the \
              pool-safety pass verify concurrent serving"
             (if List.length keys = 1 then "" else "s")
             (String.concat ", " keys)
             (if List.length keys = 1 then "s" else ""));
      ]
