module S = Serialized
module D = Diagnostic

(* The gate {!Pool} request batching relies on: every kernel
   instance resolves, is declared [Pure] AND [stateless].  Purity alone
   (no state shared between instances) is not enough — a filter with a
   local delay line is pure yet produces different output for
   concatenated streams, which is exactly what batching feeds it. *)
let batching_safe (g : S.t) =
  Array.for_all
    (fun (inst : S.kernel_inst) ->
      match Registry.find inst.S.key with
      | None -> false
      | Some k -> k.Kernel.purity = Kernel.Pure && k.Kernel.stateless)
    g.S.kernels

let analyze (g : S.t) =
  let diags = ref [] in
  let unknown = ref [] in
  Array.iter
    (fun (inst : S.kernel_inst) ->
      match Registry.find inst.S.key with
      | None -> ()  (* structural validation reports unregistered keys *)
      | Some k ->
        (match k.Kernel.purity with
         | Kernel.Stateful ->
           diags :=
             D.make ~severity:D.Warning ~code:"CG-W401" ~graph:g.S.gname
               ~kernels:[ inst.S.inst_name ] ?loc:inst.S.src
               (Printf.sprintf
                  "kernel %s (%s) is declared stateful: concurrent pool serving of this graph \
                   may observe cross-request interference"
                  inst.S.inst_name inst.S.key)
             :: !diags
         | Kernel.Pure -> ()
         | Kernel.Unknown ->
           if not (List.mem inst.S.key !unknown) then unknown := inst.S.key :: !unknown))
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
