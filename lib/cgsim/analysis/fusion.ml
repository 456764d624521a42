module S = Serialized
module D = Diagnostic

(* Operator-fusion discovery.

   A chain is a maximal run of kernels a -> b -> ... -> z in which every
   interior hop is an exclusive point-to-point net (one writer, one
   reader, not a global input/output, not an RTP side channel) that is
   the writer's only output and the reader's only input.  That is
   exactly the shape {!Runtime}'s pump protocol can collapse into
   one fiber: heads keep their (possibly many) real inputs, tails their
   real outputs, and each interior queue becomes a direct hand-off edge.

   Fusion is proposed only for lint-clean graphs: structural validation
   plus the SDF balance solve ({!Rates}) and the deadlock pass must
   produce no error — an unbalanced or deadlocking graph keeps its
   per-kernel fibers so the existing diagnostics describe what the user
   actually ran.  The balance solve also carries the rate-matched
   guarantee: where rates are declared (or implied by window
   transports), a clean solve means producer and consumer agree per
   steady-state firing, so the hand-off edge stays bounded by the
   window sizes in play. *)

let clean (g : S.t) =
  S.validate_diags g = []
  && D.max_severity (Rates.analyze g) <> Some D.Error
  && D.max_severity (Deadlock.analyze g) <> Some D.Error

(* Net ids bound to ports of the given direction on kernel [k]. *)
let dir_nets (g : S.t) dir k =
  let inst = g.S.kernels.(k) in
  let acc = ref [] in
  Array.iteri
    (fun pi (spec : Kernel.port_spec) ->
      if spec.Kernel.dir = dir then acc := inst.S.port_nets.(pi) :: !acc)
    inst.S.ports;
  !acc

type chain = {
  members : int array;
  interior : int array;
}

let chains (g : S.t) =
  if not (clean g) then []
  else begin
    let nk = Array.length g.S.kernels in
    let succ = Array.make nk (-1) in
    let pred = Array.make nk (-1) in
    let link = Array.make nk (-1) in  (* net id from k to succ.(k) *)
    Array.iteri
      (fun id (n : S.net) ->
        let fusible_transport =
          match Settings.resolved_transport n.S.settings with
          | Settings.Rtp -> false
          | Settings.Stream | Settings.Window _ | Settings.Gmio -> true
        in
        if n.S.global_input = None && n.S.global_output = None && fusible_transport then
          match n.S.writers, n.S.readers with
          | [ w ], [ r ] ->
            let a = w.S.kernel_idx and b = r.S.kernel_idx in
            if a <> b
               && dir_nets g Kernel.Out a = [ id ]
               && dir_nets g Kernel.In b = [ id ]
            then begin
              succ.(a) <- b;
              pred.(b) <- a;
              link.(a) <- id
            end
          | _ -> ())
      g.S.nets;
    (* Walk maximal runs from heads (link out, no link in).  Pure cycles
       have no head and are left unfused — a fused cycle would pull its
       own pump. *)
    let result = ref [] in
    for k = 0 to nk - 1 do
      if succ.(k) >= 0 && pred.(k) < 0 then begin
        let members = ref [ k ] and interior = ref [] in
        let cur = ref k in
        while succ.(!cur) >= 0 do
          interior := link.(!cur) :: !interior;
          cur := succ.(!cur);
          members := !cur :: !members
        done;
        result :=
          { members = Array.of_list (List.rev !members);
            interior = Array.of_list (List.rev !interior) }
          :: !result
      end
    done;
    List.rev !result
  end

let analyze (g : S.t) =
  List.map
    (fun { members; interior } ->
      let names = Array.to_list (Array.map (fun k -> g.S.kernels.(k).S.inst_name) members) in
      (* Carrying the interior hand-off nets lets [lint.suppress] on
         those nets mute the finding for chains the user deliberately
         keeps unfused. *)
      let interior = Array.to_list interior in
      let hops = List.length interior in
      D.make ~severity:D.Info ~code:"CG-I103" ~graph:g.S.gname ~kernels:names
        ~nets:(List.map (S.net_display g) interior)
        ~net_ids:interior
        (Printf.sprintf
           "fusible chain: %s — %d queue hop%s collapse into direct hand-off when \
            Run_config.fuse is on"
           (String.concat " -> " names)
           hops
           (if hops = 1 then "" else "s")))
    (chains g)
