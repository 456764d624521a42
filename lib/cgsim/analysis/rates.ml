module S = Serialized
module D = Diagnostic

(* ------------------------------------------------------------------ *)
(* Exact rational arithmetic for the balance solve.  Graph rates are   *)
(* small integers; int rationals reduced at every step are plenty.     *)
(* ------------------------------------------------------------------ *)

type ratio = {
  num : int;
  den : int;  (* > 0 *)
}

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let ratio num den =
  if den = 0 then invalid_arg "analysis: zero-denominator ratio";
  let s = if den < 0 then -1 else 1 in
  let g = max 1 (abs (gcd num den)) in
  { num = s * num / g; den = s * den / g }

let ratio_equal a b = a.num = b.num && a.den = b.den

let ratio_mul a b = ratio (a.num * b.num) (a.den * b.den)

let ratio_to_string r = if r.den = 1 then string_of_int r.num else Printf.sprintf "%d/%d" r.num r.den

(* ------------------------------------------------------------------ *)
(* Rate resolution                                                     *)
(* ------------------------------------------------------------------ *)

let port_rate (g : S.t) kernel_idx port_idx =
  let inst = g.S.kernels.(kernel_idx) in
  match Kernel.rate inst.S.kernel port_idx with
  | Some _ as r -> r
  | None ->
    let net = g.S.nets.(inst.S.port_nets.(port_idx)) in
    let elem_bytes = Dtype.size_bytes net.S.dtype in
    (match Settings.resolved_transport net.S.settings with
     | Settings.Window bytes when elem_bytes > 0 && bytes mod elem_bytes = 0 ->
       Some (bytes / elem_bytes)
     | Settings.Rtp -> Some 0
     | _ -> None)

(* ------------------------------------------------------------------ *)
(* Balance equations                                                   *)
(* ------------------------------------------------------------------ *)

type constraint_edge = {
  c_net : int;
  c_writer : S.endpoint;
  c_reader : S.endpoint;
  c_wrate : int;  (* > 0 *)
  c_rrate : int;  (* > 0 *)
}

let ep_port_name (g : S.t) (ep : S.endpoint) =
  let ki = g.S.kernels.(ep.S.kernel_idx) in
  ki.S.kernel.Kernel.ports.(ep.S.port_idx).Kernel.pname

(* Shared propagation core: collects the balance constraints, solves by
   propagation per connected component, and returns the raw solution —
   per-kernel rational repetitions, component ids, and the CG-E101
   findings discovered on the way.  [analyze] renders findings from it;
   [solve] reduces it to minimal integer repetition vectors. *)
type raw = {
  raw_diags : D.t list;  (* emission order *)
  raw_rep : ratio option array;  (* per kernel idx *)
  raw_comp : int array;  (* per kernel idx, -1 = unconstrained *)
  raw_comp_count : int;
}

let propagate (g : S.t) =
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  let constraints = ref [] in
  Array.iter
    (fun (n : S.net) ->
      match Settings.resolved_transport n.S.settings with
      | Settings.Rtp -> ()
      | _ ->
        (match n.S.writers with
         | [ w ] ->
           let wrate = port_rate g w.S.kernel_idx w.S.port_idx in
           List.iter
             (fun (r : S.endpoint) ->
               match wrate, port_rate g r.S.kernel_idx r.S.port_idx with
               | Some wr, Some rr when wr > 0 && rr > 0 ->
                 constraints :=
                   { c_net = n.S.net_id; c_writer = w; c_reader = r; c_wrate = wr; c_rrate = rr }
                   :: !constraints
               | Some wr, Some rr when wr <> rr ->
                 (* Exactly one side is zero: declared one-shot against a
                    per-firing stream — traffic either accumulates without
                    bound or the reader starves. *)
                 let wk = g.S.kernels.(w.S.kernel_idx).S.inst_name in
                 let rk = g.S.kernels.(r.S.kernel_idx).S.inst_name in
                 emit
                   (D.make ~severity:D.Error ~code:"CG-E101" ~graph:g.S.gname
                      ~kernels:[ wk; rk ]
                      ~nets:[ S.net_display g n.S.net_id ]
                      ~net_ids:[ n.S.net_id ] ?loc:(S.net_src g n.S.net_id)
                      (Printf.sprintf
                         "unbalanced net: %s.%s produces %d beats per firing but %s.%s consumes \
                          %d"
                         wk (ep_port_name g w) wr rk (ep_port_name g r) rr))
               | _ -> ())
             n.S.readers
         | _ -> ())
        (* Merge nets (several writers) have no per-writer balance
           constraint; the fan-out/fan-in hazards pass covers them. *))
    g.S.nets;
  let constraints = List.rev !constraints in
  (* Solve by propagation: pick an unvisited kernel, give it repetition
     1, and push rep(r) = rep(w) * wrate / rrate across every constraint
     touching the component.  A revisited kernel whose propagated value
     disagrees with its assigned one sits on an unbalanced net. *)
  let nk = Array.length g.S.kernels in
  let rep = Array.make nk None in
  let comp = Array.make nk (-1) in
  let adj = Array.make nk [] in
  List.iter
    (fun c ->
      let w = c.c_writer.S.kernel_idx and r = c.c_reader.S.kernel_idx in
      adj.(w) <- (c, true) :: adj.(w);
      adj.(r) <- (c, false) :: adj.(r))
    constraints;
  let comp_count = ref 0 in
  for seed = 0 to nk - 1 do
    if rep.(seed) = None && adj.(seed) <> [] then begin
      let id = !comp_count in
      incr comp_count;
      rep.(seed) <- Some (ratio 1 1);
      comp.(seed) <- id;
      let queue = Queue.create () in
      Queue.add seed queue;
      while not (Queue.is_empty queue) do
        let k = Queue.pop queue in
        let k_rep = Option.get rep.(k) in
        List.iter
          (fun (c, k_is_writer) ->
            let other, expected =
              if k_is_writer then
                c.c_reader.S.kernel_idx, ratio_mul k_rep (ratio c.c_wrate c.c_rrate)
              else c.c_writer.S.kernel_idx, ratio_mul k_rep (ratio c.c_rrate c.c_wrate)
            in
            match rep.(other) with
            | None ->
              rep.(other) <- Some expected;
              comp.(other) <- id;
              Queue.add other queue
            | Some have ->
              if not (ratio_equal have expected) then begin
                let w = c.c_writer and r = c.c_reader in
                let wk = g.S.kernels.(w.S.kernel_idx).S.inst_name in
                let rk = g.S.kernels.(r.S.kernel_idx).S.inst_name in
                let bad = g.S.kernels.(other).S.inst_name in
                emit
                  (D.make ~severity:D.Error ~code:"CG-E101" ~graph:g.S.gname
                     ~kernels:[ wk; rk ]
                     ~nets:[ S.net_display g c.c_net ]
                     ~net_ids:[ c.c_net ] ?loc:(S.net_src g c.c_net)
                     (Printf.sprintf
                        "unbalanced net: %s.%s produces %d beats per firing against %s.%s \
                         consuming %d — the balance equations give %s repetition %s here but \
                         %s elsewhere"
                        wk (ep_port_name g w) c.c_wrate rk (ep_port_name g r) c.c_rrate bad
                        (ratio_to_string expected) (ratio_to_string have)))
              end)
          adj.(k)
      done
    end
  done;
  { raw_diags = List.rev !diags; raw_rep = rep; raw_comp = comp; raw_comp_count = !comp_count }

let analyze (g : S.t) =
  let raw = propagate g in
  let nk = Array.length g.S.kernels in
  let rep = raw.raw_rep in
  let comp = raw.raw_comp in
  (* Deduplicate CG-E101: propagation can visit a bad net from both
     ends.  One finding per net is what a human wants to read. *)
  let seen_bad = Hashtbl.create 4 in
  let diags =
    raw.raw_diags
    |> List.filter (fun (d : D.t) ->
           match d.D.net_ids with
           | [ id ] when d.D.code = "CG-E101" ->
             if Hashtbl.mem seen_bad id then false
             else begin
               Hashtbl.add seen_bad id ();
               true
             end
           | _ -> true)
  in
  (* Minimal integer repetition vector per consistently solved
     component: scale by the lcm of denominators, then divide by the
     gcd of the results. *)
  let bad_kernels = Hashtbl.create 4 in
  List.iter
    (fun (d : D.t) -> List.iter (fun k -> Hashtbl.replace bad_kernels k ()) d.D.kernels)
    diags;
  let infos = ref [] in
  for id = 0 to raw.raw_comp_count - 1 do
    let members =
      List.filter (fun k -> comp.(k) = id) (List.init nk Fun.id)
    in
    let clean =
      List.length members >= 2
      && List.for_all
           (fun k -> not (Hashtbl.mem bad_kernels g.S.kernels.(k).S.inst_name))
           members
    in
    if clean then begin
      let lcm a b = if a = 0 || b = 0 then 0 else abs (a * b) / abs (gcd a b) in
      let l = List.fold_left (fun acc k -> lcm acc (Option.get rep.(k)).den) 1 members in
      let scaled = List.map (fun k -> k, (Option.get rep.(k)).num * (l / (Option.get rep.(k)).den)) members in
      let g0 = List.fold_left (fun acc (_, v) -> abs (gcd acc v)) 0 scaled in
      let g0 = max 1 g0 in
      let names = List.map (fun (k, _) -> g.S.kernels.(k).S.inst_name) scaled in
      let show =
        String.concat ", "
          (List.map (fun (k, v) -> Printf.sprintf "%s×%d" g.S.kernels.(k).S.inst_name (v / g0)) scaled)
      in
      infos :=
        D.make ~severity:D.Info ~code:"CG-I102" ~graph:g.S.gname ~kernels:names
          (Printf.sprintf "steady-state repetition vector: %s" show)
        :: !infos
    end
  done;
  diags @ List.rev !infos

(* ------------------------------------------------------------------ *)
(* Programmatic solve — the entry the capacity and throughput passes   *)
(* (and the fuzzer oracle) build on.                                   *)
(* ------------------------------------------------------------------ *)

type solution = {
  balanced : bool;
  repetitions : (int * int) list;
}

let solve (g : S.t) =
  let raw = propagate g in
  let nk = Array.length g.S.kernels in
  let balanced =
    not (List.exists (fun (d : D.t) -> d.D.code = "CG-E101") raw.raw_diags)
  in
  let lcm a b = if a = 0 || b = 0 then 0 else abs (a * b) / abs (gcd a b) in
  let reps = ref [] in
  for id = raw.raw_comp_count - 1 downto 0 do
    let members = List.filter (fun k -> raw.raw_comp.(k) = id) (List.init nk Fun.id) in
    let l =
      List.fold_left (fun acc k -> lcm acc (Option.get raw.raw_rep.(k)).den) 1 members
    in
    let scaled =
      List.map
        (fun k ->
          let r = Option.get raw.raw_rep.(k) in
          k, r.num * (l / r.den))
        members
    in
    let g0 = max 1 (List.fold_left (fun acc (_, v) -> abs (gcd acc v)) 0 scaled) in
    List.iter (fun (k, v) -> reps := (k, v / g0) :: !reps) scaled
  done;
  { balanced; repetitions = List.sort compare !reps }
