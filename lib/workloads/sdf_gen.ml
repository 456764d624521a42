module K = Cgsim.Kernel
module S = Cgsim.Serialized

(* Seeded random SDF graph generator + differential oracle.

   Graphs are balanced by construction: every kernel gets a repetition
   count first, and every net's traffic is a common multiple of its two
   endpoints' repetitions, so per-port rates are exact integers and the
   balance equations solve.  Defects are then injected deliberately and
   labelled, which gives the oracle ground truth to hold the static
   analyzer against the runtime:

   - a clean graph must lint clean (no errors or warnings), complete on
     both cgsim and x86sim, and produce identical outputs of the
     statically known length;
   - an injected imbalance must trip CG-E101;
   - an under-buffered feedback cycle must trip CG-E201, genuinely
     deadlock with lint off, and complete once the capacity
     synthesizer's suggested depths are applied — while one element less
     than the suggestion deadlocks again (minimality);
   - a rate-undeclared, token-starved cycle must trip CG-W202 and
     genuinely deadlock.

   Every choice derives from the seed through {!Prng}, so a case
   reproduces exactly from (seed, defect). *)

type defect =
  | Imbalance
  | Under_capacity
  | Starved_cycle

let defect_to_string = function
  | Imbalance -> "imbalance"
  | Under_capacity -> "under-capacity"
  | Starved_cycle -> "starved-cycle"

type case = {
  c_name : string;
  c_seed : int;
  c_defect : defect option;
  c_graph : S.t;
  c_input : float array;
  c_expected_out : int;  (** Output elements a correct complete run yields. *)
  c_fb_net : int option;  (** Feedback net id, when the case has a cycle. *)
  c_fb_need : int;  (** Its minimal deadlock-free depth (0 without cycle). *)
}

(* ------------------------------------------------------------------ *)
(* Kernel factory.                                                     *)
(*                                                                     *)
(* A graph may hold one definition per kernel name (CG-E007), so       *)
(* kernels are memoized by a name that encodes their entire behavior   *)
(* (rates, declaredness, prologue, scale): the same name always maps   *)
(* to the same definition, across cases and seeds.                     *)
(* ------------------------------------------------------------------ *)

let kernel_cache : (string, K.t) Hashtbl.t = Hashtbl.create 64

(* A generated kernel fires forever: read one declared window from each
   input in port order, fold the elements, write one declared window to
   each output.  Termination is the normal end-of-stream protocol when
   the inputs drain.  [prologue] kernels first emit one window of zeros
   on out0 — the initial tokens that let a feedback cycle start. *)
let mk_kernel ~declare ~prologue ~scale_tenths ~in_rates ~out_rates =
  let show rs = String.concat "x" (List.map string_of_int rs) in
  let name =
    Printf.sprintf "sdfgen_%s%s_s%d_i%s_o%s"
      (if declare then "d" else "u")
      (if prologue then "p" else "")
      scale_tenths (show in_rates) (show out_rates)
  in
  match Hashtbl.find_opt kernel_cache name with
  | Some k -> k
  | None ->
    let ports =
      List.mapi (fun i _ -> K.in_port (Printf.sprintf "in%d" i) Cgsim.Dtype.F32) in_rates
      @ List.mapi (fun i _ -> K.out_port (Printf.sprintf "out%d" i) Cgsim.Dtype.F32) out_rates
    in
    let rates =
      if declare then
        Some
          (List.mapi (fun i r -> Printf.sprintf "in%d" i, r) in_rates
          @ List.mapi (fun i r -> Printf.sprintf "out%d" i, r) out_rates)
      else None
    in
    let ia = Array.of_list in_rates in
    let oa = Array.of_list out_rates in
    let scale = float_of_int scale_tenths /. 10.0 in
    let body b =
      if prologue then Cgsim.Port.put_window_f32 (K.wr b 0) (Array.make oa.(0) 0.0);
      let windows = Array.map (fun r -> Array.make r 0.0) ia in
      while true do
        let acc = ref 0.0 in
        Array.iteri
          (fun i xs ->
            Cgsim.Port.get_window_f32 (K.rd b i) xs;
            Array.iter (fun v -> acc := !acc +. v) xs)
          windows;
        let s = !acc *. scale in
        Array.iteri
          (fun o r ->
            Cgsim.Port.put_window_f32 (K.wr b o)
              (Array.init r (fun j -> s +. float_of_int (j + o))))
          oa
      done
    in
    let k = K.define ?rates ~pure:true ~realm:K.Aie ~name ports body in
    Hashtbl.add kernel_cache name k;
    k

(* ------------------------------------------------------------------ *)
(* Abstract topology, materialized through the builder.                *)
(* ------------------------------------------------------------------ *)

type ak = {
  ak_rep : int;
  ak_declare : bool;
  ak_prologue : bool;
  ak_scale : int;  (* tenths *)
}

type ae = {
  e_src : int;  (* kernel id; -1 = graph input *)
  e_dst : int;  (* kernel id; -2 = graph output *)
  e_tokens : int;  (* elements per steady-state iteration *)
  e_depth : int option;  (* explicit queue depth to apply post-freeze *)
  e_perturb : int;  (* added to the reader's declared rate (imbalance) *)
}

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let lcm a b = a / gcd a b * b

(* Deep enough that DAG scheduling order can never fake a deadlock: the
   largest per-firing window is bounded well under this. *)
let dag_depth = 256

let generate ?defect ~seed () =
  let tag =
    match defect with
    | None -> 0
    | Some Imbalance -> 1
    | Some Under_capacity -> 2
    | Some Starved_cycle -> 3
  in
  let rng = Prng.create ~seed:(1 + (seed * 4) + tag) in
  let kernels = ref [] in
  let nk = ref 0 in
  let edges = ref [] in
  let ne = ref 0 in
  let new_kernel ?(declare = true) ?(prologue = false) rep =
    let id = !nk in
    incr nk;
    kernels :=
      { ak_rep = rep; ak_declare = declare; ak_prologue = prologue;
        ak_scale = Prng.int_range rng ~lo:5 ~hi:20 }
      :: !kernels;
    id
  in
  let connect ?depth ?(perturb = 0) ~tokens src dst =
    let id = !ne in
    incr ne;
    edges :=
      { e_src = src; e_dst = dst; e_tokens = tokens; e_depth = depth; e_perturb = perturb }
      :: !edges;
    id
  in
  let rep () = Prng.int_range rng ~lo:1 ~hi:4 in
  let tok ra rb = lcm ra rb * Prng.int_range rng ~lo:1 ~hi:2 in
  (* Entrance reads the graph input. *)
  let re = rep () in
  let entr = new_kernel re in
  let rin = Prng.int_range rng ~lo:1 ~hi:3 in
  let input_edge = connect ~tokens:(rin * re) (-1) entr in
  let cur = ref entr in
  let cur_rep = ref re in
  let line () =
    let r = rep () in
    let k = new_kernel r in
    ignore (connect ~depth:dag_depth ~tokens:(tok !cur_rep r) !cur k);
    cur := k;
    cur_rep := r
  in
  for _ = 1 to Prng.int_range rng ~lo:0 ~hi:2 do
    line ()
  done;
  (* One diamond always: the undirected cycle it closes is what makes an
     injected imbalance statically detectable at all. *)
  let rsp = rep () in
  let sp = new_kernel rsp in
  ignore (connect ~depth:dag_depth ~tokens:(tok !cur_rep rsp) !cur sp);
  let ra = rep () in
  let ka = new_kernel ra in
  ignore (connect ~depth:dag_depth ~tokens:(tok rsp ra) sp ka);
  let rb = rep () in
  let kb = new_kernel rb in
  ignore (connect ~depth:dag_depth ~tokens:(tok rsp rb) sp kb);
  let rj = rep () in
  let kj = new_kernel rj in
  ignore (connect ~depth:dag_depth ~tokens:(tok ra rj) ka kj);
  let perturb = if defect = Some Imbalance then 1 else 0 in
  ignore (connect ~depth:dag_depth ~perturb ~tokens:(tok rb rj) kb kj);
  cur := kj;
  cur_rep := rj;
  (* Feedback cycle: fwd -> back -> fwd, seeded by the back kernel's
     one-window prologue.  Both cycle nets need exactly [rc] elements of
     depth — the minimal deadlock-free capacity. *)
  let want_cycle =
    match defect with
    | Some Under_capacity | Some Starved_cycle -> true
    | Some Imbalance -> false
    | None -> Prng.int_range rng ~lo:0 ~hi:1 = 1
  in
  let fb_edge, fb_need =
    if not want_cycle then None, 0
    else begin
      let starved = defect = Some Starved_cycle in
      let declare = not starved in
      let rc_rep = rep () in
      let rc = Prng.int_range rng ~lo:3 ~hi:8 in
      let fwd = new_kernel ~declare rc_rep in
      let back = new_kernel ~declare ~prologue:(not starved) rc_rep in
      ignore (connect ~depth:dag_depth ~tokens:(tok !cur_rep rc_rep) !cur fwd);
      ignore (connect ~depth:rc ~tokens:(rc * rc_rep) fwd back);
      let fb_depth =
        match defect with
        | Some Under_capacity -> Prng.int_range rng ~lo:1 ~hi:(rc - 1)
        | _ -> rc
      in
      let fb = connect ~depth:fb_depth ~tokens:(rc * rc_rep) back fwd in
      cur := fwd;
      cur_rep := rc_rep;
      Some fb, rc
    end
  in
  for _ = 1 to Prng.int_range rng ~lo:0 ~hi:1 do
    line ()
  done;
  let rout = Prng.int_range rng ~lo:1 ~hi:3 in
  let output_edge = connect ~tokens:(rout * !cur_rep) !cur (-2) in
  (* Materialize. *)
  let ks = Array.of_list (List.rev !kernels) in
  let es = Array.of_list (List.rev !edges) in
  let n_edges = Array.length es in
  let ins_of ki =
    List.filter (fun ei -> es.(ei).e_dst = ki) (List.init n_edges Fun.id)
  in
  let outs_of ki =
    List.filter (fun ei -> es.(ei).e_src = ki) (List.init n_edges Fun.id)
  in
  let name =
    Printf.sprintf "sdf_%s_%d"
      (match defect with None -> "clean" | Some d -> defect_to_string d)
      seed
  in
  let inst = Array.make (Array.length ks) (-1) in
  let graph =
    Cgsim.Builder.make ~name ~inputs:[ "in", Cgsim.Dtype.F32 ] (fun b conns ->
        let in_conn = List.hd conns in
        let out_conn = ref None in
        let econn =
          Array.map
            (fun e ->
              if e.e_src = -1 then in_conn
              else begin
                let c = Cgsim.Builder.net b Cgsim.Dtype.F32 in
                if e.e_dst = -2 then out_conn := Some c;
                c
              end)
            es
        in
        Array.iteri
          (fun ki k ->
            let ins = ins_of ki in
            let outs = outs_of ki in
            let in_rates =
              List.map (fun ei -> (es.(ei).e_tokens / k.ak_rep) + es.(ei).e_perturb) ins
            in
            let out_rates = List.map (fun ei -> es.(ei).e_tokens / k.ak_rep) outs in
            let kd =
              mk_kernel ~declare:k.ak_declare ~prologue:k.ak_prologue
                ~scale_tenths:k.ak_scale ~in_rates ~out_rates
            in
            inst.(ki) <-
              Cgsim.Builder.add_kernel b kd (List.map (fun ei -> econn.(ei)) (ins @ outs)))
          ks;
        [ Option.get !out_conn ])
  in
  (* Recover each edge's net id through its reader's port binding, then
     apply the explicit depths in one shot. *)
  let net_of_edge ei =
    let e = es.(ei) in
    if e.e_dst >= 0 then begin
      let pos = ref 0 in
      List.iteri (fun i ej -> if ej = ei then pos := i) (ins_of e.e_dst);
      graph.S.kernels.(inst.(e.e_dst)).S.port_nets.(!pos)
    end
    else begin
      (* Output edge: index from the writer side, after its inputs. *)
      let n_in = List.length (ins_of e.e_src) in
      let pos = ref 0 in
      List.iteri (fun i ej -> if ej = ei then pos := i) (outs_of e.e_src);
      graph.S.kernels.(inst.(e.e_src)).S.port_nets.(n_in + !pos)
    end
  in
  let depths =
    List.filter_map
      (fun ei ->
        match es.(ei).e_depth with Some d -> Some (net_of_edge ei, d) | None -> None)
      (List.init n_edges Fun.id)
  in
  let graph = S.with_net_depths graph depths in
  let iterations = Prng.int_range rng ~lo:2 ~hi:5 in
  let input =
    Array.init
      (es.(input_edge).e_tokens * iterations)
      (fun _ -> Prng.float_range rng ~lo:(-1.0) ~hi:1.0)
  in
  {
    c_name = name;
    c_seed = seed;
    c_defect = defect;
    c_graph = graph;
    c_input = input;
    c_expected_out = es.(output_edge).e_tokens * iterations;
    c_fb_net = Option.map net_of_edge fb_edge;
    c_fb_need = fb_need;
  }

(* Round-robin over the defect mix: one clean case for every defect
   case, all four labels exercised. *)
let nth_case i =
  let seed = 1000 + i in
  match i mod 6 with
  | 0 | 1 | 2 -> generate ~seed ()
  | 3 -> generate ~defect:Imbalance ~seed ()
  | 4 -> generate ~defect:Under_capacity ~seed ()
  | _ -> generate ~defect:Starved_cycle ~seed ()
