module G = Sdf_gen
module S = Cgsim.Serialized
module D = Cgsim.Diagnostic

(* Differential oracle over {!Sdf_gen} cases: hold the static linter's
   verdict against what the runtime actually does. *)

(* Lint stays off for runtime probes: the oracle's whole point is to
   compare the linter's verdict against what the runtime actually does,
   so the runtime must not be protected by the verdict under test. *)
let base_config =
  Cgsim.Run_config.(default |> with_lint `Off |> with_max_steps 10_000_000)

(* [run] on [input] into one F32 buffer: its outcome and its output. *)
let collect run input =
  let sink, read = Cgsim.Io.f32_buffer () in
  let outcome = run ~sources:[ Cgsim.Io.of_f32_array input ] ~sinks:[ sink ] in
  outcome, read ()

let run_cgsim ?(config = base_config) graph input =
  collect (Cgsim.Runtime.execute ~config graph) input

(* The backends a clean case runs on, in order: cgsim cold, cgsim again
   on the same instance after [Runtime.reset], and x86sim. *)
let backends graph =
  let t = Cgsim.Runtime.instantiate ~config:base_config graph in
  let x_config = Cgsim.Run_config.(base_config |> with_deadline_ms 10_000.0) in
  [
    "cgsim", Cgsim.Runtime.run t;
    ( "cgsim after reset",
      fun ~sources ~sinks ->
        Cgsim.Runtime.reset t;
        Cgsim.Runtime.run t ~sources ~sinks );
    "x86sim", X86sim.Sim.run ~config:x_config graph;
  ]

(* A cgsim run "deadlocked" when the scheduler reached quiescence with
   fibers still parked on queue I/O (they are cancelled at stall time),
   or burned its whole step budget without finishing. *)
let deadlocked = function
  | Cgsim.Runtime.Completed stats -> stats.Cgsim.Sched.cancelled > 0
  | Cgsim.Runtime.Deadline_exceeded _ | Cgsim.Runtime.Cancelled -> true
  | Cgsim.Runtime.Kernel_failed _ -> false

let check (case : G.case) =
  let problems = ref [] in
  let fail fmt =
    Printf.ksprintf
      (fun s -> problems := Printf.sprintf "%s: %s" case.G.c_name s :: !problems)
      fmt
  in
  let diags = Cgsim.Lint.run case.G.c_graph in
  let has code = List.exists (fun (d : D.t) -> d.D.code = code) diags in
  let flagged =
    List.exists (fun (d : D.t) -> d.D.severity = D.Error || d.D.severity = D.Warning) diags
  in
  (match case.G.c_defect with
   | None ->
     if flagged then
       fail "linter flagged a clean graph: %s" (Cgsim.Report.summary diags);
     if Cgsim.Capacity.suggest case.G.c_graph <> [] then
       fail "capacity synthesizer suggested depths for a clean graph";
     (* Every output is held bit for bit against the cold cgsim run's. *)
     let cold = ref None in
     List.iter
       (fun (name, run) ->
         match collect run case.G.c_input with
         | Cgsim.Runtime.Completed stats, out when stats.Cgsim.Sched.cancelled = 0 ->
           if Array.length out <> case.G.c_expected_out then
             fail "%s produced %d elements, statically expected %d" name (Array.length out)
               case.G.c_expected_out
           else (
             match !cold with
             | None -> cold := Some out
             | Some ref_out ->
               Array.iteri
                 (fun i v ->
                   if not (Float.equal v ref_out.(i)) && !problems = [] then
                     fail "outputs diverge at element %d: %s %h, cgsim %h" i name v ref_out.(i))
                 out)
         | outcome, _ ->
           fail "%s did not complete a clean graph: %s" name
             (Cgsim.Runtime.outcome_label outcome))
       (backends case.G.c_graph)
   | Some G.Imbalance ->
     if not (has "CG-E101") then
       fail "injected imbalance missed (findings: %s)" (Cgsim.Report.summary diags)
   | Some G.Starved_cycle ->
     if not (has "CG-W202") then
       fail "unverifiable starved cycle missed (findings: %s)"
         (Cgsim.Report.summary diags);
     let outcome, _ = run_cgsim case.G.c_graph case.G.c_input in
     if not (deadlocked outcome) then
       fail "starved cycle did not deadlock at runtime (%s)"
         (Cgsim.Runtime.outcome_label outcome)
   | Some G.Under_capacity ->
     let fb = Option.get case.G.c_fb_net in
     if not (has "CG-E201") then
       fail "under-buffered cycle missed (findings: %s)" (Cgsim.Report.summary diags);
     (match List.assoc_opt fb (Cgsim.Capacity.suggest case.G.c_graph) with
      | Some d when d = case.G.c_fb_need -> ()
      | Some d -> fail "suggested depth %d for the feedback net, need %d" d case.G.c_fb_need
      | None -> fail "no capacity suggestion for the under-buffered feedback net");
     let outcome, _ = run_cgsim case.G.c_graph case.G.c_input in
     if not (deadlocked outcome) then
       fail "under-buffered cycle did not deadlock with lint off (%s)"
         (Cgsim.Runtime.outcome_label outcome);
     (* auto_capacity turns the same graph into a completing one... *)
     let auto_config = Cgsim.Run_config.(base_config |> with_auto_capacity true) in
     (match run_cgsim ~config:auto_config case.G.c_graph case.G.c_input with
      | Cgsim.Runtime.Completed stats, out when stats.Cgsim.Sched.cancelled = 0 ->
        if Array.length out <> case.G.c_expected_out then
          fail "auto_capacity run produced %d elements, expected %d" (Array.length out)
            case.G.c_expected_out
      | outcome, _ ->
        fail "auto_capacity did not rescue the run: %s"
          (Cgsim.Runtime.outcome_label outcome));
     (* ...and the suggestion is minimal: one element less deadlocks. *)
     let starved_again =
       S.with_net_depths case.G.c_graph [ fb, case.G.c_fb_need - 1 ]
     in
     let outcome, _ = run_cgsim starved_again case.G.c_input in
     if not (deadlocked outcome) then
       fail "depth need-1 on the feedback net did not deadlock (suggestion not minimal)";
     let fixed = S.with_net_depths case.G.c_graph [ fb, case.G.c_fb_need ] in
     if Cgsim.Capacity.suggest fixed <> [] then
       fail "capacity synthesizer still suggests depths after applying its own suggestion");
  List.rev !problems

let run_suite ?(progress = fun _ _ -> ()) count =
  let disagreements = ref [] in
  for i = 0 to count - 1 do
    let case = G.nth_case i in
    let problems = check case in
    disagreements := List.rev_append problems !disagreements;
    progress (i + 1) (List.length !disagreements)
  done;
  List.rev !disagreements
