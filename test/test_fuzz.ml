(* Differential validation of the static analyses at generator scale.

   Workloads.Sdf_gen builds seeded random SDF graphs — balanced by
   construction, with labelled injected defects — and its [check] oracle
   holds every lint verdict against actual runtime behaviour (cgsim and
   x86sim).  These tests sweep the deterministic case mix, pin the
   auto-capacity minimality claim (the suggested depth completes, one
   element less deadlocks), and state the Rates.solve contract as qcheck
   properties over the generator's seed space.  Everything derives from
   explicit seeds: a failure here reproduces exactly. *)

module G = Workloads.Sdf_gen
module O = Workloads.Sdf_oracle
module D = Cgsim.Diagnostic

let check_agrees name case =
  match O.check case with
  | [] -> ()
  | problems ->
    Alcotest.failf "%s (%s): %d disagreement(s):\n  %s" name case.G.c_name
      (List.length problems)
      (String.concat "\n  " problems)

(* ------------------------------------------------------------------ *)
(* Differential oracle sweeps                                          *)
(* ------------------------------------------------------------------ *)

(* Two full cycles of the 6-case mix (3 clean + one of each defect) —
   the quick gate; the scale sweep below covers hundreds more. *)
let test_oracle_mix () =
  for i = 0 to 11 do
    check_agrees "mix" (G.nth_case i)
  done

let test_oracle_each_defect () =
  List.iter
    (fun defect ->
      for seed = 0 to 9 do
        check_agrees (G.defect_to_string defect) (G.generate ~defect ~seed ())
      done)
    [ G.Imbalance; G.Under_capacity; G.Starved_cycle ]

(* The at-scale run: hundreds of graphs, zero tolerance.  [run_suite]
   uses the same deterministic mix as `bench fuzz`, so any failure here
   reproduces under the bench harness with the same index. *)
let test_oracle_at_scale () =
  match O.run_suite 504 with
  | [] -> ()
  | problems ->
    Alcotest.failf "%d disagreement(s) over 504 graphs:\n  %s" (List.length problems)
      (String.concat "\n  " (List.filteri (fun i _ -> i < 10) problems))

(* ------------------------------------------------------------------ *)
(* Capacity synthesis: exactness of the suggested depths               *)
(* ------------------------------------------------------------------ *)

let deadlocked (outcome : Cgsim.Runtime.outcome) =
  match outcome with
  | Cgsim.Runtime.Completed stats -> stats.Cgsim.Sched.cancelled > 0
  | Cgsim.Runtime.Deadline_exceeded _ | Cgsim.Runtime.Cancelled -> true
  | _ -> false

let run_graph g input =
  let config =
    Cgsim.Run_config.(default |> with_lint `Off |> with_max_steps 10_000_000)
  in
  let inst = Cgsim.Runtime.new_instance (Cgsim.Runtime.compile ~config g) in
  let sink, contents = Cgsim.Io.f32_buffer () in
  let outcome =
    Cgsim.Runtime.run inst ~sources:[ Cgsim.Io.of_f32_array input ] ~sinks:[ sink ]
  in
  outcome, contents ()

(* An under-capacitated cycle: the suggestion must be exactly minimal —
   the suggested depth completes, depth-1 deadlocks again, and the
   repaired graph draws no further suggestions. *)
let test_capacity_minimality () =
  for seed = 0 to 4 do
    let case = G.generate ~defect:G.Under_capacity ~seed () in
    let fb =
      match case.G.c_fb_net with
      | Some id -> id
      | None -> Alcotest.failf "seed %d: under-capacity case lost its cycle" seed
    in
    let need = case.G.c_fb_need in
    let suggested = Cgsim.Capacity.suggest case.G.c_graph in
    Alcotest.(check (option int))
      (Printf.sprintf "seed %d: suggested depth is the cycle demand" seed)
      (Some need)
      (List.assoc_opt fb suggested);
    let at g depth = Cgsim.Serialized.with_net_depths g [ fb, depth ] in
    let outcome_need, out = run_graph (at case.G.c_graph need) case.G.c_input in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: suggested depth completes" seed)
      false (deadlocked outcome_need);
    Alcotest.(check int)
      (Printf.sprintf "seed %d: complete output" seed)
      case.G.c_expected_out (Array.length out);
    let outcome_less, _ = run_graph (at case.G.c_graph (need - 1)) case.G.c_input in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: one element less deadlocks" seed)
      true (deadlocked outcome_less);
    Alcotest.(check (list (pair int int)))
      (Printf.sprintf "seed %d: repaired graph suggests nothing" seed)
      []
      (Cgsim.Capacity.suggest (at case.G.c_graph need))
  done

(* Runtime.compile applies the same suggestion behind auto_capacity. *)
let test_auto_capacity_rescues () =
  let case = G.generate ~defect:G.Under_capacity ~seed:11 () in
  let config =
    Cgsim.Run_config.(
      default |> with_lint `Off |> with_max_steps 10_000_000 |> with_auto_capacity true)
  in
  let inst = Cgsim.Runtime.new_instance (Cgsim.Runtime.compile ~config case.G.c_graph) in
  let sink, contents = Cgsim.Io.f32_buffer () in
  let outcome =
    Cgsim.Runtime.run inst ~sources:[ Cgsim.Io.of_f32_array case.G.c_input ] ~sinks:[ sink ]
  in
  Alcotest.(check bool) "auto_capacity completes the under-buffered cycle" false
    (deadlocked outcome);
  Alcotest.(check int) "full output" case.G.c_expected_out (Array.length (contents ()))

(* ------------------------------------------------------------------ *)
(* Rates.solve properties over the generator's seed space              *)
(* ------------------------------------------------------------------ *)

let prop_solve_balanced =
  QCheck.Test.make ~name:"Rates.solve balanced on every generator-balanced graph"
    ~count:80
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let case = G.generate ~seed () in
      let sol = Cgsim.Rates.solve case.G.c_graph in
      sol.Cgsim.Rates.balanced
      && List.length sol.Cgsim.Rates.repetitions
         = Array.length case.G.c_graph.Cgsim.Serialized.kernels
      && List.for_all (fun (_, r) -> r >= 1) sol.Cgsim.Rates.repetitions)

let prop_solve_flags_imbalance =
  QCheck.Test.make ~name:"Rates.solve flags every injected imbalance" ~count:80
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let case = G.generate ~defect:G.Imbalance ~seed () in
      not (Cgsim.Rates.solve case.G.c_graph).Cgsim.Rates.balanced)

(* The same two claims swept deterministically, so the contract is
   pinned on a fixed seed range regardless of qcheck's own PRNG. *)
let test_solve_deterministic_sweep () =
  for seed = 100 to 149 do
    let clean = G.generate ~seed () in
    if not (Cgsim.Rates.solve clean.G.c_graph).Cgsim.Rates.balanced then
      Alcotest.failf "seed %d: balanced graph reported unbalanced" seed;
    let bad = G.generate ~defect:G.Imbalance ~seed () in
    if (Cgsim.Rates.solve bad.G.c_graph).Cgsim.Rates.balanced then
      Alcotest.failf "seed %d: injected imbalance not flagged" seed
  done

let () =
  Alcotest.run "fuzz"
    [
      ( "oracle",
        [
          Alcotest.test_case "deterministic mix" `Quick test_oracle_mix;
          Alcotest.test_case "each defect x 10 seeds" `Quick test_oracle_each_defect;
          Alcotest.test_case "504 graphs at scale" `Slow test_oracle_at_scale;
        ] );
      ( "capacity",
        [
          Alcotest.test_case "suggestions are exactly minimal" `Quick
            test_capacity_minimality;
          Alcotest.test_case "auto_capacity rescues at compile" `Quick
            test_auto_capacity_rescues;
        ] );
      ( "rates",
        [ Alcotest.test_case "deterministic sweep" `Quick test_solve_deterministic_sweep ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_solve_balanced; prop_solve_flags_imbalance ] );
    ]
