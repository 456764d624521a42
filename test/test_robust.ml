(* Robustness stack tests: structured outcomes, deadlines, cancellation,
   fault injection, pool supervision (retry + circuit breaker) and chaos
   recovery, and warm serving against fresh runs. *)

let contains needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec at i = i + nl <= hl && (String.sub haystack i nl = needle || at (i + 1)) in
  at 0

(* ------------------------------------------------------------------ *)
(* Fixtures                                                           *)
(* ------------------------------------------------------------------ *)

let scale_kernel =
  Cgsim.Kernel.define ~realm:Cgsim.Kernel.Aie ~name:"robust_scale"
    [
      Cgsim.Kernel.in_port "in" Cgsim.Dtype.F32;
      Cgsim.Kernel.out_port "out" Cgsim.Dtype.F32;
    ]
    (fun b ->
      let i = Cgsim.Kernel.rd b 0 and o = Cgsim.Kernel.wr b 0 in
      while true do
        Cgsim.Port.put_f32 o (2.0 *. Cgsim.Port.get_f32 i)
      done)

let boom_kernel =
  Cgsim.Kernel.define ~realm:Cgsim.Kernel.Aie ~name:"robust_boom"
    [
      Cgsim.Kernel.in_port "in" Cgsim.Dtype.F32;
      Cgsim.Kernel.out_port "out" Cgsim.Dtype.F32;
    ]
    (fun b ->
      ignore (Cgsim.Port.get_f32 (Cgsim.Kernel.rd b 0));
      ignore (Cgsim.Kernel.wr b 0);
      failwith "deliberate robustness failure")

(* Produces forever: the schedule stays live until a deadline stops it. *)
let fountain_kernel =
  Cgsim.Kernel.define ~realm:Cgsim.Kernel.Aie ~name:"robust_fountain"
    [ Cgsim.Kernel.out_port "out" Cgsim.Dtype.F32 ]
    (fun b ->
      let o = Cgsim.Kernel.wr b 0 in
      while true do
        Cgsim.Port.put_f32 o 1.0
      done)

(* in -> robust_scale_0 -> robust_scale_1 -> out *)
let chain_graph () =
  Cgsim.Builder.make ~name:"robust_chain" ~inputs:[ "x", Cgsim.Dtype.F32 ] (fun b conns ->
      let mid = Cgsim.Builder.net b Cgsim.Dtype.F32 in
      let out = Cgsim.Builder.net b Cgsim.Dtype.F32 in
      ignore (Cgsim.Builder.add_kernel b scale_kernel [ List.hd conns; mid ]);
      ignore (Cgsim.Builder.add_kernel b scale_kernel [ mid; out ]);
      [ out ])

let boom_graph () =
  Cgsim.Builder.make ~name:"robust_boom_graph" ~inputs:[ "x", Cgsim.Dtype.F32 ]
    (fun b conns ->
      let out = Cgsim.Builder.net b Cgsim.Dtype.F32 in
      ignore (Cgsim.Builder.add_kernel b boom_kernel [ List.hd conns; out ]);
      [ out ])

let fountain_graph () =
  Cgsim.Builder.make ~name:"robust_fountain_graph" ~inputs:[] (fun b _ ->
      let out = Cgsim.Builder.net b Cgsim.Dtype.F32 in
      ignore (Cgsim.Builder.add_kernel b fountain_kernel [ out ]);
      [ out ])

let chain_input n = Cgsim.Io.of_f32_array (Array.init n float_of_int)

(* ------------------------------------------------------------------ *)
(* Structured outcomes and graph-naming errors                        *)
(* ------------------------------------------------------------------ *)

let test_outcome_completed () =
  let sink, contents = Cgsim.Io.f32_buffer () in
  match Cgsim.Runtime.execute (chain_graph ()) ~sources:[ chain_input 4 ] ~sinks:[ sink ] with
  | Cgsim.Runtime.Completed _ ->
    Alcotest.(check (array (float 1e-6))) "output" [| 0.0; 4.0; 8.0; 12.0 |] (contents ())
  | o -> Alcotest.failf "expected Completed, got %a" Cgsim.Runtime.pp_outcome o

let test_kernel_failure_captured () =
  let sink = Cgsim.Io.null () in
  match
    Cgsim.Runtime.execute (boom_graph ()) ~sources:[ chain_input 4 ] ~sinks:[ sink ]
  with
  | Cgsim.Runtime.Kernel_failed f ->
    Alcotest.(check string) "graph named" "robust_boom_graph" f.Cgsim.Runtime.f_graph;
    Alcotest.(check string) "kernel named" "robust_boom_0" f.Cgsim.Runtime.f_kernel;
    (match f.Cgsim.Runtime.f_exn with
     | Failure msg -> Alcotest.(check string) "exn preserved" "deliberate robustness failure" msg
     | e -> Alcotest.failf "unexpected exn %s" (Printexc.to_string e));
    (* stats_exn turns it into a Runtime_error naming graph and kernel *)
    (match Cgsim.Runtime.stats_exn (Cgsim.Runtime.Kernel_failed f) with
     | exception Cgsim.Runtime.Runtime_error msg ->
       Alcotest.(check bool) ("names graph: " ^ msg) true (contains "robust_boom_graph" msg);
       Alcotest.(check bool) ("names kernel: " ^ msg) true (contains "robust_boom_0" msg)
     | _ -> Alcotest.fail "stats_exn must raise on Kernel_failed")
  | o -> Alcotest.failf "expected Kernel_failed, got %a" Cgsim.Runtime.pp_outcome o

let test_wiring_errors_name_graph () =
  (* Wrong source count is a caller bug: still raises, and the message
     names the graph. *)
  match Cgsim.Runtime.execute (chain_graph ()) ~sources:[] ~sinks:[ Cgsim.Io.null () ] with
  | exception Cgsim.Runtime.Runtime_error msg ->
    Alcotest.(check bool) ("names graph: " ^ msg) true (contains "robust_chain" msg)
  | _ -> Alcotest.fail "source count mismatch must raise"

(* ------------------------------------------------------------------ *)
(* Deadlines, fuel and cancellation                                   *)
(* ------------------------------------------------------------------ *)

let test_deadline_on_divergent_graph () =
  let config = Cgsim.Run_config.(with_deadline_ms 50.0 default) in
  match
    Cgsim.Runtime.execute ~config (fountain_graph ()) ~sources:[] ~sinks:[ Cgsim.Io.null () ]
  with
  | Cgsim.Runtime.Deadline_exceeded p ->
    Alcotest.(check string) "graph named" "robust_fountain_graph" p.Cgsim.Runtime.p_graph;
    (match p.Cgsim.Runtime.p_reason with
     | `Wall_clock -> ()
     | `Max_steps -> Alcotest.fail "expected a wall-clock stop")
  | o -> Alcotest.failf "expected Deadline_exceeded, got %a" Cgsim.Runtime.pp_outcome o

(* A stalled (not busy) pipeline: the stall fault spins one fiber on
   yield, everyone downstream parks on empty queues. *)
let stalled_chain_progress () =
  let faults = Cgsim.Faults.(plan ~seed:3 [ stall_on ~kernel:"robust_scale_0" ~after:2 () ]) in
  let config = Cgsim.Run_config.(default |> with_deadline_ms 50.0 |> with_faults faults) in
  let sink = Cgsim.Io.null () in
  match
    Cgsim.Runtime.execute ~config (chain_graph ()) ~sources:[ chain_input 64 ] ~sinks:[ sink ]
  with
  | Cgsim.Runtime.Deadline_exceeded p -> p
  | o -> Alcotest.failf "expected Deadline_exceeded, got %a" Cgsim.Runtime.pp_outcome o

(* Every kernel has its own fiber: the progress snapshot must name the
   parked downstream kernel. *)
let test_deadline_stalled_names_parked () =
  let p = stalled_chain_progress () in
  Alcotest.(check bool) "parked snapshot non-empty" true (p.Cgsim.Runtime.p_parked <> []);
  Alcotest.(check bool) "downstream kernel parked" true
    (List.mem "robust_scale_1" p.Cgsim.Runtime.p_parked);
  let msg = Cgsim.Runtime.progress_message p in
  Alcotest.(check bool) ("message names parked: " ^ msg) true
    (contains "robust_scale_1" msg)

let test_max_steps_budget () =
  let config = Cgsim.Run_config.(with_max_steps 10 default) in
  match
    Cgsim.Runtime.execute ~config (fountain_graph ()) ~sources:[] ~sinks:[ Cgsim.Io.null () ]
  with
  | Cgsim.Runtime.Deadline_exceeded p ->
    (match p.Cgsim.Runtime.p_reason with
     | `Max_steps -> ()
     | `Wall_clock -> Alcotest.fail "expected the step budget, not the clock")
  | o -> Alcotest.failf "expected Deadline_exceeded, got %a" Cgsim.Runtime.pp_outcome o

let test_cancel_mid_run () =
  (* Cooperative cancellation requested from inside a port tap (as another
     domain would): the run winds down and reports Cancelled. *)
  let target = ref None in
  let reads = ref 0 in
  let tap (inst : Cgsim.Serialized.kernel_inst) port_idx _name =
    match inst.Cgsim.Serialized.kernel.Cgsim.Kernel.ports.(port_idx).Cgsim.Kernel.dir with
    | Cgsim.Kernel.Out -> None
    | Cgsim.Kernel.In ->
      Some
        {
          Cgsim.Port.no_tap with
          before =
            (fun () ->
              incr reads;
              if !reads = 5 then Option.iter Cgsim.Runtime.cancel !target);
        }
  in
  let t = Cgsim.Runtime.instantiate ~tap (chain_graph ()) in
  target := Some t;
  (match Cgsim.Runtime.run t ~sources:[ chain_input 64 ] ~sinks:[ Cgsim.Io.null () ] with
   | Cgsim.Runtime.Cancelled -> ()
   | o -> Alcotest.failf "expected Cancelled, got %a" Cgsim.Runtime.pp_outcome o);
  Alcotest.(check string) "label" "cancelled"
    (Cgsim.Runtime.outcome_label Cgsim.Runtime.Cancelled)

(* ------------------------------------------------------------------ *)
(* Deterministic fault injection                                      *)
(* ------------------------------------------------------------------ *)

let run_with_fault () =
  let faults =
    Cgsim.Faults.(plan ~seed:42 [ raise_on ~kernel:"robust_scale_0" ~after:3 ~fires:1 () ])
  in
  let config = Cgsim.Run_config.(with_faults faults default) in
  let outcome =
    Cgsim.Runtime.execute ~config (chain_graph ()) ~sources:[ chain_input 8 ]
      ~sinks:[ Cgsim.Io.null () ]
  in
  faults, outcome

let test_fault_raise_deterministic () =
  let faults, first = run_with_fault () in
  Alcotest.(check int) "exactly one injection" 1 (Cgsim.Faults.injected faults);
  let _, second = run_with_fault () in
  let signature = function
    | Cgsim.Runtime.Kernel_failed f ->
      (match f.Cgsim.Runtime.f_exn with
       | Cgsim.Faults.Injected _ -> f.Cgsim.Runtime.f_kernel
       | e -> Alcotest.failf "expected Injected, got %s" (Printexc.to_string e))
    | o -> Alcotest.failf "expected Kernel_failed, got %a" Cgsim.Runtime.pp_outcome o
  in
  Alcotest.(check string) "same seed, same victim" (signature first) (signature second);
  Alcotest.(check string) "victim is the matched kernel" "robust_scale_0" (signature first)

let test_fault_budget_recovers () =
  (* The fire budget is shared across instantiations of one plan: after
     the single armed raise has fired, the same plan runs clean — the
     transient-fault model retries rely on. *)
  let faults, first = run_with_fault () in
  (match first with
   | Cgsim.Runtime.Kernel_failed _ -> ()
   | o -> Alcotest.failf "first run must fail, got %a" Cgsim.Runtime.pp_outcome o);
  let config = Cgsim.Run_config.(with_faults faults default) in
  let sink, contents = Cgsim.Io.f32_buffer () in
  (match
     Cgsim.Runtime.execute ~config (chain_graph ()) ~sources:[ chain_input 8 ] ~sinks:[ sink ]
   with
   | Cgsim.Runtime.Completed _ -> ()
   | o -> Alcotest.failf "budget-exhausted run must complete, got %a" Cgsim.Runtime.pp_outcome o);
  Alcotest.(check (array (float 1e-6))) "clean output after budget"
    (Array.init 8 (fun i -> 4.0 *. float_of_int i))
    (contents ());
  Alcotest.(check int) "still one injection" 1 (Cgsim.Faults.injected faults)

let test_fault_delay_is_transparent () =
  (* Delays perturb the schedule, never the data. *)
  let faults = Cgsim.Faults.(plan ~seed:9 [ delay_on ~kernel:"*" ~after:2 ~yields:8 ~fires:4 () ]) in
  let config = Cgsim.Run_config.(with_faults faults default) in
  let sink, contents = Cgsim.Io.f32_buffer () in
  (match
     Cgsim.Runtime.execute ~config (chain_graph ()) ~sources:[ chain_input 16 ] ~sinks:[ sink ]
   with
   | Cgsim.Runtime.Completed _ -> ()
   | o -> Alcotest.failf "delays must not change the outcome: %a" Cgsim.Runtime.pp_outcome o);
  Alcotest.(check bool) "delays fired" true (Cgsim.Faults.injected faults > 0);
  Alcotest.(check (array (float 1e-6))) "output unchanged"
    (Array.init 16 (fun i -> 4.0 *. float_of_int i))
    (contents ())

(* Farrow at 2 reps under [config]; fails unless the run completes. *)
let run_farrow ?config () =
  let h = Apps.Harness.farrow in
  let sinks, contents = h.Apps.Harness.make_sinks () in
  match
    Cgsim.Runtime.execute ?config (h.Apps.Harness.graph ()) ~sources:(h.Apps.Harness.sources ~reps:2)
      ~sinks
  with
  | Cgsim.Runtime.Completed stats -> stats, contents ()
  | o -> Alcotest.failf "farrow must complete, got %a" Cgsim.Runtime.pp_outcome o

let test_fault_backpressure () =
  (* Backpressure holds the writer's space probe at 0, so farrow stage 1's
     put_window2 degrades to one element per chunk and every put first
     yields: more scheduler slices, the same bits. *)
  let stage1 =
    let g = Apps.Harness.farrow.Apps.Harness.graph () in
    (List.find
       (fun (k : Cgsim.Serialized.kernel_inst) -> k.Cgsim.Serialized.kernel == Apps.Farrow.stage1)
       (Array.to_list g.Cgsim.Serialized.kernels))
      .Cgsim.Serialized.inst_name
  in
  let clean_stats, clean = run_farrow () in
  let faults = Cgsim.Faults.(plan ~seed:3 [ backpressure_on ~kernel:stage1 ~after:1 () ]) in
  let stats, out = run_farrow ~config:Cgsim.Run_config.(with_faults faults default) () in
  Alcotest.(check int) "one injection" 1 (Cgsim.Faults.injected faults);
  Alcotest.(check int) "same output length" (List.length clean) (List.length out);
  Alcotest.(check bool) "bit-identical output" true (List.for_all2 Cgsim.Value.equal clean out);
  if stats.Cgsim.Sched.slices <= clean_stats.Cgsim.Sched.slices then
    Alcotest.failf "backpressure must cost slices: %d faulted vs %d clean" stats.Cgsim.Sched.slices
      clean_stats.Cgsim.Sched.slices

let test_fault_seed_derived_activations () =
  (* Unspecified activation counts resolve deterministically from the
     seed: same seed, same plan description; different seed, different. *)
  let d1 = Cgsim.Faults.(describe (plan ~seed:5 [ raise_on ~kernel:"*" () ])) in
  let d2 = Cgsim.Faults.(describe (plan ~seed:5 [ raise_on ~kernel:"*" () ])) in
  Alcotest.(check (list string)) "same seed, same arming" d1 d2;
  Alcotest.(check int) "one armed spec" 1 (List.length d1)

(* ------------------------------------------------------------------ *)
(* Pool supervision: retry, deadline, circuit breaker                  *)
(* ------------------------------------------------------------------ *)

let pool_io contents r =
  let sink, c = Cgsim.Io.f32_buffer () in
  contents.(r) <- c;
  [ chain_input 8 ], [ sink ]

let test_pool_retry_then_succeed () =
  (* A twice-firing transient raise pinned to one kernel instance: the
     first request burns both fires across two failed attempts and
     completes on its third; the rest run clean.  Every final outcome is
     Completed and the stats show the recovery. *)
  let faults =
    Cgsim.Faults.(plan ~seed:11 [ raise_on ~kernel:"robust_scale_0" ~after:3 ~fires:2 () ])
  in
  let config =
    Cgsim.Run_config.(
      default |> with_retries 2 |> with_backoff ~base_ns:1e4 ~cap_ns:1e6 |> with_faults faults)
  in
  let requests = 4 in
  let contents = Array.make requests (fun () -> [||]) in
  let stats =
    Cgsim.Pool.run ~config ~domains:1 ~requests ~io:(pool_io contents) (chain_graph ())
  in
  Array.iter
    (fun (res : Cgsim.Pool.request_result) ->
      match res.Cgsim.Pool.outcome with
      | Cgsim.Runtime.Completed _ ->
        Alcotest.(check (array (float 1e-6)))
          (Printf.sprintf "req %d output" res.Cgsim.Pool.req_id)
          (Array.init 8 (fun i -> 4.0 *. float_of_int i))
          (contents.(res.Cgsim.Pool.req_id) ())
      | o ->
        Alcotest.failf "req %d must recover, got %a" res.Cgsim.Pool.req_id
          Cgsim.Runtime.pp_outcome o)
    stats.Cgsim.Pool.results;
  Alcotest.(check int) "two injections" 2 (Cgsim.Faults.injected faults);
  Alcotest.(check int) "two retry attempts" 2 stats.Cgsim.Pool.retries;
  Alcotest.(check int) "recovered on retry" 1 stats.Cgsim.Pool.counts.Cgsim.Pool.n_retried_ok;
  Alcotest.(check bool) "breaker stayed closed" false stats.Cgsim.Pool.breaker_tripped

let test_pool_deadline_divergent_graph () =
  (* The ISSUE acceptance shape: a divergent graph served with a 50 ms
     per-request deadline must come back Deadline_exceeded with a
     non-empty parked snapshot — and the pool must not hang. *)
  let faults = Cgsim.Faults.(plan ~seed:13 [ stall_on ~kernel:"robust_scale_0" ~after:2 ~fires:(-1) () ]) in
  let config =
    Cgsim.Run_config.(default |> with_deadline_ms 50.0 |> with_faults faults)
  in
  let requests = 2 in
  let contents = Array.make requests (fun () -> [||]) in
  let stats =
    Cgsim.Pool.run ~config ~domains:1 ~requests ~io:(pool_io contents) (chain_graph ())
  in
  Alcotest.(check int) "deadline on every request" requests
    stats.Cgsim.Pool.counts.Cgsim.Pool.n_deadline;
  Array.iter
    (fun (res : Cgsim.Pool.request_result) ->
      match res.Cgsim.Pool.outcome with
      | Cgsim.Runtime.Deadline_exceeded p ->
        Alcotest.(check bool)
          (Printf.sprintf "req %d parked snapshot non-empty" res.Cgsim.Pool.req_id)
          true
          (p.Cgsim.Runtime.p_parked <> [])
      | o ->
        Alcotest.failf "req %d expected Deadline_exceeded, got %a" res.Cgsim.Pool.req_id
          Cgsim.Runtime.pp_outcome o)
    stats.Cgsim.Pool.results

let test_pool_breaker_sheds () =
  (* Persistent failure: after the threshold of consecutive final
     failures the circuit opens and the remaining requests are shed
     without executing. *)
  let config = Cgsim.Run_config.(default |> with_breaker 2) in
  let requests = 6 in
  let stats =
    Cgsim.Pool.run ~config ~domains:1 ~requests
      ~io:(fun _ -> [ chain_input 4 ], [ Cgsim.Io.null () ])
      (boom_graph ())
  in
  Alcotest.(check bool) "breaker tripped" true stats.Cgsim.Pool.breaker_tripped;
  Alcotest.(check int) "threshold failures before opening" 2
    stats.Cgsim.Pool.counts.Cgsim.Pool.n_failed;
  Alcotest.(check int) "rest shed" (requests - 2) stats.Cgsim.Pool.counts.Cgsim.Pool.n_shed;
  Array.iter
    (fun (res : Cgsim.Pool.request_result) ->
      if res.Cgsim.Pool.shed then
        Alcotest.(check int)
          (Printf.sprintf "req %d shed without executing" res.Cgsim.Pool.req_id)
          0 res.Cgsim.Pool.attempts)
    stats.Cgsim.Pool.results

let test_pool_breaker_reset_by_success () =
  (* A threshold above the consecutive-failure count keeps the circuit
     closed: nothing is shed even though every request fails. *)
  let config = Cgsim.Run_config.(default |> with_breaker 10) in
  let stats =
    Cgsim.Pool.run ~config ~domains:1 ~requests:4
      ~io:(fun _ -> [ chain_input 4 ], [ Cgsim.Io.null () ])
      (boom_graph ())
  in
  Alcotest.(check bool) "under threshold: closed" false stats.Cgsim.Pool.breaker_tripped;
  Alcotest.(check int) "nothing shed" 0 stats.Cgsim.Pool.counts.Cgsim.Pool.n_shed

let test_pool_callback_raise_counted () =
  (* A raising on_complete still leaves the result awaitable; the pool
     counts the failure and notes it, with the request id, in the worker
     domain's flight ring (read back from a later callback on that
     domain). *)
  let pool = Cgsim.Pool.create ~domains:1 () in
  let g = chain_graph () in
  let io _ = [ chain_input 4 ], [ Cgsim.Io.null () ] in
  let flight = Atomic.make [] in
  let res, id =
    Fun.protect
      ~finally:(fun () -> Cgsim.Pool.shutdown pool)
      (fun () ->
        let h = Cgsim.Pool.submit pool g ~io ~on_complete:(fun _ -> failwith "callback boom") in
        let res = Cgsim.Pool.await h in
        let h2 =
          Cgsim.Pool.submit pool g ~io ~on_complete:(fun _ ->
              Atomic.set flight (Obs.Flight.snapshot ()))
        in
        ignore (Cgsim.Pool.await h2);
        res, Cgsim.Pool.handle_id h)
  in
  (match res.Cgsim.Pool.outcome with
   | Cgsim.Runtime.Completed _ -> ()
   | o -> Alcotest.failf "expected Completed, got %a" Cgsim.Runtime.pp_outcome o);
  let failed =
    List.filter_map
      (fun (c : Obs.Metrics.counter_snapshot) ->
        if c.Obs.Metrics.c_name = "pool.callback_failed" then Some c.Obs.Metrics.total else None)
      (Cgsim.Pool.metrics pool).Obs.Metrics.counters
  in
  Alcotest.(check (list (float 0.0))) "pool.callback_failed" [ 1.0 ] failed;
  Alcotest.(check bool)
    "flight note names the request" true
    (List.exists
       (fun (e : Obs.Flight.entry) ->
         e.Obs.Flight.fl_name = "pool.callback_failed"
         && e.Obs.Flight.fl_arg = float_of_int id)
       (Atomic.get flight))

let test_pool_chaos_recovers () =
  (* Seeded transient faults on a 2-domain pool: two kernel raises and
     one busy-stall that burns the per-attempt deadline.  Retry
     supervision must absorb all of them: every request completes with
     the reference output, and at least one needed a retry to. *)
  let t = Apps.Harness.farrow in
  let requests = 6 and reps = 1 in
  let faults =
    Cgsim.Faults.(
      plan ~seed:7
        [ raise_on ~kernel:"*" ~after:2 ~fires:2 (); stall_on ~kernel:"*" ~after:5 ~fires:1 () ])
  in
  let config =
    Cgsim.Run_config.(
      default |> with_deadline_ms 100. |> with_retries 2
      |> with_backoff ~base_ns:1e5 ~cap_ns:1e7
      |> with_faults faults |> with_seed 7)
  in
  let contents = Array.make requests (fun () -> []) in
  let io r =
    let sinks, c = t.Apps.Harness.make_sinks () in
    contents.(r) <- c;
    t.Apps.Harness.sources ~reps, sinks
  in
  let stats = Cgsim.Pool.run ~config ~domains:2 ~requests ~io (t.Apps.Harness.graph ()) in
  Array.iter
    (fun (res : Cgsim.Pool.request_result) ->
      let r = res.Cgsim.Pool.req_id in
      match res.Cgsim.Pool.outcome with
      | Cgsim.Runtime.Completed _ when not res.Cgsim.Pool.shed ->
        (match t.Apps.Harness.check ~reps (contents.(r) ()) with
         | Ok () -> ()
         | Error e -> Alcotest.failf "req %d: wrong output: %s" r e)
      | o ->
        Alcotest.failf "req %d did not recover:%s %a" r
          (if res.Cgsim.Pool.shed then " shed;" else "")
          Cgsim.Runtime.pp_outcome o)
    stats.Cgsim.Pool.results;
  Alcotest.(check bool) "a fault was injected" true (Cgsim.Faults.injected faults >= 1);
  Alcotest.(check bool) "a request recovered by retry" true
    (stats.Cgsim.Pool.counts.Cgsim.Pool.n_retried_ok >= 1)

(* ------------------------------------------------------------------ *)
(* x86sim: watchdog deadline and failure outcomes                      *)
(* ------------------------------------------------------------------ *)

let test_x86_deadline_poisons () =
  let config = Cgsim.Run_config.(with_deadline_ms 100.0 default) in
  match
    X86sim.Sim.run ~config (fountain_graph ()) ~sources:[] ~sinks:[ Cgsim.Io.null () ]
  with
  | X86sim.Sim.Deadline_exceeded { graph; waiting; _ } ->
    Alcotest.(check string) "graph named" "robust_fountain_graph" graph;
    Alcotest.(check bool) "waiting threads named" true (waiting <> [])
  | o -> Alcotest.failf "expected Deadline_exceeded, got %s" (X86sim.Sim.outcome_label o)

let test_x86_failure_names_graph () =
  (match
     X86sim.Sim.run (boom_graph ()) ~sources:[ chain_input 4 ] ~sinks:[ Cgsim.Io.null () ]
   with
   | X86sim.Sim.Kernel_failed f as o ->
     Alcotest.(check string) "graph named" "robust_boom_graph" f.Cgsim.Runtime.f_graph;
     Alcotest.(check string) "kernel named" "robust_boom_0" f.Cgsim.Runtime.f_kernel;
     (match f.Cgsim.Runtime.f_exn with
      | Failure msg -> Alcotest.(check string) "exn preserved" "deliberate robustness failure" msg
      | e -> Alcotest.failf "unexpected exn %s" (Printexc.to_string e));
     (match X86sim.Sim.stats_exn o with
      | exception X86sim.Sim.X86sim_error msg ->
        Alcotest.(check bool) ("names graph: " ^ msg) true (contains "robust_boom_graph" msg);
        Alcotest.(check bool) ("names kernel: " ^ msg) true (contains "robust_boom_0" msg)
      | _ -> Alcotest.fail "stats_exn must raise on Kernel_failed")
   | o -> Alcotest.failf "expected Kernel_failed, got %s" (X86sim.Sim.outcome_label o))

(* in -> robust_scale_0 -> robust_boom_0 -> out, where robust_boom_0
   reads one element and raises.  The scale kernel would fill the net
   between them and wait forever for the dead reader: the first failure
   must end the run.  The deadline is only a guard against a hang. *)
let test_x86_failure_ends_run () =
  let g =
    Cgsim.Builder.make ~name:"robust_scale_boom" ~inputs:[ "x", Cgsim.Dtype.F32 ]
      (fun b conns ->
        let mid = Cgsim.Builder.net b Cgsim.Dtype.F32 in
        let out = Cgsim.Builder.net b Cgsim.Dtype.F32 in
        ignore (Cgsim.Builder.add_kernel b scale_kernel [ List.hd conns; mid ]);
        ignore (Cgsim.Builder.add_kernel b boom_kernel [ mid; out ]);
        [ out ])
  in
  let config = Cgsim.Run_config.(with_deadline_ms 10_000.0 default) in
  let t0 = Obs.Clock.now_ns () in
  let o = X86sim.Sim.run ~config g ~sources:[ chain_input 20_000 ] ~sinks:[ Cgsim.Io.null () ] in
  let wall_ns = Obs.Clock.now_ns () -. t0 in
  (match o with
   | X86sim.Sim.Kernel_failed f ->
     Alcotest.(check string) "the boom instance named" "robust_boom_0" f.Cgsim.Runtime.f_kernel
   | o -> Alcotest.failf "expected Kernel_failed, got %s" (X86sim.Sim.outcome_label o));
  if wall_ns >= 2e9 then
    Alcotest.failf "the failure ended the run only after %.3f s" (wall_ns /. 1e9)

(* ------------------------------------------------------------------ *)
(* Warm vs cold pool serving                                           *)
(* ------------------------------------------------------------------ *)

let test_pool_warm_matches_cold () =
  (* The pool's reset instances must produce exactly the outputs of a
     fresh instance per request. *)
  let requests = 4 in
  let g = chain_graph () in
  let contents = Array.make requests (fun () -> [||]) in
  let stats = Cgsim.Pool.run ~domains:1 ~requests ~io:(pool_io contents) g in
  Alcotest.(check int) "all completed" requests stats.Cgsim.Pool.counts.Cgsim.Pool.n_completed;
  Alcotest.(check bool) "warm path reused instances" true (stats.Cgsim.Pool.warm_hits > 0);
  Array.iteri
    (fun r c ->
      let sink, fresh = Cgsim.Io.f32_buffer () in
      (match Cgsim.Runtime.execute g ~sources:[ chain_input 8 ] ~sinks:[ sink ] with
       | Cgsim.Runtime.Completed _ -> ()
       | o -> Alcotest.failf "fresh run %d: %a" r Cgsim.Runtime.pp_outcome o);
      Alcotest.(check (array (float 0.0))) (Printf.sprintf "req %d" r) (fresh ()) (c ()))
    contents

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "robust"
    [
      ( "outcomes",
        [
          Alcotest.test_case "completed" `Quick test_outcome_completed;
          Alcotest.test_case "kernel failure captured" `Quick test_kernel_failure_captured;
          Alcotest.test_case "wiring errors name graph" `Quick test_wiring_errors_name_graph;
        ] );
      ( "deadlines",
        [
          Alcotest.test_case "divergent graph stops" `Quick test_deadline_on_divergent_graph;
          Alcotest.test_case "stalled names parked" `Quick test_deadline_stalled_names_parked;
          Alcotest.test_case "max-steps budget" `Quick test_max_steps_budget;
          Alcotest.test_case "cancel mid-run" `Quick test_cancel_mid_run;
        ] );
      ( "faults",
        [
          Alcotest.test_case "raise is deterministic" `Quick test_fault_raise_deterministic;
          Alcotest.test_case "budget then recovery" `Quick test_fault_budget_recovers;
          Alcotest.test_case "delay is transparent" `Quick test_fault_delay_is_transparent;
          Alcotest.test_case "backpressure is transparent" `Quick test_fault_backpressure;
          Alcotest.test_case "seeded arming" `Quick test_fault_seed_derived_activations;
        ] );
      ( "pool-supervision",
        [
          Alcotest.test_case "retry then succeed" `Quick test_pool_retry_then_succeed;
          Alcotest.test_case "deadline on divergent" `Quick test_pool_deadline_divergent_graph;
          Alcotest.test_case "breaker opens and sheds" `Quick test_pool_breaker_sheds;
          Alcotest.test_case "closed under threshold" `Quick test_pool_breaker_reset_by_success;
          Alcotest.test_case "raising callback counted" `Quick test_pool_callback_raise_counted;
          Alcotest.test_case "chaos recovers every request" `Quick test_pool_chaos_recovers;
        ] );
      ( "x86sim",
        [
          Alcotest.test_case "watchdog deadline" `Quick test_x86_deadline_poisons;
          Alcotest.test_case "failure names graph" `Quick test_x86_failure_names_graph;
          Alcotest.test_case "a failing kernel ends the run" `Quick test_x86_failure_ends_run;
        ] );
      ( "warm-pool",
        [
          Alcotest.test_case "warm == cold outputs" `Quick test_pool_warm_matches_cold;
        ] );
    ]
