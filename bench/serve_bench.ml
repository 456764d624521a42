(* Parallel serving benchmark: throughput of Cgsim.Pool over the four
   example applications, cold against warm.

   Each request is one complete cgsim simulation of the app's graph at a
   serving-sized repetition count (small enough that per-request setup
   is a real fraction of the work — the regime warm pools exist for).
   For every domain count the same batch of requests is served twice:
   cold ([Run_config.warm = false]: a fresh Runtime instance per
   attempt) and warm (the default warm-instance cache).  Every request's output is verified against the
   scalar reference on both paths, and the warm output of each request
   is additionally asserted equal to its cold output — the speedup
   cannot quietly come from a semantic change.

   The host core count is recorded in the JSON: on a single-core
   container the efficiency at >1 domains is expected to collapse to
   ~1/domains, and the committed baseline must be read with its
   "host_cores" field in hand.  Runs with more domains than host cores
   carry "oversubscribed": true so baseline consumers can filter them
   out of scaling comparisons.

   [run ~json:file] writes schema "cgsim-bench-serve/5"; check-json
   validates it in CI.  [~warm:(Some true)] / [(Some false)] restricts
   the sweep to one path (the CI smoke runs each separately so the cold
   fallback cannot rot); the default [None] measures both and asserts
   the per-request equivalence. *)

let default_domains = [ 1; 2; 4; 8 ]

let smoke_domains = [ 1; 2 ]

(* Serving-shaped requests: table2's per-app rep counts scaled well
   down, so one request is a short simulation whose instantiation cost
   matters — the workload the warm cache targets. *)
let serve_reps ~smoke (t : Apps.Harness.t) =
  max 1 (t.Apps.Harness.table2_reps / if smoke then 512 else 256)

(* Static predicted ceiling: profile a few single-domain requests,
   turn the Obs.Profile rows into a per-kernel ns/request cost model,
   and ask Cgsim.Throughput for the sequential bound — the req/s one
   domain cannot beat.  Printed and recorded next to the measured
   numbers so the static analyser is held against reality on every
   benchmark run. *)
let probe_requests = 4

let predict_ceiling ~reps (t : Apps.Harness.t) g =
  let config =
    Cgsim.Run_config.(default |> with_lint `Off |> with_warm false)
  in
  let (), session =
    Obs.Trace.with_session (fun () ->
        let compiled = Cgsim.Runtime.compile ~config g in
        for _ = 1 to probe_requests do
          let inst = Cgsim.Runtime.new_instance compiled in
          let sinks, _ = t.Apps.Harness.make_sinks () in
          ignore
            (Cgsim.Runtime.run inst ~sources:(t.Apps.Harness.sources ~reps) ~sinks)
        done)
  in
  let rows = Obs.Profile.rows (Obs.Metrics.snapshot session.Obs.Trace.metrics) in
  let cost name =
    List.find_map
      (fun (r : Obs.Profile.row) ->
        if String.equal r.Obs.Profile.kernel name then
          Some (r.Obs.Profile.self_ns /. float_of_int probe_requests)
        else None)
      rows
  in
  match Cgsim.Throughput.bound ~cost g with
  | None -> None
  | Some b ->
    (match Cgsim.Throughput.sequential_per_sec b with
     | None -> None
     | Some rps -> Some (rps, b.Cgsim.Throughput.b_bottleneck))

type app_run = {
  domains : int;
  mode : string;  (* "cold" | "warm" *)
  wall_ns : float;
  rps : float;
  steals : int;
  warm_hits : int;
  cold_builds : int;
  outputs : Cgsim.Value.t list array;  (* per request, for cross-mode equality *)
  mutable errors : string list;
}

let run_app ~mode ~config ~domains ~requests ~reps (t : Apps.Harness.t) g =
  let contents = Array.make requests (fun () -> []) in
  let io r =
    (* Called on the executing domain; distinct [r] slots, no sharing. *)
    let sinks, c = t.Apps.Harness.make_sinks () in
    contents.(r) <- c;
    t.Apps.Harness.sources ~reps, sinks
  in
  let stats = Cgsim.Pool.run ~config ~domains ~requests ~io g in
  let outputs = Array.map (fun c -> c ()) contents in
  let errors = ref [] in
  Array.iter
    (fun (res : Cgsim.Pool.request_result) ->
      match res.Cgsim.Pool.outcome with
      | Cgsim.Runtime.Completed _ ->
        (match t.Apps.Harness.check ~reps outputs.(res.Cgsim.Pool.req_id) with
         | Ok () -> ()
         | Error e ->
           errors :=
             Printf.sprintf "req %d (%s): wrong output: %s" res.Cgsim.Pool.req_id mode e
             :: !errors)
      | o ->
        errors :=
          Format.asprintf "req %d (%s): %a" res.Cgsim.Pool.req_id mode Cgsim.Runtime.pp_outcome o
          :: !errors)
    stats.Cgsim.Pool.results;
  {
    domains;
    mode;
    wall_ns = stats.Cgsim.Pool.wall_ns;
    rps = float_of_int requests /. (stats.Cgsim.Pool.wall_ns /. 1e9);
    steals = stats.Cgsim.Pool.steals;
    warm_hits = stats.Cgsim.Pool.warm_hits;
    cold_builds = stats.Cgsim.Pool.cold_builds;
    outputs;
    errors = List.rev !errors;
  }

(* Per-request warm == cold: the fast path must be observationally
   identical, element for element. *)
let check_equivalence (cold : app_run) (warm : app_run) =
  Array.iteri
    (fun r cold_out ->
      let warm_out = warm.outputs.(r) in
      if
        List.length cold_out <> List.length warm_out
        || not (List.for_all2 Cgsim.Value.equal cold_out warm_out)
      then
        warm.errors <-
          warm.errors @ [ Printf.sprintf "req %d: warm output differs from cold" r ])
    cold.outputs

let json_of_app_run ~base_wall ~host_cores (r : app_run) =
  let speedup = base_wall /. r.wall_ns in
  Obs.Json.Obj
    [
      "domains", Obs.Json.Num (float_of_int r.domains);
      "mode", Obs.Json.Str r.mode;
      (* More domains than host cores: the run timeshares and its
         efficiency number is not a scaling datapoint — marked so
         baseline consumers can filter instead of reverse-engineering
         it from host_cores. *)
      "oversubscribed", Obs.Json.Bool (r.domains > host_cores);
      "wall_ms", Obs.Json.Num (r.wall_ns /. 1e6);
      "requests_per_sec", Obs.Json.Num r.rps;
      "speedup_vs_1", Obs.Json.Num speedup;
      "efficiency", Obs.Json.Num (speedup /. float_of_int r.domains);
      "steals", Obs.Json.Num (float_of_int r.steals);
      "warm_hits", Obs.Json.Num (float_of_int r.warm_hits);
      "cold_builds", Obs.Json.Num (float_of_int r.cold_builds);
      "errors", Obs.Json.Arr (List.map (fun e -> Obs.Json.Str e) r.errors);
    ]

let run ?json ?(smoke = false) ?(domains = if smoke then smoke_domains else default_domains)
    ?requests ?warm () =
  let requests = Option.value requests ~default:(if smoke then 8 else 256) in
  let host_cores = Domain.recommended_domain_count () in
  let modes =
    match warm with
    | Some true -> [ "warm" ]
    | Some false -> [ "cold" ]
    | None -> [ "cold"; "warm" ]
  in
  Printf.printf
    "\n== Parallel serving (Cgsim.Pool, %d requests/app, modes: %s, host cores: %d) ==\n%!"
    requests (String.concat "+" modes) host_cores;
  let failures = ref 0 in
  let app_docs =
    List.map
      (fun (t : Apps.Harness.t) ->
        let reps = serve_reps ~smoke t in
        let g = t.Apps.Harness.graph () in
        Printf.printf "\n%-10s (%d reps/request)\n%!" t.Apps.Harness.name reps;
        let predicted = predict_ceiling ~reps t g in
        (match predicted with
         | Some (rps, bn) ->
           Printf.printf "  static ceiling (profiled, 1 domain): %9.1f req/s  bottleneck %s\n%!"
             rps bn
         | None ->
           Printf.printf "  static ceiling: unavailable (no profiled kernel time)\n%!");
        let runs =
          List.concat_map
            (fun d ->
              let cold_cfg = Cgsim.Run_config.(with_warm false default) in
              let warm_cfg = Cgsim.Run_config.default in
              let one mode =
                let config = if mode = "cold" then cold_cfg else warm_cfg in
                run_app ~mode ~config ~domains:d ~requests ~reps t g
              in
              let rs = List.map one modes in
              (match rs with
               | [ cold; warm ] -> check_equivalence cold warm
               | _ -> ());
              rs)
            domains
        in
        let base_wall mode =
          match List.find_opt (fun r -> r.mode = mode) runs with
          | Some r -> r.wall_ns
          | None -> 1.0
        in
        List.iter
          (fun r ->
            let speedup = base_wall r.mode /. r.wall_ns in
            Printf.printf
              "  domains=%d %-5s %8.1f ms  %9.1f req/s  speedup %5.2fx  eff %4.0f%%  steals %d  \
               warm %d\n%!"
              r.domains r.mode (r.wall_ns /. 1e6) r.rps speedup
              (100.0 *. speedup /. float_of_int r.domains)
              r.steals r.warm_hits;
            List.iter
              (fun e ->
                incr failures;
                Printf.printf "    ERROR %s\n%!" e)
              r.errors)
          runs;
        (* Warm-over-cold at each domain count, when both ran. *)
        List.iter
          (fun d ->
            match
              ( List.find_opt (fun r -> r.mode = "cold" && r.domains = d) runs,
                List.find_opt (fun r -> r.mode = "warm" && r.domains = d) runs )
            with
            | Some c, Some w ->
              Printf.printf "  domains=%d warm/cold: %5.2fx\n%!" d (w.rps /. c.rps)
            | _ -> ())
          domains;
        Obs.Json.Obj
          [
            "name", Obs.Json.Str t.Apps.Harness.name;
            "reps_per_request", Obs.Json.Num (float_of_int reps);
            "requests", Obs.Json.Num (float_of_int requests);
            ( "predicted_rps",
              match predicted with
              | Some (rps, _) -> Obs.Json.Num rps
              | None -> Obs.Json.Null );
            ( "predicted_bottleneck",
              match predicted with
              | Some (_, bn) -> Obs.Json.Str bn
              | None -> Obs.Json.Null );
            ( "runs",
              Obs.Json.Arr
                (List.map
                   (fun r -> json_of_app_run ~base_wall:(base_wall r.mode) ~host_cores r)
                   runs) );
          ])
      Apps.Harness.all
  in
  (match json with
   | None -> ()
   | Some file ->
     let doc =
       Obs.Json.Obj
         [
           "schema", Obs.Json.Str "cgsim-bench-serve/5";
           "smoke", Obs.Json.Bool smoke;
           "host_cores", Obs.Json.Num (float_of_int host_cores);
           ( "modes",
             Obs.Json.Arr (List.map (fun m -> Obs.Json.Str m) modes) );
           "apps", Obs.Json.Arr app_docs;
         ]
     in
     (try
        Out_channel.with_open_bin file (fun oc ->
            Out_channel.output_string oc (Obs.Json.to_string doc))
      with Sys_error msg ->
        Printf.eprintf "error: cannot write %s: %s\n" file msg;
        exit 1);
     Printf.printf "wrote serving benchmark JSON to %s\n%!" file);
  if !failures > 0 then begin
    Printf.eprintf "serve: %d request(s) failed verification\n" !failures;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Chaos mode: serving under deterministic fault injection             *)
(* ------------------------------------------------------------------ *)

(* One app, a seeded fault plan (a transient kernel raise and a single
   busy-stall that burns the per-attempt deadline), retries enabled:
   every request must end [Completed] after supervision has absorbed the
   injected faults, and at least one must have needed a retry to get
   there.  Writes schema "cgsim-bench-chaos/1"; check-json validates it
   in CI.  Exits nonzero when no fault was injected, nothing was
   recovered by retry, or any request still failed. *)
let run_chaos ?json ?(smoke = false) ?requests () =
  let t = Apps.Harness.farrow in
  let requests = Option.value requests ~default:(if smoke then 6 else 16) in
  let domains = 2 in
  let reps = serve_reps ~smoke t in
  let g = t.Apps.Harness.graph () in
  let faults =
    Cgsim.Faults.(
      plan ~seed:7
        [
          raise_on ~kernel:"*" ~after:2 ~fires:2 ();
          stall_on ~kernel:"*" ~after:5 ~fires:1 ();
        ])
  in
  let deadline_ms = if smoke then 100. else 250. in
  let retries = 2 in
  let config =
    Cgsim.Run_config.(
      default
      |> with_deadline_ms deadline_ms
      |> with_retries retries
      |> with_backoff ~base_ns:1e5 ~cap_ns:1e7
      |> with_faults faults |> with_seed 7)
  in
  Printf.printf
    "\n== Chaos serving (%s, %d requests, %d domains, deadline %.0f ms, %d retries) ==\n%!"
    t.Apps.Harness.name requests domains deadline_ms retries;
  List.iter (fun d -> Printf.printf "  fault: %s\n%!" d) (Cgsim.Faults.describe faults);
  let contents = Array.make requests (fun () -> []) in
  let io r =
    let sinks, c = t.Apps.Harness.make_sinks () in
    contents.(r) <- c;
    t.Apps.Harness.sources ~reps, sinks
  in
  let stats = Cgsim.Pool.run ~config ~domains ~requests ~io g in
  let errors = ref [] in
  Array.iter
    (fun (res : Cgsim.Pool.request_result) ->
      match res.Cgsim.Pool.outcome with
      | Cgsim.Runtime.Completed _ when not res.Cgsim.Pool.shed ->
        (match t.Apps.Harness.check ~reps (contents.(res.Cgsim.Pool.req_id) ()) with
         | Ok () -> ()
         | Error e ->
           errors := Printf.sprintf "req %d: wrong output: %s" res.Cgsim.Pool.req_id e :: !errors)
      | o ->
        errors :=
          Format.asprintf "req %d:%s %a" res.Cgsim.Pool.req_id
            (if res.Cgsim.Pool.shed then " shed;" else "")
            Cgsim.Runtime.pp_outcome o
          :: !errors)
    stats.Cgsim.Pool.results;
  let errors = List.rev !errors in
  let c = stats.Cgsim.Pool.counts in
  let injected = Cgsim.Faults.injected faults in
  Printf.printf
    "  injected %d fault(s); %d retry attempt(s); %d/%d completed (%d recovered on retry)\n%!"
    injected stats.Cgsim.Pool.retries c.Cgsim.Pool.n_completed requests c.Cgsim.Pool.n_retried_ok;
  List.iter (fun e -> Printf.printf "    ERROR %s\n%!" e) errors;
  (match json with
   | None -> ()
   | Some file ->
     let doc =
       Obs.Json.Obj
         [
           "schema", Obs.Json.Str "cgsim-bench-chaos/1";
           "smoke", Obs.Json.Bool smoke;
           "app", Obs.Json.Str t.Apps.Harness.name;
           "requests", Obs.Json.Num (float_of_int requests);
           "domains", Obs.Json.Num (float_of_int domains);
           "deadline_ms", Obs.Json.Num deadline_ms;
           "retry_budget", Obs.Json.Num (float_of_int retries);
           "faults", Obs.Json.Arr (List.map (fun d -> Obs.Json.Str d) (Cgsim.Faults.describe faults));
           "injected", Obs.Json.Num (float_of_int injected);
           "retries_performed", Obs.Json.Num (float_of_int stats.Cgsim.Pool.retries);
           "recovered_by_retry", Obs.Json.Num (float_of_int c.Cgsim.Pool.n_retried_ok);
           "breaker_tripped", Obs.Json.Bool stats.Cgsim.Pool.breaker_tripped;
           ( "outcomes",
             Obs.Json.Obj
               [
                 "completed", Obs.Json.Num (float_of_int c.Cgsim.Pool.n_completed);
                 "deadline", Obs.Json.Num (float_of_int c.Cgsim.Pool.n_deadline);
                 "cancelled", Obs.Json.Num (float_of_int c.Cgsim.Pool.n_cancelled);
                 "failed", Obs.Json.Num (float_of_int c.Cgsim.Pool.n_failed);
                 "shed", Obs.Json.Num (float_of_int c.Cgsim.Pool.n_shed);
               ] );
           "errors", Obs.Json.Arr (List.map (fun e -> Obs.Json.Str e) errors);
         ]
     in
     (try
        Out_channel.with_open_bin file (fun oc ->
            Out_channel.output_string oc (Obs.Json.to_string doc))
      with Sys_error msg ->
        Printf.eprintf "error: cannot write %s: %s\n" file msg;
        exit 1);
     Printf.printf "wrote chaos benchmark JSON to %s\n%!" file);
  if errors <> [] then begin
    Printf.eprintf "serve --chaos: %d request(s) did not recover\n" (List.length errors);
    exit 1
  end;
  if injected = 0 then begin
    Printf.eprintf "serve --chaos: fault plan never fired\n";
    exit 1
  end;
  if c.Cgsim.Pool.n_retried_ok = 0 then begin
    Printf.eprintf "serve --chaos: no injected fault was recovered by retry\n";
    exit 1
  end
