(* Open-loop load test of Cgsim.Pool.

   The serve benchmark is closed-loop: domains pull the next request the
   moment they finish one, so the measured rate is whatever the pool can
   sustain and queueing delay is invisible by construction.  Real
   clients are open-loop: requests arrive on their own schedule whether
   or not the server kept up, and latency is measured from the scheduled
   arrival — the coordinated-omission-free number.

   This bench sweeps offered arrival rates.  For each rate step it draws
   seeded Poisson arrivals (exponential inter-arrival times, xorshift64*
   uniforms — deterministic per rate), runs the pool in open-loop mode
   (Pool.run ~arrivals), and reports p50/p99/p999/max latency over the
   successful requests plus the error rate, from the pool's HDR
   histograms.  Under [--chaos] a seeded transient-fault plan with retry
   supervision rides along, so the tail latencies include retry storms —
   the production shape.

   With [~remote:addr] the same sweep drives a running `cgx serve`
   daemon through Serve.Client instead of an in-process pool: a fresh
   pipelined connection per rate step, a sender pacing the Poisson
   schedule with [send_run], and a receiver domain timing each reply
   against its scheduled arrival — so the measured path includes the
   wire codec, the socket, and the server's queueing.  Chaos injection
   is in-process only and rejected with [--remote].

   [run ~json:file] writes schema "cgsim-bench-load/2"; check-json
   validates it in CI.  [~metrics:file] dumps the last step's
   Prometheus exposition (Pool.metrics_exposition in-process, the
   daemon's merged /metrics under [--remote]); check-prom validates
   that. *)

let default_rates = [ 50.0; 200.0; 800.0 ]

let smoke_rates = [ 200.0 ]

let domains = 2

(* Small requests: at the default rates a request must be far cheaper
   than the inter-arrival gap for the sweep to show the knee rather than
   saturating immediately. *)
let load_reps ~smoke (t : Apps.Harness.t) =
  max 1 (t.Apps.Harness.table2_reps / if smoke then 512 else 128)

(* xorshift64* uniforms, same generator family as the pool's backoff
   jitter; one independent stream per rate step. *)
let uniform_stream seed =
  let st = ref (Int64.of_int (if seed = 0 then 0x9E3779B9 else seed * 0x9E3779B9 + 1)) in
  fun () ->
    let x = !st in
    let x = Int64.logxor x (Int64.shift_left x 13) in
    let x = Int64.logxor x (Int64.shift_right_logical x 7) in
    let x = Int64.logxor x (Int64.shift_left x 17) in
    st := x;
    let bits = Int64.to_int (Int64.shift_right_logical (Int64.mul x 0x2545F4914F6CDD1DL) 11) in
    float_of_int (bits land 0xFFFFF) /. float_of_int 0x100000

(* Poisson process at [rate_rps]: cumulative sums of exponential
   inter-arrival gaps, as ns offsets from pool start. *)
let poisson_arrivals ~seed ~rate_rps ~requests =
  let next = uniform_stream seed in
  let a = Array.make requests 0.0 in
  let t = ref 0.0 in
  for i = 0 to requests - 1 do
    let u = Float.max 1e-12 (next ()) in
    t := !t +. (-.Float.log u /. rate_rps *. 1e9);
    a.(i) <- !t
  done;
  a

type step = {
  rate_rps : float;
  requests : int;
  completed : int;
  errors : int;  (* failed, deadline, cancelled or shed *)
  wall_ns : float;
  achieved_rps : float;  (* completions per second of wall time *)
  p50_ns : float;
  p99_ns : float;
  p999_ns : float;
  max_ns : float;
  mean_ns : float;
  retries : int;
  breaker_tripped : bool;
}

let run_step ~chaos ~smoke ~requests ~seed (t : Apps.Harness.t) g rate_rps =
  let reps = load_reps ~smoke t in
  let faults =
    if not chaos then None
    else
      (* Transient raises: each injected failure is absorbed by a retry,
         which is exactly what stretches the latency tail. *)
      let fires = max 1 (requests / 4) in
      Some (Cgsim.Faults.plan ~seed [ Cgsim.Faults.raise_on ~kernel:"*" ~after:2 ~fires () ])
  in
  let config =
    let open Cgsim.Run_config in
    let c = default |> with_seed seed in
    match faults with
    | None -> c
    | Some plan ->
      c
      |> with_deadline_ms (if smoke then 100. else 250.)
      |> with_retries 2
      |> with_backoff ~base_ns:1e5 ~cap_ns:1e7
      |> with_faults plan
  in
  let contents = Array.make requests (fun () -> []) in
  let io r =
    let sinks, c = t.Apps.Harness.make_sinks () in
    contents.(r) <- c;
    t.Apps.Harness.sources ~reps, sinks
  in
  let arrivals = poisson_arrivals ~seed ~rate_rps ~requests in
  let stats = Cgsim.Pool.run ~config ~arrivals ~domains ~requests ~io g in
  (* Latency quantiles over successful requests only (errors have no
     meaningful completion latency); recorded into a fresh HDR histogram
     so the quantiles carry its bounded relative error. *)
  let hdr = Obs.Hdr.create () in
  let completed = ref 0 in
  let errors = ref 0 in
  Array.iter
    (fun (res : Cgsim.Pool.request_result) ->
      match res.Cgsim.Pool.outcome with
      | Cgsim.Runtime.Completed _ when not res.Cgsim.Pool.shed ->
        (match t.Apps.Harness.check ~reps (contents.(res.Cgsim.Pool.req_id) ()) with
         | Ok () ->
           incr completed;
           Obs.Hdr.record hdr res.Cgsim.Pool.req_latency_ns
         | Error _ -> incr errors)
      | _ -> incr errors)
    stats.Cgsim.Pool.results;
  ( {
      rate_rps;
      requests;
      completed = !completed;
      errors = !errors;
      wall_ns = stats.Cgsim.Pool.wall_ns;
      achieved_rps = float_of_int !completed /. (stats.Cgsim.Pool.wall_ns /. 1e9);
      p50_ns = Obs.Hdr.quantile hdr 0.5;
      p99_ns = Obs.Hdr.quantile hdr 0.99;
      p999_ns = Obs.Hdr.quantile hdr 0.999;
      max_ns = (if Obs.Hdr.count hdr = 0 then 0.0 else Obs.Hdr.max_value hdr);
      mean_ns = Obs.Hdr.mean hdr;
      retries = stats.Cgsim.Pool.retries;
      breaker_tripped = stats.Cgsim.Pool.breaker_tripped;
    },
    stats )

(* One rate step against a live daemon.  The client assigns ids from 0
   per connection, so with a fresh connection per step the reply id IS
   the request index — arrivals.(id) needs no shared map.  The sender
   (this domain) paces the Poisson schedule; the receiver domain clocks
   each reply against its scheduled arrival, the same
   coordinated-omission-free convention as the in-process path. *)
let run_step_remote ~smoke ~requests ~seed (t : Apps.Harness.t) addr rate_rps =
  let reps = load_reps ~smoke t in
  let inputs = List.map Cgsim.Io.elements (t.Apps.Harness.sources ~reps) in
  let arrivals = poisson_arrivals ~seed ~rate_rps ~requests in
  let client = Serve.Client.connect ~retries:10 addr in
  let t0 = Obs.Clock.now_ns () in
  let receiver =
    Domain.spawn (fun () ->
        let hdr = Obs.Hdr.create () in
        let completed = ref 0 in
        let errors = ref 0 in
        let retries = ref 0 in
        let shed = ref false in
        let last_ns = ref t0 in
        let rec loop remaining =
          if remaining > 0 then
            match Serve.Client.recv client with
            | Error m ->
              (* Transport failure: everything still in flight is lost. *)
              Printf.eprintf "loadtest --remote: %s (%d replies outstanding)\n%!" m remaining;
              errors := !errors + remaining
            | Ok reply ->
              let now = Obs.Clock.now_ns () in
              last_ns := now;
              (match reply.Serve.Wire.p_body with
               | Serve.Wire.Result r ->
                 retries := !retries + max 0 (r.Serve.Wire.rp_attempts - 1);
                 (match r.Serve.Wire.rp_outcome with
                  | Serve.Wire.Completed outputs ->
                    let primary = match outputs with o :: _ -> o | [] -> [] in
                    let id = reply.Serve.Wire.p_id in
                    (match t.Apps.Harness.check ~reps primary with
                     | Ok () when id >= 0 && id < requests ->
                       incr completed;
                       Obs.Hdr.record hdr (now -. (t0 +. arrivals.(id)))
                     | Ok () | Error _ -> incr errors)
                  | Serve.Wire.Shed ->
                    shed := true;
                    incr errors
                  | Serve.Wire.Deadline _ | Serve.Wire.Cancelled | Serve.Wire.Failed _ ->
                    incr errors)
               | Serve.Wire.Error (_, _) | Serve.Wire.Metrics_text _ | Serve.Wire.Pong ->
                 incr errors);
              loop (remaining - 1)
        in
        loop requests;
        hdr, !completed, !errors, !retries, !shed, !last_ns)
  in
  for i = 0 to requests - 1 do
    let target = t0 +. arrivals.(i) in
    let now = Obs.Clock.now_ns () in
    if target > now then Unix.sleepf ((target -. now) /. 1e9);
    ignore (Serve.Client.send_run client ~graph:t.Apps.Harness.name inputs : int)
  done;
  let hdr, completed, errors, retries, shed, last_ns = Domain.join receiver in
  (* All replies are in: the connection is quiet, safe for a blocking
     metrics exchange before it closes. *)
  let exposition =
    match Serve.Client.metrics client with Ok body -> Some body | Error _ -> None
  in
  Serve.Client.close client;
  let wall_ns = Float.max 1.0 (last_ns -. t0) in
  ( {
      rate_rps;
      requests;
      completed;
      errors;
      wall_ns;
      achieved_rps = float_of_int completed /. (wall_ns /. 1e9);
      p50_ns = Obs.Hdr.quantile hdr 0.5;
      p99_ns = Obs.Hdr.quantile hdr 0.99;
      p999_ns = Obs.Hdr.quantile hdr 0.999;
      max_ns = (if Obs.Hdr.count hdr = 0 then 0.0 else Obs.Hdr.max_value hdr);
      mean_ns = Obs.Hdr.mean hdr;
      retries;
      breaker_tripped = shed;
    },
    exposition )

let json_of_step (s : step) =
  Obs.Json.Obj
    [
      "rate_rps", Obs.Json.Num s.rate_rps;
      "requests", Obs.Json.Num (float_of_int s.requests);
      "completed", Obs.Json.Num (float_of_int s.completed);
      "errors", Obs.Json.Num (float_of_int s.errors);
      "error_rate", Obs.Json.Num (float_of_int s.errors /. float_of_int s.requests);
      "wall_ms", Obs.Json.Num (s.wall_ns /. 1e6);
      "achieved_rps", Obs.Json.Num s.achieved_rps;
      "p50_ms", Obs.Json.Num (s.p50_ns /. 1e6);
      "p99_ms", Obs.Json.Num (s.p99_ns /. 1e6);
      "p999_ms", Obs.Json.Num (s.p999_ns /. 1e6);
      "max_ms", Obs.Json.Num (s.max_ns /. 1e6);
      "mean_ms", Obs.Json.Num (s.mean_ns /. 1e6);
      "retries", Obs.Json.Num (float_of_int s.retries);
      "breaker_tripped", Obs.Json.Bool s.breaker_tripped;
    ]

let run ?json ?metrics ?(smoke = false) ?(chaos = false)
    ?(rates = if smoke then smoke_rates else default_rates) ?requests ?remote () =
  (match remote, chaos with
   | Some _, true ->
     Printf.eprintf "loadtest: --chaos is in-process fault injection; it cannot ride --remote\n";
     exit 2
   | _ -> ());
  let remote_addr =
    match remote with
    | None -> None
    | Some spec -> (
      match Serve.Addr.parse spec with
      | Ok a -> Some a
      | Error m ->
        Printf.eprintf "loadtest: %s\n" m;
        exit 2)
  in
  let t = Apps.Harness.bitonic in
  let requests = Option.value requests ~default:(if smoke then 10 else 64) in
  let g = t.Apps.Harness.graph () in
  let host_cores = Domain.recommended_domain_count () in
  Printf.printf
    "\n== Open-loop load test (%s, Poisson arrivals, %d requests/step, %s%s) ==\n%!"
    t.Apps.Harness.name requests
    (match remote with
     | Some addr -> Printf.sprintf "remote %s" addr
     | None -> Printf.sprintf "%d domains" domains)
    (if chaos then ", chaos faults + retries" else "");
  Printf.printf "%9s %6s %6s %6s %10s %9s %9s %9s %9s %8s\n" "rate_rps" "reqs" "ok" "err"
    "achieved" "p50_ms" "p99_ms" "p999_ms" "max_ms" "retries";
  let last_exposition = ref None in
  let steps =
    List.mapi
      (fun i rate ->
        let s =
          match remote_addr with
          | Some addr ->
            let s, exposition = run_step_remote ~smoke ~requests ~seed:(11 + i) t addr rate in
            (match exposition with Some e -> last_exposition := Some e | None -> ());
            s
          | None ->
            let s, stats = run_step ~chaos ~smoke ~requests ~seed:(11 + i) t g rate in
            last_exposition := Some (Cgsim.Pool.metrics_exposition stats);
            s
        in
        Printf.printf "%9.0f %6d %6d %6d %10.1f %9.2f %9.2f %9.2f %9.2f %8d%s\n%!" s.rate_rps
          s.requests s.completed s.errors s.achieved_rps (s.p50_ns /. 1e6) (s.p99_ns /. 1e6)
          (s.p999_ns /. 1e6) (s.max_ns /. 1e6) s.retries
          (if s.breaker_tripped then "  [breaker]" else "");
        s)
      rates
  in
  (match metrics, !last_exposition with
   | Some file, Some exposition ->
     (try
        Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc exposition)
      with Sys_error msg ->
        Printf.eprintf "error: cannot write %s: %s\n" file msg;
        exit 1);
     Printf.printf "wrote Prometheus exposition (last step) to %s\n%!" file
   | Some file, None ->
     Printf.eprintf "error: no exposition collected for %s\n" file;
     exit 1
   | None, _ -> ());
  (match json with
   | None -> ()
   | Some file ->
     let doc =
       Obs.Json.Obj
         [
           "schema", Obs.Json.Str "cgsim-bench-load/2";
           "smoke", Obs.Json.Bool smoke;
           "chaos", Obs.Json.Bool chaos;
           "remote", (match remote with Some a -> Obs.Json.Str a | None -> Obs.Json.Null);
           "app", Obs.Json.Str t.Apps.Harness.name;
           "domains",
           (match remote with
            | Some _ -> Obs.Json.Null (* server-side; unknown to the client *)
            | None -> Obs.Json.Num (float_of_int domains));
           "host_cores", Obs.Json.Num (float_of_int host_cores);
           "oversubscribed", Obs.Json.Bool (domains > host_cores);
           "requests_per_step", Obs.Json.Num (float_of_int requests);
           "quantile_rel_error", Obs.Json.Num Obs.Hdr.rel_error;
           "steps", Obs.Json.Arr (List.map json_of_step steps);
         ]
     in
     (try
        Out_channel.with_open_bin file (fun oc ->
            Out_channel.output_string oc (Obs.Json.to_string doc))
      with Sys_error msg ->
        Printf.eprintf "error: cannot write %s: %s\n" file msg;
        exit 1);
     Printf.printf "wrote load test JSON to %s\n%!" file);
  (* Guard rails for CI: a load test where nothing completed measured
     nothing; chaos must have actually exercised the retry path. *)
  if List.for_all (fun s -> s.completed = 0) steps then begin
    Printf.eprintf "loadtest: no request completed at any rate\n";
    exit 1
  end;
  if chaos && List.for_all (fun s -> s.retries = 0) steps then begin
    Printf.eprintf "loadtest --chaos: fault plan never forced a retry\n";
    exit 1
  end
