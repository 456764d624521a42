(* pool_mix: an in-process Cgsim.Pool on [Frozen.pool_domains] domains
   with the default Run_config (warm, batch 1), no wire.  Each round
   submits [pool_round] requests up front in a seeded shuffle of
   [Frozen.pool_mix]: many short runs make queueing, stealing, warm
   acquire and Runtime.reset a large share of the cost, and the rare
   farrow/iir requests test head-of-line blocking. *)

type kind = {
  inp : Inputs.t;
  graph : Cgsim.Serialized.t;
}

let kinds () =
  List.map
    (fun (app, reps, count) ->
      let h = Inputs.by_name app in
      { inp = Inputs.make h ~reps; graph = h.Apps.Harness.graph () }, count)
    Frozen.pool_mix

let order rng mix ~n =
  let per100 = Array.of_list (List.concat_map (fun (k, count) -> List.init count (fun _ -> k)) mix) in
  let a = Array.init n (fun i -> per100.(i mod Array.length per100)) in
  Util.shuffle rng a;
  a

type round = {
  wall_ns : float;
  bytes : int;
  service_ns : float array;  (* I/O build, run, reset and hand-off *)
  queue_ns : float array;  (* submit to start on a domain *)
  submit_ns : float array;
}

(* Submit every request, await all.  Outputs are compared with the
   golden output on the completing domain, as each request finishes, so
   no output is kept. *)
let round r pool (reqs : kind array) =
  let n = Array.length reqs in
  let contents = Array.make n (fun () -> []) in
  let service = Array.make n 0.0 and queue = Array.make n 0.0 and submit = Array.make n 0.0 in
  let submitted_at = Array.make n 0.0 and started_at = Array.make n 0.0 in
  let bad = Atomic.make 0 in
  let first_bad = Atomic.make "" in
  let req0 = Spans.requests n in
  let t_start = Util.now_ns () in
  let handles =
    Array.mapi
      (fun i k ->
        let sid = Spans.fresh () and req = req0 + i in
        let t0 = Util.now_ns () in
        let io _ =
          started_at.(i) <- Util.now_ns ();
          let sinks, c = k.inp.Inputs.app.Apps.Harness.make_sinks () in
          contents.(i) <- c;
          k.inp.Inputs.sources (), sinks
        in
        let on_complete (res : Cgsim.Pool.request_result) =
          let t_done = Util.now_ns () in
          let ok =
            match res.Cgsim.Pool.outcome with
            | Cgsim.Runtime.Completed _ when not res.Cgsim.Pool.shed ->
              Inputs.matches_golden k.inp (contents.(i) ())
            | _ -> false
          in
          contents.(i) <- (fun () -> []);
          if not ok then begin
            Atomic.incr bad;
            ignore
              (Atomic.compare_and_set first_bad ""
                 (Printf.sprintf "%s: %s" k.inp.Inputs.app.Apps.Harness.name
                    (if res.Cgsim.Pool.shed then "shed"
                     else Cgsim.Runtime.outcome_label res.Cgsim.Pool.outcome)))
          end;
          (* The pool's own req_wall_ns comes from a microsecond
             clock; these come from the benchmark's nanosecond one. *)
          service.(i) <- t_done -. started_at.(i);
          queue.(i) <- started_at.(i) -. submitted_at.(i);
          Spans.record ~parent:sid ~req "pool.on_complete" ~t0:t_done ~t1:(Util.now_ns ());
          Spans.record ~sid ~req "pool.request" ~t0 ~t1:(Util.now_ns ())
        in
        (* Written before submit so the completing domain reads it after
           the pool's own hand-off. *)
        submitted_at.(i) <- t0;
        let h = Cgsim.Pool.submit pool ~io ~on_complete k.graph in
        let t1 = Util.now_ns () in
        submit.(i) <- t1 -. t0;
        Spans.record ~parent:sid ~req "pool.submit" ~t0 ~t1;
        h)
      reqs
  in
  Array.iter (fun h -> ignore (Cgsim.Pool.await h : Cgsim.Pool.request_result)) handles;
  let wall_ns = Util.now_ns () -. t_start in
  Report.attempt r n;
  if Atomic.get bad > 0 then
    Report.fail r ~n:(Atomic.get bad) "pool_mix: first failure %s" (Atomic.get first_bad);
  {
    wall_ns;
    bytes = Array.fold_left (fun acc k -> acc + k.inp.Inputs.bytes) 0 reqs;
    service_ns = service;
    queue_ns = queue;
    submit_ns = submit;
  }

(* From Pool.create to the first completed request of each graph,
   compiles included: the graphs are built afresh, and the compile cache
   is keyed on the graph value, so they miss it while the entries of
   the measured pool stay.  Every sample starts from a full major GC:
   otherwise the major GC's phase moved the median by half between
   runs. *)
let setup_once r mix =
  let fresh =
    Array.of_list (List.map (fun (k, _) -> { k with graph = k.inp.Inputs.app.Apps.Harness.graph () }) mix)
  in
  Gc.full_major ();
  let t0 = Util.now_ns () in
  let pool = Cgsim.Pool.create ~domains:Frozen.pool_domains () in
  ignore (round r pool fresh : round);
  let dt = Util.now_ns () -. t0 in
  Cgsim.Pool.shutdown pool;
  dt

let counter (snap : Obs.Metrics.snapshot) name =
  match List.find_opt (fun c -> String.equal c.Obs.Metrics.c_name name) snap.Obs.Metrics.counters with
  | Some c -> c.Obs.Metrics.total
  | None -> 0.0

let rps (rd : round) = float_of_int (Array.length rd.service_ns) /. (rd.wall_ns /. 1e9)

let run (ctx : Ctx.t) r =
  let size = ctx.Ctx.size in
  let mix = kinds () in
  let rng = Workloads.Prng.create ~seed:ctx.Ctx.seed in
  let pool = Cgsim.Pool.create ~domains:Frozen.pool_domains () in
  let rounds = ref [] and setups = Util.Samples.create () in
  (* Set-up is sampled a few times up front and once after every round,
     so that the samples spread over the run like the rounds do. *)
  let sample () = Util.Samples.add setups (setup_once r mix) in
  Fun.protect
    ~finally:(fun () -> Cgsim.Pool.shutdown pool)
    (fun () ->
      ignore (round r pool (order rng mix ~n:(size.Frozen.pool_round / 10)) : round);
      ignore (setup_once r mix : float);
      for _ = 1 to size.Frozen.pool_setups do
        sample ()
      done;
      Ctx.rounds ctx (fun _ ->
          rounds := round r pool (order rng mix ~n:size.Frozen.pool_round) :: !rounds;
          sample ());
      if ctx.Ctx.traced then begin
        let snap = Cgsim.Pool.metrics pool in
        let c = counter snap in
        let m = Report.metric r in
        let all f = Array.concat (List.map f !rounds) in
        let queue = all (fun rd -> rd.queue_ns) in
        m "pool.submit_us" "us" (Util.median (all (fun rd -> rd.submit_ns)) /. 1e3);
        m "pool.queue_wait_p50_us" "us" (Util.median queue /. 1e3);
        m "pool.queue_wait_p99_us" "us" (Util.quantile queue 0.99 /. 1e3);
        m "pool.steals" "count" (c "pool.steals");
        m "pool.cold_builds" "count" (c "pool.cold");
        m "pool.retries" "count" (c "pool.retries");
        let warm = c "pool.warm_hit" in
        m "pool.warm_hit_ratio" "ratio" (warm /. Float.max 1.0 (warm +. c "pool.cold"));
        m "pool.batched_share" "ratio" (c "pool.batched" /. Float.max 1.0 (c "pool.outcome:completed"))
      end);
  (* The peak includes the set-up samples' pools: two more domains, whose
     memory the runtime keeps after they are joined. *)
  let rss = Util.peak_rss_mb "self" in
  if ctx.Ctx.traced then begin
    (* The same rounds on one domain: the 2-versus-1 scaling. *)
    let one = Cgsim.Pool.create ~domains:1 () in
    let rps1 =
      Fun.protect
        ~finally:(fun () -> Cgsim.Pool.shutdown one)
        (fun () ->
          List.map
            (fun _ -> rps (round r one (order rng mix ~n:size.Frozen.pool_round)))
            !rounds)
    in
    let rps1 = Util.median (Array.of_list rps1) in
    let rps2 = Util.median (Array.of_list (List.map rps !rounds)) in
    Report.metric r "pool.rps_1domain" "1/s" rps1;
    Report.metric r "pool.scaling_2v1" "ratio" (rps2 /. rps1)
  end;
  let rounds = Array.of_list !rounds in
  let m = Report.metric r in
  Report.setup r (Util.Samples.to_array setups);
  m "peak_rss_mb" "MB" rss;
  m "payload_MBps" "MB/s"
    (Util.fast_rate (Array.map (fun rd -> float_of_int rd.bytes /. (rd.wall_ns /. 1e9) /. 1e6) rounds));
  m "latency_p50_us" "us" (Util.fast_time (Array.map (fun rd -> Util.median rd.service_ns) rounds) /. 1e3);
  Report.extra r "pool_rps" (Obs.Json.Num (Util.fast_rate (Array.map rps rounds)));
  Report.extra r "rounds"
    (Obs.Json.Obj [ "rps", Obs.Json.Arr (Array.to_list (Array.map (fun rd -> Obs.Json.Num (rps rd)) rounds)) ])

(* The Runtime layer alone, in a sequential loop at pool_mix request
   sizes: compile, new_instance, reset and run, each timed per app. *)
let runtime_layer (ctx : Ctx.t) r =
  let n = ctx.Ctx.size.Frozen.runtime_loop in
  List.iter
    (fun ((k : kind), _) ->
      let app = k.inp.Inputs.app.Apps.Harness.name in
      let name op = Printf.sprintf "runtime.%s:%s" op app in
      let compiled = ref (Cgsim.Runtime.compile k.graph) in
      for _ = 1 to max 1 (n / 10) do
        compiled := Spans.wrap (name "compile") (fun () -> Cgsim.Runtime.compile k.graph)
      done;
      let inst = ref (Cgsim.Runtime.new_instance !compiled) in
      for _ = 1 to max 1 (n / 4) do
        inst := Spans.wrap (name "new_instance") (fun () -> Cgsim.Runtime.new_instance !compiled)
      done;
      for i = 1 to n do
        if i > 1 then Spans.wrap (name "reset") (fun () -> Cgsim.Runtime.reset !inst);
        let sinks, contents = k.inp.Inputs.app.Apps.Harness.make_sinks () in
        let sources = k.inp.Inputs.sources () in
        let outcome = Spans.wrap (name "run") (fun () -> Cgsim.Runtime.run !inst ~sources ~sinks) in
        Report.attempt r 1;
        match outcome with
        | Cgsim.Runtime.Completed _ when Inputs.matches_golden k.inp (contents ()) -> ()
        | o -> Report.fail r "runtime loop %s: %s" app (Cgsim.Runtime.outcome_label o)
      done;
      List.iter
        (fun op ->
          Report.metric r
            (Printf.sprintf "runtime.%s_us.%s" op app)
            "us"
            (Util.median (Spans.durations (name op)) /. 1e3))
        [ "compile"; "new_instance"; "reset"; "run" ])
    (kinds ())
