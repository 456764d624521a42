type request_result = {
  req_id : int;
  domain : int;
  outcome : Runtime.outcome;
  attempts : int;
  shed : bool;
  req_wall_ns : float;
  req_latency_ns : float;
      (* without a scheduled arrival: service time (= req_wall_ns); with
         one (submit ~not_before_ns / run ~arrivals): completion minus
         scheduled arrival, so time spent waiting for a free domain
         counts — the latency a client sees *)
}

type outcome_counts = {
  n_completed : int;
  n_deadline : int;
  n_cancelled : int;
  n_failed : int;
  n_shed : int;
  n_retried_ok : int;  (* completed on a retry attempt *)
}

let count_outcomes results =
  Array.fold_left
    (fun c r ->
      if r.shed then { c with n_shed = c.n_shed + 1 }
      else
        match r.outcome with
        | Runtime.Completed _ ->
          {
            c with
            n_completed = c.n_completed + 1;
            n_retried_ok = (c.n_retried_ok + if r.attempts > 1 then 1 else 0);
          }
        | Runtime.Deadline_exceeded _ -> { c with n_deadline = c.n_deadline + 1 }
        | Runtime.Cancelled -> { c with n_cancelled = c.n_cancelled + 1 }
        | Runtime.Kernel_failed _ -> { c with n_failed = c.n_failed + 1 })
    { n_completed = 0; n_deadline = 0; n_cancelled = 0; n_failed = 0; n_shed = 0; n_retried_ok = 0 }
    results

(* Splitmix-style seeded stream for backoff jitter: deterministic per
   (pool seed, request id), no global Random state. *)
let jitter_state ~seed ~req =
  ref (Int64.logxor (Int64.of_int ((seed * 0x9e3779b9) + 1)) (Int64.of_int ((req + 1) * 0x85ebca6b)))

let next_unit_float st =
  let x = !st in
  let x = Int64.logxor x (Int64.shift_left x 13) in
  let x = Int64.logxor x (Int64.shift_right_logical x 7) in
  let x = Int64.logxor x (Int64.shift_left x 17) in
  st := x;
  let bits = Int64.to_int (Int64.shift_right_logical (Int64.mul x 0x2545F4914F6CDD1DL) 11) in
  float_of_int (bits land 0xFFFFF) /. float_of_int 0x100000

(* ------------------------------------------------------------------ *)
(* Warm-instance cache                                                 *)
(* ------------------------------------------------------------------ *)

(* One pool's compiled graphs and their reusable instances, keyed by
   graph identity alone: the compile-time config is the pool's, and the
   per-request values a submit may set (deadline, seed) are not baked
   into an instance.  Physical identity, because recompiling a
   structurally equal Serialized.t is exactly what the cache exists to
   avoid, so callers hold on to one.  Bounded two ways: at most
   [cache_entries] graphs, least recently used evicted, and at most
   [instances_per_entry] idle instances parked per entry — a poisoned
   instance (reset failed) is simply dropped, which is the eviction path
   for broken state. *)

type cache_entry = {
  e_graph : Serialized.t;
  e_compiled : Runtime.compiled;
  e_lock : Mutex.t;
  mutable e_free : Runtime.t list;  (* idle reset instances, under e_lock *)
}

let cache_entries = 8

let instances_per_entry = 8

(* ------------------------------------------------------------------ *)
(* The persistent pool                                                 *)
(* ------------------------------------------------------------------ *)

type handle = {
  h_id : int;
  h_lock : Mutex.t;
  h_cond : Condition.t;
  mutable h_result : request_result option;
  mutable h_cancelled : bool;  (* cooperative cancel requested *)
  mutable h_running : Runtime.t option;  (* instance executing this request *)
}

type pending = {
  pr_handle : handle;
  pr_entry : cache_entry;
  pr_deadline_ns : float option;  (* None: the pool config's *)
  pr_seed : int;
  pr_arrival : float option;  (* absolute Clock.now_ns instant *)
  pr_io : int -> Io.source list * Io.sink list;
  pr_on_complete : (request_result -> unit) option;
}

type t = {
  p_config : Run_config.t;
  p_domains : int;
  p_lock : Mutex.t;
  p_cond : Condition.t;
  p_pending : pending Queue.t;  (* submit order, under p_lock *)
  p_cache_lock : Mutex.t;
  mutable p_cache : cache_entry list;  (* most recently used first *)
  mutable p_stop : bool;  (* no new submits; workers drain then exit *)
  mutable p_next_id : int;
  mutable p_joined : bool;
  mutable p_workers : unit Domain.t array;
  p_t0 : float;
  p_executing : int Atomic.t;
  p_served : int Atomic.t;
  p_retries : int Atomic.t;
  p_warm_hits : int Atomic.t;
  p_cold_builds : int Atomic.t;
  (* final-outcome tallies, keyed like Runtime.outcome_label *)
  p_completed : int Atomic.t;
  p_deadline : int Atomic.t;  (* wall-clock deadline *)
  p_max_steps : int Atomic.t;  (* fuel exhausted *)
  p_cancelled : int Atomic.t;
  p_failed : int Atomic.t;
  p_callback_failed : int Atomic.t;  (* on_complete raised *)
  p_shed : int Atomic.t;
  p_retried_ok : int Atomic.t;
  p_consec_failures : int Atomic.t;
  p_breaker_tripped : bool Atomic.t;
  p_breaker_flight : Obs.Flight.entry list ref;
  (* one latency recorder per domain: recording stays lock-free on the
     serving path, merging is the cross-domain HDR aggregation story *)
  p_lat_hdrs : Obs.Hdr.t array;
}

let handle_id h = h.h_id

let breaker_open pool =
  match pool.p_config.Run_config.breaker_threshold with
  | None -> false
  | Some th -> Atomic.get pool.p_consec_failures >= th

let pending pool =
  Mutex.lock pool.p_lock;
  let queued = Queue.length pool.p_pending in
  Mutex.unlock pool.p_lock;
  queued + Atomic.get pool.p_executing

let served pool = Atomic.get pool.p_served

(* Publish a request's final result: wake awaiters, bump the tallies,
   run the completion callback (on this worker domain). *)
let record_result pool (p : pending) (res : request_result) =
  let h = p.pr_handle in
  Mutex.lock h.h_lock;
  h.h_result <- Some res;
  h.h_running <- None;
  Condition.broadcast h.h_cond;
  Mutex.unlock h.h_lock;
  (if res.shed then Atomic.incr pool.p_shed
   else
     match res.outcome with
     | Runtime.Completed _ ->
       Atomic.incr pool.p_completed;
       if res.attempts > 1 then Atomic.incr pool.p_retried_ok
     | Runtime.Deadline_exceeded pr ->
       (match pr.Runtime.p_reason with
        | `Wall_clock -> Atomic.incr pool.p_deadline
        | `Max_steps -> Atomic.incr pool.p_max_steps)
     | Runtime.Cancelled -> Atomic.incr pool.p_cancelled
     | Runtime.Kernel_failed _ -> Atomic.incr pool.p_failed);
  Atomic.incr pool.p_served;
  Atomic.decr pool.p_executing;
  match p.pr_on_complete with
  | None -> ()
  | Some f -> (
    (* The result is already published, so a raising callback loses only
       its own work; raising on would kill this worker domain. *)
    try f res
    with _ ->
      Atomic.incr pool.p_callback_failed;
      Obs.Flight.note Obs.Flight.Note ~arg:h.h_id "pool.callback_failed")

(* Instance acquisition: pop a reset instance from the entry, or build a
   fresh one (the cold path, which is how an entry fills).  Release
   resets and parks the instance for the next request; an instance whose
   reset fails is dropped, never reused. *)
let acquire pool (p : pending) =
  let e = p.pr_entry in
  Mutex.lock e.e_lock;
  match e.e_free with
  | inst :: rest ->
    e.e_free <- rest;
    Mutex.unlock e.e_lock;
    Atomic.incr pool.p_warm_hits;
    if !Obs.Trace.on then Obs.Trace.incr_metric "pool.warm_hit";
    inst
  | [] ->
    Mutex.unlock e.e_lock;
    Atomic.incr pool.p_cold_builds;
    Runtime.new_instance e.e_compiled

let release (p : pending) inst =
  let e = p.pr_entry in
  match Runtime.reset inst with
  | () ->
    Mutex.lock e.e_lock;
    if List.length e.e_free < instances_per_entry then e.e_free <- inst :: e.e_free;
    Mutex.unlock e.e_lock
  | exception _ -> () (* poisoned: evict by dropping *)

(* First domain to observe the open circuit dumps its flight window:
   the events leading up to the failure streak. *)
let note_breaker_trip pool gname =
  if not (Atomic.exchange pool.p_breaker_tripped true) then begin
    Obs.Flight.note Obs.Flight.Breaker gname;
    pool.p_breaker_flight := Obs.Flight.snapshot ();
    if !Obs.Trace.on then Obs.Trace.instant ~track:"pool" ~cat:"pool" "breaker-open"
  end

let shed_result ~domain (p : pending) =
  {
    req_id = p.pr_handle.h_id;
    domain;
    outcome = Runtime.Cancelled;
    attempts = 0;
    shed = true;
    req_wall_ns = 0.;
    req_latency_ns = 0.;
  }

let execute pool ~domain (p : pending) =
  let r = p.pr_handle.h_id in
  let config = pool.p_config in
  let gname = p.pr_entry.e_graph.Serialized.gname in
  if p.pr_handle.h_cancelled then
    (* Cancelled while queued: never executes, zero attempts. *)
    record_result pool p
      { req_id = r; domain; outcome = Runtime.Cancelled; attempts = 0; shed = false;
        req_wall_ns = 0.; req_latency_ns = 0. }
  else if breaker_open pool then begin
    note_breaker_trip pool gname;
    if !Obs.Trace.on then Obs.Trace.incr_metric "pool.shed";
    record_result pool p (shed_result ~domain p)
  end
  else begin
    (* Open loop: wait out this request's scheduled arrival, then count
       latency from the arrival instant, so any backlog the pool built
       up is charged to the requests that queued behind it. *)
    let arrival_abs =
      match p.pr_arrival with
      | Some target ->
        let wait = target -. Obs.Clock.now_ns () in
        if wait > 0.0 then Unix.sleepf (wait /. 1e9);
        target
      | None -> 0.0
    in
    let t0 = Obs.Clock.now_ns () in
    Obs.Flight.note Obs.Flight.Request ~arg:r gname;
    let jitter = jitter_state ~seed:p.pr_seed ~req:r in
    let prev_backoff = ref config.Run_config.retry_base_ns in
    let backoff () =
      let base = config.Run_config.retry_base_ns in
      if base > 0. then begin
        (* Decorrelated jitter: sleep in [base, min(cap, 3*prev)],
           uniformly — retries from concurrent domains desynchronise
           instead of hammering in lockstep. *)
        let hi = Float.min config.Run_config.retry_cap_ns (Float.max base (!prev_backoff *. 3.)) in
        let sleep = base +. (next_unit_float jitter *. (hi -. base)) in
        prev_backoff := sleep;
        Unix.sleepf (sleep /. 1e9)
      end
    in
    let run_once attempt =
      let a0 = Obs.Clock.now_ns () in
      let outcome =
        try
          let t = acquire pool p in
          (* Expose the instance to [cancel] for exactly the run window;
             cleared before release so a late cancel can never reach an
             instance parked for (or serving) another request. *)
          let h = p.pr_handle in
          Mutex.lock h.h_lock;
          h.h_running <- Some t;
          let cancelled = h.h_cancelled in
          Mutex.unlock h.h_lock;
          if cancelled then Runtime.cancel t;
          let outcome =
            Fun.protect
              ~finally:(fun () ->
                Mutex.lock h.h_lock;
                h.h_running <- None;
                Mutex.unlock h.h_lock)
              (fun () ->
                let sources, sinks = p.pr_io r in
                Runtime.run ?deadline_ns:p.pr_deadline_ns t ~sources ~sinks)
          in
          (* Reset and park the instance for the next request; a raise
             above leaves it un-released (dropped), never reused. *)
          release p t;
          outcome
        with exn ->
          (* Wiring/instantiation raises (caller bugs) are captured so
             the pool still runs every request to completion. *)
          Runtime.Kernel_failed
            (Runtime.failure_of ~graph:gname ~who:"<harness>" ~src:None ~backtrace:"" exn)
      in
      let dt = Obs.Clock.now_ns () -. a0 in
      if !Obs.Trace.on then begin
        let track = Printf.sprintf "serve-domain-%d" domain in
        Obs.Trace.span ~track ~cat:"pool" ~pid:3
          ~name:
            (Printf.sprintf "req-%d%s" r
               (if attempt > 1 then Printf.sprintf " try-%d" attempt else ""))
          ~ts_ns:a0 ~dur_ns:dt ();
        Obs.Trace.observe_ns "pool.request" dt;
        Obs.Trace.incr_metric ("pool.outcome:" ^ Runtime.outcome_label outcome);
        (match outcome with
         | Runtime.Deadline_exceeded _ -> Obs.Trace.incr_metric "pool.deadline"
         | _ -> ())
      end;
      outcome
    in
    let rec supervise attempt =
      let outcome = run_once attempt in
      match outcome with
      | Runtime.Completed _ | Runtime.Cancelled -> outcome, attempt
      | Runtime.Deadline_exceeded _ | Runtime.Kernel_failed _ ->
        if p.pr_handle.h_cancelled then Runtime.Cancelled, attempt
        else if attempt <= config.Run_config.retries then begin
          Atomic.incr pool.p_retries;
          Obs.Flight.note Obs.Flight.Retry ~arg:attempt gname;
          if !Obs.Trace.on then Obs.Trace.incr_metric "pool.retry";
          backoff ();
          supervise (attempt + 1)
        end
        else outcome, attempt
    in
    let outcome, attempts = supervise 1 in
    (match outcome with
     | Runtime.Completed _ -> Atomic.set pool.p_consec_failures 0
     | Runtime.Cancelled -> ()
     | Runtime.Deadline_exceeded _ | Runtime.Kernel_failed _ ->
       Atomic.incr pool.p_consec_failures);
    let finished = Obs.Clock.now_ns () in
    let dt = finished -. t0 in
    let latency =
      match p.pr_arrival with
      | Some _ -> Float.max 0.0 (finished -. arrival_abs)
      | None -> dt
    in
    Obs.Hdr.record pool.p_lat_hdrs.(domain) latency;
    record_result pool p
      { req_id = r; domain; outcome; attempts; shed = false; req_wall_ns = dt;
        req_latency_ns = latency }
  end

let worker pool domain () =
  Obs.Trace.set_thread_label (Printf.sprintf "serve-domain-%d" domain);
  let rec loop () =
    Mutex.lock pool.p_lock;
    (* Every domain takes the oldest queued request: one FIFO balances
       skewed request costs by construction. *)
    let rec take () =
      match Queue.take_opt pool.p_pending with
      | Some w ->
        Atomic.incr pool.p_executing;
        Mutex.unlock pool.p_lock;
        Some w
      | None ->
        if pool.p_stop then begin
          Mutex.unlock pool.p_lock;
          None
        end
        else begin
          Condition.wait pool.p_cond pool.p_lock;
          take ()
        end
    in
    match take () with
    | None -> ()
    | Some p ->
      execute pool ~domain p;
      loop ()
  in
  loop ()

(* A pool with no workers yet: [start] spawns them. *)
let make ~config ~domains =
  {
    p_config = config;
    p_domains = domains;
    p_lock = Mutex.create ();
    p_cond = Condition.create ();
    p_pending = Queue.create ();
    p_cache_lock = Mutex.create ();
    p_cache = [];
    p_stop = false;
    p_next_id = 0;
    p_joined = false;
    p_workers = [||];
    p_t0 = Obs.Clock.now_ns ();
    p_executing = Atomic.make 0;
    p_served = Atomic.make 0;
    p_retries = Atomic.make 0;
    p_warm_hits = Atomic.make 0;
    p_cold_builds = Atomic.make 0;
    p_completed = Atomic.make 0;
    p_deadline = Atomic.make 0;
    p_max_steps = Atomic.make 0;
    p_cancelled = Atomic.make 0;
    p_failed = Atomic.make 0;
    p_callback_failed = Atomic.make 0;
    p_shed = Atomic.make 0;
    p_retried_ok = Atomic.make 0;
    p_consec_failures = Atomic.make 0;
    p_breaker_tripped = Atomic.make false;
    p_breaker_flight = ref [];
    p_lat_hdrs = Array.init domains (fun _ -> Obs.Hdr.create ());
  }

let start pool =
  pool.p_workers <- Array.init pool.p_domains (fun d -> Domain.spawn (worker pool d))

let create ?(config = Run_config.default) ~domains () =
  if domains <= 0 then invalid_arg "cgsim: Pool.create needs a positive domain count";
  let pool = make ~config ~domains in
  start pool;
  pool

(* Find-or-compile under the cache lock.  Compilation (validation +
   the one pre-flight lint whose verdict the entry carries) happens at
   most once per cached graph; warm hits and retries never re-lint.
   May raise exactly as [Runtime.compile] does. *)
let acquire_entry pool g =
  Mutex.protect pool.p_cache_lock (fun () ->
      match List.find_opt (fun e -> e.e_graph == g) pool.p_cache with
      | Some e ->
        (match pool.p_cache with
         | first :: _ when first == e -> ()
         | cache -> pool.p_cache <- e :: List.filter (fun x -> x != e) cache);
        e
      | None ->
        let e =
          {
            e_graph = g;
            e_compiled = Runtime.compile ~config:pool.p_config g;
            e_lock = Mutex.create ();
            e_free = [];
          }
        in
        (* Evict the least recently used entry (and its idle instances). *)
        pool.p_cache <- e :: List.filteri (fun i _ -> i < cache_entries - 1) pool.p_cache;
        e)

let submit pool ?deadline_ns ?seed ?not_before_ns ?on_complete ~io (g : Serialized.t) =
  (* Compile (or fetch the cached artifact) before queueing: compile
     errors are caller bugs and raise here, never from a worker. *)
  let entry = acquire_entry pool g in
  Mutex.lock pool.p_lock;
  if pool.p_stop then begin
    Mutex.unlock pool.p_lock;
    invalid_arg "cgsim: Pool.submit after shutdown"
  end;
  let id = pool.p_next_id in
  pool.p_next_id <- id + 1;
  let h =
    {
      h_id = id;
      h_lock = Mutex.create ();
      h_cond = Condition.create ();
      h_result = None;
      h_cancelled = false;
      h_running = None;
    }
  in
  let p =
    {
      pr_handle = h;
      pr_entry = entry;
      pr_deadline_ns = deadline_ns;
      pr_seed = Option.value seed ~default:pool.p_config.Run_config.seed;
      pr_arrival = not_before_ns;
      pr_io = io;
      pr_on_complete = on_complete;
    }
  in
  Queue.push p pool.p_pending;
  Condition.signal pool.p_cond;
  Mutex.unlock pool.p_lock;
  h

let await h =
  Mutex.lock h.h_lock;
  let rec wait () =
    match h.h_result with
    | Some r ->
      Mutex.unlock h.h_lock;
      r
    | None ->
      Condition.wait h.h_cond h.h_lock;
      wait ()
  in
  wait ()

let cancel h =
  Mutex.lock h.h_lock;
  h.h_cancelled <- true;
  (match h.h_running with Some inst -> Runtime.cancel inst | None -> ());
  Mutex.unlock h.h_lock

let metrics pool =
  (* Fold the per-domain recorders and the outcome tallies into one
     metrics registry, under the "family.parts:instance" key convention
     Obs.Prom renders from.  Safe while requests are in flight (the HDR
     merge reads live buckets; counts may trail by a request). *)
  let m = Obs.Metrics.create () in
  Array.iter (fun hdr -> Obs.Metrics.merge_hdr m "pool.request" hdr) pool.p_lat_hdrs;
  let addc name v = if v > 0 then Obs.Metrics.add m name (float_of_int v) in
  addc "pool.outcome:completed" (Atomic.get pool.p_completed);
  addc "pool.outcome:deadline" (Atomic.get pool.p_deadline);
  addc "pool.outcome:max-steps" (Atomic.get pool.p_max_steps);
  addc "pool.outcome:cancelled" (Atomic.get pool.p_cancelled);
  addc "pool.outcome:failed" (Atomic.get pool.p_failed);
  addc "pool.callback_failed" (Atomic.get pool.p_callback_failed);
  addc "pool.shed" (Atomic.get pool.p_shed);
  addc "pool.retries" (Atomic.get pool.p_retries);
  addc "pool.warm_hit" (Atomic.get pool.p_warm_hits);
  addc "pool.cold" (Atomic.get pool.p_cold_builds);
  Obs.Metrics.high_water m "pool.domains" (float_of_int pool.p_domains);
  Obs.Metrics.snapshot m

let shutdown pool =
  Mutex.lock pool.p_lock;
  if pool.p_joined then Mutex.unlock pool.p_lock
  else begin
    pool.p_stop <- true;
    pool.p_joined <- true;
    Condition.broadcast pool.p_cond;
    Mutex.unlock pool.p_lock;
    Array.iter Domain.join pool.p_workers
  end

(* ------------------------------------------------------------------ *)
(* Batch runs                                                          *)
(* ------------------------------------------------------------------ *)

type stats = {
  domains : int;
  requests : int;
  results : request_result array;
  retries : int;
  warm_hits : int;
  cold_builds : int;
  breaker_tripped : bool;
  counts : outcome_counts;
  wall_ns : float;
  metrics : Obs.Metrics.snapshot;
  breaker_flight : Obs.Flight.entry list;
}

let run ?(config = Run_config.default) ?arrivals ~domains ~requests ~io (g : Serialized.t) =
  if domains <= 0 then invalid_arg "cgsim: Pool.run needs a positive domain count";
  if requests <= 0 then invalid_arg "cgsim: Pool.run needs a positive request count";
  (match arrivals with
   | Some a when Array.length a <> requests ->
     invalid_arg "cgsim: Pool.run ~arrivals must have one offset per request"
   | Some _ | None -> ());
  (* Queue every request before any worker exists: a compile error
     raises out of the first submit with no domain to join, and the
     domains start together on the head of the queue. *)
  let pool = make ~config ~domains in
  let t0 = pool.p_t0 in
  let handles =
    Array.init requests (fun r ->
        let not_before_ns = Option.map (fun a -> t0 +. a.(r)) arrivals in
        submit pool ?not_before_ns ~io g)
  in
  start pool;
  let results = Array.map await handles in
  shutdown pool;
  let wall_ns = Obs.Clock.now_ns () -. t0 in
  {
    domains;
    requests;
    results;
    retries = Atomic.get pool.p_retries;
    warm_hits = Atomic.get pool.p_warm_hits;
    cold_builds = Atomic.get pool.p_cold_builds;
    breaker_tripped = Atomic.get pool.p_breaker_tripped;
    counts = count_outcomes results;
    wall_ns;
    metrics = metrics pool;
    breaker_flight = !(pool.p_breaker_flight);
  }

let metrics_exposition s = Obs.Prom.of_snapshot s.metrics
