(* serve_remote: the socket path.  A `cgx serve --domains 1` child on a
   Unix socket in the working directory, one connection, at most two
   load threads (a sender domain and this one as receiver).  Every
   request is bitonic at [Frozen.serve_reps]: the kernel is cheap, so
   the time goes to Serve.Wire, the socket, the server's reader and the
   pool hand-off.

   Per round: phase 1, closed loop with window 1 (RTT); phase 2, closed
   loop with window 16 (capacity and latency).  The traced run adds phase 3, an
   open-loop Poisson schedule timed from each request's scheduled send,
   and the Wire codec timings. *)

exception Lost of string

let cgx_exe () =
  List.fold_left Filename.concat (Filename.dirname Sys.executable_name) [ ".."; "bin"; "cgx.exe" ]

type daemon = {
  pid : int;
  path : string;
}

let spawned = ref 0

let rec waitpid_nohang pid =
  try Unix.waitpid [ Unix.WNOHANG ] pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_nohang pid

let spawn () =
  incr spawned;
  let path = Printf.sprintf ".cgx-bench-%d-%d.sock" (Unix.getpid ()) !spawned in
  let exe = cgx_exe () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let argv = [| exe; "serve"; "--listen"; "unix:" ^ path; "--domains"; "1" |] in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close devnull)
      (fun () -> Unix.create_process exe argv devnull Unix.stderr Unix.stderr)
  in
  { pid; path }

(* Poll-connect every 50 us: a coarser step (the client's own backoff,
   or even 1 ms) would quantize the set-up time into a few values. *)
let connect d =
  let deadline = Util.now_ns () +. 30e9 in
  let rec go () =
    match Serve.Client.connect (Serve.Addr.Unix_path d.path) with
    | c -> c
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
      (match waitpid_nohang d.pid with
       | 0, _ -> ()
       | _ -> raise (Lost "cgx serve exited before accepting connections"));
      if Util.now_ns () > deadline then raise (Lost "cgx serve never accepted a connection");
      Unix.sleepf 0.00005;
      go ()
  in
  go ()

(* SIGTERM drains the daemon; only exit status 0 is a clean drain. *)
let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Util.now_ns () +. 30e9 in
  let rec wait () =
    match waitpid_nohang d.pid with
    | 0, _ when Util.now_ns () < deadline ->
      Unix.sleepf 0.002;
      wait ()
    | 0, _ ->
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] d.pid);
      Error "cgx serve did not exit within 30 s of SIGTERM"
    | _, Unix.WEXITED 0 -> Ok ()
    | _, Unix.WEXITED n -> Error (Printf.sprintf "cgx serve exited with status %d" n)
    | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
      Error (Printf.sprintf "cgx serve ended by signal %d" s)
  in
  let r = wait () in
  (try Unix.unlink d.path with Unix.Unix_error _ -> ());
  r

(* One connection plus the id its next request will get: the client
   numbers requests per connection from 0. *)
type conn = {
  c : Serve.Client.t;
  mutable next_id : int;
}

let graph = "bitonic"

let check_reply (inp : Inputs.t) (reply : Serve.Wire.reply) =
  match reply.Serve.Wire.p_body with
  | Serve.Wire.Result ({ Serve.Wire.rp_outcome = Serve.Wire.Completed (primary :: _); _ } as rr) ->
    if Inputs.matches_golden inp primary then Ok rr else Error "wrong output"
  | Serve.Wire.Result rr -> Error (Serve.Wire.run_outcome_label rr.Serve.Wire.rp_outcome)
  | Serve.Wire.Error (code, msg) -> Error (Serve.Wire.error_code_label code ^ ": " ^ msg)
  | Serve.Wire.Metrics_text _ | Serve.Wire.Pong -> Error "unexpected reply type"

let recv conn =
  match Serve.Client.recv conn.c with
  | Ok reply -> reply
  | Error m -> raise (Lost ("connection lost: " ^ m))

let send conn inputs =
  let id = Serve.Client.send_run conn.c ~graph inputs in
  conn.next_id <- id + 1;
  id

type acc = {
  rtt : Util.Samples.t;  (* phase 1 round trips, ns *)
  outside : Util.Samples.t;  (* RTT - rp_server_ns *)
  wait : Util.Samples.t;  (* rp_server_ns - rp_run_ns *)
  run : Util.Samples.t;  (* rp_run_ns *)
  send_ns : Util.Samples.t;
  rtt_p50 : Util.Samples.t;  (* phase 1 median RTT, per round *)
  latency_p50 : Util.Samples.t;  (* phase 2 median latency, per round *)
  capacity : Util.Samples.t;  (* phase 2 replies/s, per round *)
  mutable last_reply : Serve.Wire.reply option;
}

let new_acc () =
  let s = Util.Samples.create in
  {
    rtt = s ();
    outside = s ();
    wait = s ();
    run = s ();
    send_ns = s ();
    rtt_p50 = s ();
    latency_p50 = s ();
    capacity = s ();
    last_reply = None;
  }

(* Phase 1: one request in flight at a time. *)
let window1 r acc conn inp inputs ~n ~record =
  for _ = 1 to n do
    let sid = Spans.fresh () and req = Spans.requests 1 in
    let t0 = Util.now_ns () in
    let id = send conn inputs in
    let t_sent = Util.now_ns () in
    let reply = recv conn in
    let t1 = Util.now_ns () in
    Spans.record ~parent:sid ~req "client.send_run" ~t0 ~t1:t_sent;
    Spans.record ~parent:sid ~req "client.recv" ~t0:t_sent ~t1;
    Spans.record ~sid ~req "remote.request" ~t0 ~t1;
    Report.attempt r 1;
    match check_reply inp reply with
    | Error e -> Report.fail r "serve_remote request %d: %s" id e
    | Ok rr ->
      acc.last_reply <- Some reply;
      if record then begin
        let rtt = t1 -. t0 in
        Util.Samples.add acc.rtt rtt;
        Util.Samples.add acc.send_ns (t_sent -. t0);
        Util.Samples.add acc.outside (rtt -. rr.Serve.Wire.rp_server_ns);
        Util.Samples.add acc.wait (rr.Serve.Wire.rp_server_ns -. rr.Serve.Wire.rp_run_ns);
        Util.Samples.add acc.run rr.Serve.Wire.rp_run_ns
      end
  done

(* A sender domain and this domain as receiver.  [pace i] runs before
   request [i] is sent (a window slot, or the open-loop schedule);
   [on_reply i t] runs as its reply arrives; [abort] unblocks [pace]
   when the connection is lost. *)
let pipelined r conn inp inputs ~n ~pace ~after_recv ~on_reply ~abort =
  let base = conn.next_id and req0 = Spans.requests n in
  let sender =
    Domain.spawn (fun () ->
        for i = 0 to n - 1 do
          pace i;
          let t0 = Util.now_ns () in
          let id = Serve.Client.send_run conn.c ~graph inputs in
          Spans.record ~req:(req0 + i) "client.send_run" ~t0 ~t1:(Util.now_ns ());
          if id <> base + i then failwith "benchmark: unexpected request id"
        done)
  in
  let lost = ref None in
  (try
     for _ = 1 to n do
       let t0 = Util.now_ns () in
       let reply = recv conn in
       let t1 = Util.now_ns () in
       after_recv ();
       let id = reply.Serve.Wire.p_id in
       Spans.record ~req:(req0 + id - base) "client.recv" ~t0 ~t1;
       Report.attempt r 1;
       match check_reply inp reply with
       | Error e -> Report.fail r "serve_remote request %d: %s" id e
       | Ok _ -> on_reply (id - base) t1
     done
   with Lost m ->
     lost := Some m;
     abort ());
  (match Domain.join sender with
   | () -> ()
   | exception e -> if !lost = None then lost := Some (Printexc.to_string e));
  conn.next_id <- base + n;
  Option.iter (fun m -> raise (Lost m)) !lost

(* Phase 2: up to [Frozen.serve_window] requests in flight; each
   request's latency runs from the moment its window slot frees. *)
let window16 r acc conn inp inputs ~n =
  let slots = Semaphore.Counting.make Frozen.serve_window in
  let t0 = Util.now_ns () in
  let last = ref t0 in
  let sent = Array.make n 0.0 and latency = Array.make n 0.0 in
  pipelined r conn inp inputs ~n
    ~pace:(fun i ->
      Semaphore.Counting.acquire slots;
      sent.(i) <- Util.now_ns ())
    ~after_recv:(fun () -> Semaphore.Counting.release slots)
    ~on_reply:(fun i t ->
      latency.(i) <- t -. sent.(i);
      last := t)
    ~abort:(fun () ->
      for _ = 1 to n do
        Semaphore.Counting.release slots
      done);
  Util.Samples.add acc.latency_p50 (Util.median latency);
  Util.Samples.add acc.capacity (float_of_int n /. ((!last -. t0) /. 1e9))

(* Phase 3: seeded Poisson arrivals at [Frozen.open_rate_rps]; latency
   counts from the scheduled send, so a stalled generator or server
   cannot hide queueing (no coordinated omission). *)
let open_loop r conn inp inputs ~n ~seed =
  let rng = Workloads.Prng.create ~seed:(seed * 7919 + 13) in
  let at = Array.make n 0.0 in
  let t = ref 0.0 in
  for i = 0 to n - 1 do
    let u = Float.max 1e-12 (Workloads.Prng.float_unit rng) in
    t := !t +. (-.Float.log u /. Frozen.open_rate_rps *. 1e9);
    at.(i) <- !t
  done;
  let late = Array.make n 0.0 in
  let latency = Array.make n Float.nan in
  let t0 = Util.now_ns () +. 1e6 in
  pipelined r conn inp inputs ~n
    ~pace:(fun i ->
      let target = t0 +. at.(i) in
      let now = Util.now_ns () in
      if target > now then Unix.sleepf ((target -. now) /. 1e9);
      late.(i) <- Float.max 0.0 (Util.now_ns () -. target))
    ~after_recv:ignore
    ~on_reply:(fun i t -> latency.(i) <- t -. (t0 +. at.(i)))
    ~abort:ignore;
  let latency = Array.of_list (List.filter (fun x -> not (Float.is_nan x)) (Array.to_list latency)) in
  latency, late

(* Sum of the samples of one Prometheus family (all label sets). *)
let prom_total text family =
  List.fold_left
    (fun acc line ->
      let n = String.length family in
      if String.length line > n
         && String.sub line 0 n = family
         && (line.[n] = ' ' || line.[n] = '{')
      then
        match String.rindex_opt line ' ' with
        | Some i -> acc +. float_of_string (String.sub line (i + 1) (String.length line - i - 1))
        | None -> acc
      else acc)
    0.0
    (String.split_on_char '\n' text)

let codec r ~calls inputs reply =
  let req =
    {
      Serve.Wire.q_id = 1;
      q_body =
        Serve.Wire.Run
          { rq_graph = graph; rq_inputs = inputs; rq_deadline_ms = None; rq_seed = None };
    }
  in
  let enc_req = Serve.Wire.encode_request req in
  let enc_reply = Serve.Wire.encode_reply reply in
  let mean_us name f =
    for _ = 1 to calls do
      ignore (Sys.opaque_identity (Spans.wrap name f))
    done;
    Util.mean (Spans.durations name) /. 1e3
  in
  let m = Report.metric r in
  m "wire.req_bytes" "count" (float_of_int (String.length (Serve.Wire.frame enc_req)));
  m "wire.reply_bytes" "count" (float_of_int (String.length (Serve.Wire.frame enc_reply)));
  m "wire.encode_request_us" "us"
    (mean_us "wire.encode_request" (fun () -> ignore (Serve.Wire.encode_request req)));
  m "wire.decode_request_us" "us"
    (mean_us "wire.decode_request" (fun () -> ignore (Serve.Wire.decode_request enc_req)));
  m "wire.encode_reply_us" "us"
    (mean_us "wire.encode_reply" (fun () -> ignore (Serve.Wire.encode_reply reply)));
  m "wire.decode_reply_us" "us"
    (mean_us "wire.decode_reply" (fun () -> ignore (Serve.Wire.decode_reply enc_reply)))

(* From spawning the daemon to the first completed reply, which
   includes compiling the graph on that first request. *)
let setup_once r inp inputs =
  let t0 = Util.now_ns () in
  let d = spawn () in
  match
    let conn = { c = connect d; next_id = 0 } in
    ignore (send conn inputs : int);
    conn, recv conn
  with
  | exception e ->
    ignore (stop d);
    raise e
  | conn, reply ->
    let dt = Util.now_ns () -. t0 in
    Report.attempt r 1;
    (match check_reply inp reply with
     | Ok _ -> ()
     | Error e -> Report.fail r "serve_remote first request: %s" e);
    d, conn, dt

let per_round samples scale =
  Obs.Json.Arr (Array.to_list (Array.map (fun x -> Obs.Json.Num (x /. scale)) (Util.Samples.to_array samples)))

let run (ctx : Ctx.t) r =
  let size = ctx.Ctx.size in
  let inp = Inputs.make (Inputs.by_name graph) ~reps:Frozen.serve_reps in
  let inputs = Inputs.wire_inputs inp in
  let setups = Util.Samples.create () in
  let rec setup k =
    let d, conn, dt = setup_once r inp inputs in
    (* The first spawn also pages in the cgx binary: untimed. *)
    if k > 0 then Util.Samples.add setups dt;
    if k >= size.Frozen.serve_setups then d, conn
    else begin
      Serve.Client.close conn.c;
      (match stop d with Ok () -> () | Error e -> Report.fail r "%s" e);
      setup (k + 1)
    end
  in
  let d, conn = setup 0 in
  let acc = new_acc () in
  let body () =
    (* Until both heaps stop growing, the first seconds of traffic run
       up to half again slower than the rest. *)
    window1 r acc conn inp inputs ~n:size.Frozen.serve_warmup ~record:false;
    window16 r (new_acc ()) conn inp inputs ~n:(10 * size.Frozen.serve_warmup);
    Ctx.rounds ctx (fun _ ->
        window1 r acc conn inp inputs ~n:size.Frozen.serve_window1 ~record:true;
        let all = Util.Samples.to_array acc.rtt in
        let n = size.Frozen.serve_window1 in
        Util.Samples.add acc.rtt_p50 (Util.median (Array.sub all (Array.length all - n) n));
        window16 r acc conn inp inputs ~n:size.Frozen.serve_window16;
        (* One more set-up sample per round, from a second daemon: the
           host has slow spells longer than a burst of set-ups. *)
        let d2, conn2, dt = setup_once r inp inputs in
        Util.Samples.add setups dt;
        Serve.Client.close conn2.c;
        match stop d2 with Ok () -> () | Error e -> Report.fail r "%s" e);
    Report.extra r "rounds"
      (Obs.Json.Obj
         [
           "rtt_p50_us", per_round acc.rtt_p50 1e3;
           "latency_p50_us", per_round acc.latency_p50 1e3;
           "capacity_rps", per_round acc.capacity 1.0;
         ]);
    if ctx.Ctx.traced then begin
      let latency, late = open_loop r conn inp inputs ~n:size.Frozen.serve_open ~seed:ctx.Ctx.seed in
      let m = Report.metric r in
      let open_p50_ms = Util.median latency /. 1e6 in
      let late_p99_ms = Util.quantile late 0.99 /. 1e6 in
      m "remote.open_p50_ms" "ms" open_p50_ms;
      m "remote.open_p99_ms" "ms" (Util.quantile latency 0.99 /. 1e6);
      m "remote.open_p999_ms" "ms" (Util.quantile latency 0.999 /. 1e6);
      m "remote.gen_late_p99_ms" "ms" late_p99_ms;
      m "remote.gen_late_max_ms" "ms" (Util.max_of late /. 1e6);
      Report.extra r "open_loop"
        (Obs.Json.Obj
           [
             "rate_rps", Obs.Json.Num Frozen.open_rate_rps;
             "requests", Obs.Json.Num (float_of_int size.Frozen.serve_open);
             "generator_bound", Obs.Json.Bool (late_p99_ms > 0.1 *. open_p50_ms);
           ]);
      (match Serve.Client.metrics conn.c with
       | Error e -> Report.fail r "metrics request: %s" e
       | Ok text ->
         conn.next_id <- conn.next_id + 1;
         let total = prom_total text in
         let warm = total "cgsim_pool_warm_hit_total" and cold = total "cgsim_pool_cold_total" in
         let completed = total "cgsim_pool_outcome_total" in
         m "server.warm_hit_ratio" "ratio" (warm /. Float.max 1.0 (warm +. cold));
         m "server.batched_share" "ratio"
           (total "cgsim_pool_batched_total" /. Float.max 1.0 completed));
      Option.iter (codec r ~calls:size.Frozen.codec_calls inputs) acc.last_reply
    end;
    Util.peak_rss_mb (string_of_int d.pid)
  in
  let rss =
    match body () with
    | rss -> rss
    | exception e ->
      Serve.Client.close conn.c;
      ignore (stop d);
      raise e
  in
  Serve.Client.close conn.c;
  (match stop d with Ok () -> () | Error e -> Report.fail r "%s" e);
  let rtt = Util.Samples.to_array acc.rtt in
  let m = Report.metric r in
  Report.setup r (Util.Samples.to_array setups);
  m "peak_rss_mb" "MB" rss;
  m "payload_MBps" "MB/s"
    (Util.fast_rate (Util.Samples.to_array acc.capacity) *. float_of_int inp.Inputs.bytes /. 1e6);
  m "latency_p50_us" "us" (Util.fast_time (Util.Samples.to_array acc.latency_p50) /. 1e3);
  if ctx.Ctx.traced then begin
    let p50 s = Util.median (Util.Samples.to_array s) /. 1e3 in
    m "client.send_us" "us" (p50 acc.send_ns);
    m "remote.outside_server_us" "us" (p50 acc.outside);
    m "server.wait_us" "us" (p50 acc.wait);
    m "remote.run_us" "us" (p50 acc.run);
    m "remote.rtt_p50_us" "us" (Util.median (Util.Samples.to_array acc.rtt_p50) /. 1e3);
    m "remote.rtt_p999_us" "us" (Util.quantile rtt 0.999 /. 1e3);
    let mean s = Util.mean (Util.Samples.to_array s) in
    (* RTT = outside + server wait + run holds per request by
       construction; the means must agree to float precision. *)
    let parts = mean acc.outside +. mean acc.wait +. mean acc.run in
    Report.extra r "rtt_stage_sum_err_pct"
      (Obs.Json.Num (100.0 *. Float.abs (parts -. Util.mean rtt) /. Util.mean rtt))
  end;
  Report.extra r "remote_capacity_rps"
    (Obs.Json.Num (Util.fast_rate (Util.Samples.to_array acc.capacity)))
