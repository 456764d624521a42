module Pool = Cgsim.Pool
module Run_config = Cgsim.Run_config

type conn = {
  c_fd : Unix.file_descr;
  c_wlock : Mutex.t;  (* one reply frame at a time onto the socket *)
  c_writer : Wire.reply_writer;  (* guarded by c_wlock *)
  c_ilock : Mutex.t;
  c_icond : Condition.t;
  mutable c_inflight : int;  (* pool requests whose reply is still owed *)
  c_done : bool Atomic.t;
  mutable c_domain : unit Domain.t option;
}

type t = {
  s_pool : Pool.t;
  s_graphs : (string * Cgsim.Serialized.t) list;
  s_listen_fd : Unix.file_descr;
  s_addr : Addr.t;
  s_stop_r : Unix.file_descr;  (* self-pipe: stop() pokes the accept loop *)
  s_stop_w : Unix.file_descr;
  s_stop_requested : bool Atomic.t;
  s_stopping : bool Atomic.t;
  s_conns : conn list ref;
  s_conns_lock : Mutex.t;
  s_metrics : Obs.Metrics.t;
  s_served : int Atomic.t;
  s_stats_interval : float option;
}

let addr t = t.s_addr

let served t = Atomic.get t.s_served

let create ?(config = Run_config.default) ?stats_interval_s ~graphs ~domains ~listen () =
  if graphs = [] then invalid_arg "serve: Server.create needs at least one graph";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let pool = Pool.create ~config ~domains () in
  let fd = Unix.socket (Addr.domain listen) Unix.SOCK_STREAM 0 in
  (match listen with
   | Addr.Unix_path p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
   | Addr.Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true);
  Unix.bind fd (Addr.sockaddr listen);
  Unix.listen fd 64;
  let bound =
    match listen, Unix.getsockname fd with
    | Addr.Tcp (host, 0), Unix.ADDR_INET (_, port) -> Addr.Tcp (host, port)
    | _ -> listen
  in
  let stop_r, stop_w = Unix.pipe () in
  let metrics = Obs.Metrics.create () in
  (* Present from the start, so a scrape can tell "none" from "unknown". *)
  Obs.Metrics.add metrics "serve.conn_error" 0.0;
  {
    s_pool = pool;
    s_graphs = graphs;
    s_listen_fd = fd;
    s_addr = bound;
    s_stop_r = stop_r;
    s_stop_w = stop_w;
    s_stop_requested = Atomic.make false;
    s_stopping = Atomic.make false;
    s_conns = ref [];
    s_conns_lock = Mutex.create ();
    s_metrics = metrics;
    s_served = Atomic.make 0;
    s_stats_interval = stats_interval_s;
  }

let stop t =
  if not (Atomic.exchange t.s_stop_requested true) then
    try ignore (Unix.write t.s_stop_w (Bytes.of_string "x") 0 1) with Unix.Unix_error _ -> ()

let install_signal_handlers t =
  let h = Sys.Signal_handle (fun _ -> stop t) in
  Sys.set_signal Sys.sigterm h;
  Sys.set_signal Sys.sigint h

(* ------------------------------------------------------------------ *)
(* Reply path                                                          *)
(* ------------------------------------------------------------------ *)

let send conn reply =
  Mutex.protect conn.c_wlock (fun () ->
      (* A vanished peer (EPIPE/ECONNRESET) is the client's problem: the
         request still ran, its reply is simply undeliverable. *)
      try Wire.write_reply conn.c_writer conn.c_fd reply with Unix.Unix_error _ -> ())

let inflight_incr conn =
  Mutex.lock conn.c_ilock;
  conn.c_inflight <- conn.c_inflight + 1;
  Mutex.unlock conn.c_ilock

let inflight_decr conn =
  Mutex.lock conn.c_ilock;
  conn.c_inflight <- conn.c_inflight - 1;
  if conn.c_inflight = 0 then Condition.broadcast conn.c_icond;
  Mutex.unlock conn.c_ilock

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)
(* ------------------------------------------------------------------ *)

let exposition t =
  let pm = Pool.metrics t.s_pool in
  let sm = Obs.Metrics.snapshot t.s_metrics in
  let merged =
    {
      Obs.Metrics.counters = pm.Obs.Metrics.counters @ sm.Obs.Metrics.counters;
      histograms = pm.Obs.Metrics.histograms @ sm.Obs.Metrics.histograms;
      gauges = pm.Obs.Metrics.gauges @ sm.Obs.Metrics.gauges;
    }
  in
  Obs.Prom.of_snapshot merged

let error_reply t conn id code msg =
  Obs.Metrics.incr t.s_metrics ("serve.error:" ^ Wire.error_code_label code);
  send conn { Wire.p_id = id; p_body = Wire.Error (code, msg) }

let wire_outcome (res : Pool.request_result) readers =
  if res.Pool.shed then Wire.Shed
  else
    match res.Pool.outcome with
    | Cgsim.Runtime.Completed _ -> Wire.Completed (List.map (fun rd -> rd ()) readers)
    | Cgsim.Runtime.Deadline_exceeded p ->
      Wire.Deadline
        {
          d_reason = (match p.Cgsim.Runtime.p_reason with `Wall_clock -> "deadline" | `Max_steps -> "max-steps");
          d_parked = p.Cgsim.Runtime.p_parked;
          d_last_kernel = p.Cgsim.Runtime.p_last_kernel;
        }
    | Cgsim.Runtime.Cancelled -> Wire.Cancelled
    | Cgsim.Runtime.Kernel_failed f ->
      Wire.Failed
        { x_kernel = f.Cgsim.Runtime.f_kernel; x_message = Printexc.to_string f.Cgsim.Runtime.f_exn }

let handle_run t conn id (rq : Wire.run_request) =
  let t_recv = Obs.Clock.now_ns () in
  match List.assoc_opt rq.Wire.rq_graph t.s_graphs with
  | None ->
    error_reply t conn id Wire.Unknown_graph (Printf.sprintf "no graph named %S" rq.Wire.rq_graph)
  | Some g ->
    let n_in = Array.length g.Cgsim.Serialized.input_order in
    let n_out = Array.length g.Cgsim.Serialized.output_order in
    if List.length rq.Wire.rq_inputs <> n_in then
      error_reply t conn id Wire.Bad_request
        (Printf.sprintf "graph %S takes %d input streams, request has %d" rq.Wire.rq_graph n_in
           (List.length rq.Wire.rq_inputs))
    else if Pool.breaker_open t.s_pool then begin
      (* Admission control: the breaker is open, refuse at the door with
         the same structured shed the pool itself would produce. *)
      Obs.Metrics.incr t.s_metrics "serve.shed";
      send conn
        {
          Wire.p_id = id;
          p_body =
            Wire.Result
              {
                rp_outcome = Wire.Shed;
                rp_attempts = 0;
                rp_domain = -1;
                rp_server_ns = Obs.Clock.now_ns () -. t_recv;
                rp_run_ns = 0.;
              };
        }
    end
    else begin
      let deadline_ns = Option.map (fun ms -> ms *. 1e6) rq.Wire.rq_deadline_ms in
      (* [io] runs once per attempt on the worker domain; the readers of
         the newest attempt's collector sinks are what the reply reads. *)
      let readers = ref [] in
      let io _ =
        let sources = List.map Cgsim.Io.of_list rq.Wire.rq_inputs in
        let sinks, rds = List.split (List.init n_out (fun _ -> Cgsim.Io.buffer ())) in
        readers := rds;
        (sources, sinks)
      in
      let on_complete (res : Pool.request_result) =
        send conn
          {
            Wire.p_id = id;
            p_body =
              Wire.Result
                {
                  rp_outcome = wire_outcome res !readers;
                  rp_attempts = res.Pool.attempts;
                  rp_domain = res.Pool.domain;
                  rp_server_ns = Obs.Clock.now_ns () -. t_recv;
                  rp_run_ns = res.Pool.req_wall_ns;
                };
          };
        inflight_decr conn
      in
      inflight_incr conn;
      match Pool.submit t.s_pool ?deadline_ns ?seed:rq.Wire.rq_seed ~on_complete ~io g with
      | _handle -> ()
      | exception exn ->
        (* Compile-time rejection (invalid graph, `Error`-level lint). *)
        inflight_decr conn;
        error_reply t conn id Wire.Bad_request (Printexc.to_string exn)
    end

(* [served] counts a request once it is answered or handed to the pool,
   so a drain that starts after the count has seen it cannot refuse it. *)
let handle_request t conn (req : Wire.request) =
  (match req.Wire.q_body with
  | Wire.Ping ->
    Obs.Metrics.incr t.s_metrics "serve.request:ping";
    send conn { Wire.p_id = req.Wire.q_id; p_body = Wire.Pong }
  | Wire.Metrics ->
    Obs.Metrics.incr t.s_metrics "serve.request:metrics";
    send conn { Wire.p_id = req.Wire.q_id; p_body = Wire.Metrics_text (exposition t) }
  | Wire.Run rq ->
    Obs.Metrics.incr t.s_metrics "serve.request:run";
    if Atomic.get t.s_stopping then
      error_reply t conn req.Wire.q_id Wire.Shutting_down "server is draining"
    else handle_run t conn req.Wire.q_id rq);
  Atomic.incr t.s_served

(* ------------------------------------------------------------------ *)
(* Connection lifecycle                                                *)
(* ------------------------------------------------------------------ *)

(* An exception out of a connection's reader: count it, name it on
   stderr, and keep serving the other connections. *)
let conn_error t exn =
  Obs.Metrics.incr t.s_metrics "serve.conn_error";
  Printf.eprintf "[cgx serve] connection error: %s\n%!" (Printexc.to_string exn)

let handle_conn t conn =
  (try
     let rec loop () =
       match Wire.read_frame conn.c_fd with
       | Error Wire.Eof -> ()
       | Error (Wire.Truncated | Wire.Oversized _ as e) ->
         (* The stream cannot be resynchronized after a bad frame:
            report and hang up. *)
         error_reply t conn (-1) Wire.Bad_request (Wire.frame_error_message e)
       | Ok payload -> (
         match Wire.decode_request payload with
         | Ok req ->
           handle_request t conn req;
           loop ()
         | Error (Wire.Wrong_version _ as e) ->
           error_reply t conn (-1) Wire.Version_mismatch (Wire.decode_error_message e);
           loop ()
         | Error (Wire.Malformed _ as e) ->
           error_reply t conn (-1) Wire.Bad_request (Wire.decode_error_message e);
           loop ())
     in
     loop ()
   with exn -> conn_error t exn);
  (* Drain this connection: every accepted request writes its reply
     before the socket closes. *)
  Mutex.lock conn.c_ilock;
  while conn.c_inflight > 0 do
    Condition.wait conn.c_icond conn.c_ilock
  done;
  Mutex.unlock conn.c_ilock;
  (try Unix.close conn.c_fd with Unix.Unix_error _ -> ());
  Atomic.set conn.c_done true

let spawn_conn t fd =
  Obs.Metrics.incr t.s_metrics "serve.connection";
  let conn =
    {
      c_fd = fd;
      c_wlock = Mutex.create ();
      c_writer = Wire.reply_writer ();
      c_ilock = Mutex.create ();
      c_icond = Condition.create ();
      c_inflight = 0;
      c_done = Atomic.make false;
      c_domain = None;
    }
  in
  Mutex.lock t.s_conns_lock;
  t.s_conns := conn :: !(t.s_conns);
  Mutex.unlock t.s_conns_lock;
  conn.c_domain <- Some (Domain.spawn (fun () -> handle_conn t conn))

let join t conn =
  match conn.c_domain with
  | Some d -> ( try Domain.join d with exn -> conn_error t exn)
  | None -> ()

(* Join finished connection domains so a long-lived daemon does not
   accumulate them.  Runs on the accept-loop domain only. *)
let reap t =
  Mutex.lock t.s_conns_lock;
  let finished, live = List.partition (fun c -> Atomic.get c.c_done) !(t.s_conns) in
  t.s_conns := live;
  Mutex.unlock t.s_conns_lock;
  List.iter (join t) finished

let log_stats t =
  let snap = Pool.metrics t.s_pool in
  let counter name =
    match List.find_opt (fun c -> String.equal c.Obs.Metrics.c_name name) snap.Obs.Metrics.counters with
    | Some c -> int_of_float c.Obs.Metrics.total
    | None -> 0
  in
  Printf.eprintf "[cgx serve] served=%d inflight=%d warm_hit=%d cold=%d shed=%d breaker=%s\n%!"
    (Pool.served t.s_pool) (Pool.pending t.s_pool) (counter "pool.warm_hit") (counter "pool.cold")
    (counter "pool.shed")
    (if Pool.breaker_open t.s_pool then "open" else "closed")

(* ------------------------------------------------------------------ *)
(* Accept loop and drain                                               *)
(* ------------------------------------------------------------------ *)

let drain t =
  Atomic.set t.s_stopping true;
  (try Unix.close t.s_listen_fd with Unix.Unix_error _ -> ());
  (match t.s_addr with
   | Addr.Unix_path p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
   | Addr.Tcp _ -> ());
  Mutex.lock t.s_conns_lock;
  let conns = !(t.s_conns) in
  t.s_conns := [];
  Mutex.unlock t.s_conns_lock;
  (* EOF every reader: handlers fall out of their read loop, wait for
     their in-flight replies, close, exit. *)
  List.iter
    (fun c ->
      if not (Atomic.get c.c_done) then
        try Unix.shutdown c.c_fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
    conns;
  List.iter (join t) conns;
  Pool.shutdown t.s_pool;
  try
    Unix.close t.s_stop_r;
    Unix.close t.s_stop_w
  with Unix.Unix_error _ -> ()

let serve t =
  let interval = t.s_stats_interval in
  let next_stats =
    ref (match interval with Some s -> Unix.gettimeofday () +. s | None -> infinity)
  in
  let rec loop () =
    let timeout =
      match interval with
      | None -> -1.0
      | Some _ -> Float.max 0.0 (!next_stats -. Unix.gettimeofday ())
    in
    match Unix.select [ t.s_listen_fd; t.s_stop_r ] [] [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | ready, _, _ ->
      if Unix.gettimeofday () >= !next_stats then begin
        log_stats t;
        (match interval with Some s -> next_stats := Unix.gettimeofday () +. s | None -> ())
      end;
      if List.mem t.s_stop_r ready then ()
      else begin
        if List.mem t.s_listen_fd ready then begin
          match Unix.accept t.s_listen_fd with
          | fd, _ -> spawn_conn t fd
          | exception Unix.Unix_error _ -> ()
        end;
        reap t;
        loop ()
      end
  in
  loop ();
  drain t
