exception X86sim_error of string

let fail fmt = Format.kasprintf (fun s -> raise (X86sim_error s)) fmt

type stats = {
  threads : int;
  wall_ns : float;
}

type outcome =
  | Completed of stats
  | Deadline_exceeded of {
      graph : string;
      waiting : string list;
      wall_ns : float;
    }
  | Kernel_failed of Cgsim.Runtime.failure

let outcome_label = function
  | Completed _ -> "completed"
  | Deadline_exceeded _ -> "deadline"
  | Kernel_failed _ -> "failed"

let deep_stream_depth = 4096

let run ?(config = Cgsim.Run_config.default) (g : Cgsim.Serialized.t) ~sources ~sinks =
  (* Validation, the pre-flight lint, per-net depths and the I/O count
     check are cgsim's; capacity synthesis does not apply here. *)
  let compiled =
    try
      let c = Cgsim.Runtime.compile ~config:(Cgsim.Run_config.with_auto_capacity false config) g in
      Cgsim.Runtime.check_io g ~sources ~sinks;
      c
    with Cgsim.Runtime.Runtime_error msg -> raise (X86sim_error msg)
  in
  let queues =
    Tqueue.net_queues g ~capacity:(fun id ->
        match config.Cgsim.Run_config.queue_capacity with
        | Some c -> c
        | None ->
          (* The functional simulator buffers deeply in host memory
             (threads should block rarely); hardware-fidelity depths
             only matter to aiesim. *)
          max deep_stream_depth (Cgsim.Runtime.compiled_capacity compiled id))
  in
  (* The first failure ends the run: it poisons every queue, as the
     deadline watchdog does, so every domain unwinds with [Terminated]
     at its next queue touch.  Later failures are collateral. *)
  let failure = Atomic.make None in
  (* A failing source or sink is charged to itself, not to the kernel
     whose queue operation copied through it. *)
  let guard ~who ~src f =
    try f () with
    | Cgsim.Sched.End_of_stream | Cgsim.Sched.Terminated -> ()
    | exn ->
      let backtrace = Printexc.get_backtrace () in
      let f =
        match exn with
        | Tqueue.Endpoint_failed (endpoint, exn) ->
          Cgsim.Runtime.failure_of ~graph:g.gname ~who:endpoint ~src:None ~backtrace exn
        | exn ->
          Obs.Flight.note Obs.Flight.Body_raise who;
          Cgsim.Runtime.failure_of ~graph:g.gname ~who ~src ~backtrace exn
      in
      if Atomic.compare_and_set failure None (Some f) then Array.iter Tqueue.poison queues
  in
  let bodies =
    Array.to_list
      (Array.map
         (fun (inst : Cgsim.Serialized.kernel_inst) ->
           let wiring = Tqueue.wire queues inst in
           let binding =
             {
               Cgsim.Kernel.readers = Array.map snd wiring.Cgsim.Netq.inputs;
               writers = Array.map snd wiring.outputs;
               context = Cgsim.Kernel.No_context;
             }
           in
           let guard = guard ~who:inst.inst_name ~src:inst.src in
           let body () =
             guard (fun () -> inst.kernel.Cgsim.Kernel.body binding);
             (* Deliver the writer wakes this kernel deferred; its output
                nets lose one producer each, the last one closes a net,
                and closure propagates downstream. *)
             guard wiring.finish
           in
           inst.inst_name, body)
         g.kernels)
  in
  (* Global I/O rides the kernels' own domains: a reader that finds a
     source net empty pulls the next segment, and a writer that finds a
     sink net full, or closes it, pushes into the sink. *)
  List.iteri (fun i src -> Tqueue.attach_source queues.(g.input_order.(i)) src) sources;
  List.iteri (fun i snk -> Tqueue.attach_sink queues.(g.output_order.(i)) snk) sinks;
  (* Completion flags, one per kernel: the watchdog snapshots the names
     still running when the deadline fires — the threaded analogue of the
     cooperative scheduler's parked-fiber snapshot. *)
  let flags = List.map (fun (name, _) -> name, Atomic.make false) bodies in
  let t0 = Obs.Clock.now_ns () in
  let all_done = Atomic.make false in
  let deadline_hit = ref None in
  (* Wall-clock watchdog: no timed condition wait in the stdlib, so it
     ticks every 2 ms; on expiry it poisons every queue, which raises
     {!Cgsim.Sched.Terminated} in all blocked (and subsequently blocking)
     threads.  A thread that never touches a queue again is not
     interruptible — same caveat as cgsim's cooperative budget. *)
  let watchdog =
    match config.Cgsim.Run_config.deadline_ns with
    | None -> None
    | Some d ->
      Some
        (Domain.spawn (fun () ->
             let t_end = t0 +. d in
             let fired = ref false in
             while (not (Atomic.get all_done)) && not !fired do
               let remaining_ns = t_end -. Obs.Clock.now_ns () in
               if remaining_ns <= 0. then begin
                 fired := true;
                 let waiting =
                   List.filter_map
                     (fun (name, flag) -> if Atomic.get flag then None else Some name)
                     flags
                 in
                 deadline_hit := Some waiting;
                 if !Obs.Trace.on then begin
                   Obs.Trace.instant ~track:"x86sim" ~cat:"sim" "deadline-poison";
                   Obs.Trace.incr_metric "x86.deadline"
                 end;
                 Array.iter Tqueue.poison queues
               end
               else Unix.sleepf (Float.min (remaining_ns /. 1e9) 0.002)
             done))
  in
  (* Backtrace recording is per domain: kernel domains record as the
     caller's does, so a failure carries its backtrace as under cgsim. *)
  let record_backtrace = Printexc.backtrace_status () in
  let threads =
    List.map2
      (fun (name, body) (_, flag) ->
        Domain.spawn (fun () ->
            Printexc.record_backtrace record_backtrace;
            (* Label the domain so Tqueue's wait spans land on a named
               track; the thread span frames its whole lifetime. *)
            Obs.Trace.set_thread_label name;
            Fun.protect
              ~finally:(fun () -> Atomic.set flag true)
              (fun () -> Obs.Trace.with_span ~track:name ~cat:"thread" "thread" body)))
      bodies flags
  in
  List.iter Domain.join threads;
  (* A source net no kernel reads (it may still feed a sink) moves on
     the calling domain. *)
  List.iteri
    (fun i src ->
      let id = g.input_order.(i) in
      if g.nets.(id).readers = [] then
        guard ~who:(Cgsim.Io.source_name src) ~src:None (fun () -> Tqueue.flush queues.(id)))
    sources;
  Atomic.set all_done true;
  (match watchdog with Some w -> Domain.join w | None -> ());
  let wall_ns = Obs.Clock.now_ns () -. t0 in
  match Atomic.get failure with
  | Some f -> Kernel_failed f
  | None ->
    (match !deadline_hit with
     | Some waiting -> Deadline_exceeded { graph = g.gname; waiting; wall_ns }
     | None -> Completed { threads = List.length threads; wall_ns })

let stats_exn = function
  | Completed stats -> stats
  | Kernel_failed f -> raise (X86sim_error (Cgsim.Runtime.failure_message f))
  | Deadline_exceeded { graph; waiting; wall_ns } ->
    fail "graph %s: wall-clock deadline exceeded after %.1f ms; still running: %s" graph
      (wall_ns /. 1e6)
      (match waiting with [] -> "<none>" | ws -> String.concat ", " ws)

let run_exn ?config g ~sources ~sinks = stats_exn (run ?config g ~sources ~sinks)
