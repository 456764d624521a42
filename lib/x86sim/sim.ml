(* Re-exported because benchmark/sim_wl.ml matches on X86sim.Sim.Completed. *)
type outcome = Cgsim.Runtime.outcome =
  | Completed of Cgsim.Sched.stats
  | Deadline_exceeded of Cgsim.Runtime.progress
  | Cancelled
  | Kernel_failed of Cgsim.Runtime.failure

(* Re-exported because benchmark/sim_wl.ml calls X86sim.Sim.outcome_label. *)
let outcome_label = Cgsim.Runtime.outcome_label

let deep_stream_depth = 4096

let run ?(config = Cgsim.Run_config.default) (g : Cgsim.Serialized.t) ~sources ~sinks =
  (* Validation, the pre-flight lint, per-net depths and the I/O count
     check are cgsim's; capacity synthesis does not apply here. *)
  let compiled = Cgsim.Runtime.compile ~config:(Cgsim.Run_config.with_auto_capacity false config) g in
  Cgsim.Runtime.check_io g ~sources ~sinks;
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
      let who, src, exn =
        match exn with
        | Tqueue.Endpoint_failed (endpoint, exn) -> endpoint, None, exn
        | exn -> who, src, exn
      in
      Obs.Flight.note Obs.Flight.Body_raise who;
      let f = Cgsim.Runtime.failure_of ~graph:g.gname ~who ~src ~backtrace exn in
      if Atomic.compare_and_set failure None (Some f) then Array.iter Tqueue.poison queues
  in
  (* Each kernel's name, completion flag and body.  The watchdog
     snapshots the names still running when the deadline fires — the
     threaded analogue of the cooperative scheduler's parked fibers. *)
  let kernels =
    Array.map
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
        inst.inst_name, Atomic.make false, body)
      g.kernels
  in
  (* Global I/O rides the kernels' own domains: a reader that finds a
     source net empty pulls the next segment, and a writer that finds a
     sink net full, or closes it, pushes into the sink. *)
  List.iteri (fun i src -> Tqueue.attach_source queues.(g.input_order.(i)) src) sources;
  List.iteri (fun i snk -> Tqueue.attach_sink queues.(g.output_order.(i)) snk) sinks;
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
             while (not (Atomic.get all_done)) && !deadline_hit = None do
               let remaining_ns = t_end -. Obs.Clock.now_ns () in
               if remaining_ns <= 0. then begin
                 deadline_hit :=
                   Some
                     (Array.fold_right
                        (fun (name, finished, _) running ->
                          if Atomic.get finished then running else name :: running)
                        kernels []);
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
    Array.map
      (fun (name, finished, body) ->
        Domain.spawn (fun () ->
            Printexc.record_backtrace record_backtrace;
            (* Label the domain so Tqueue's wait spans land on a named
               track; the thread span frames its whole lifetime. *)
            Obs.Trace.set_thread_label name;
            Fun.protect
              ~finally:(fun () -> Atomic.set finished true)
              (fun () -> Obs.Trace.with_span ~track:name ~cat:"thread" "thread" body)))
      kernels
  in
  Array.iter Domain.join threads;
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
  let total_ns = Obs.Clock.now_ns () -. t0 in
  (* x86sim measures domains and wall time; slices and kernel time read 0. *)
  let stats ~parked =
    let spawned = Array.length threads and cancelled = List.length parked in
    {
      Cgsim.Sched.spawned;
      completed = spawned - cancelled;
      cancelled;
      failed = [];
      slices = 0;
      kernel_ns = 0.;
      total_ns;
      stopped = None;
    }
  in
  match Atomic.get failure with
  | Some f -> Kernel_failed f
  | None ->
    (match !deadline_hit with
     | Some parked ->
       Deadline_exceeded
         {
           Cgsim.Runtime.p_graph = g.gname;
           p_reason = `Wall_clock;
           p_parked = parked;
           p_occupancy = Array.to_list (Array.map (fun q -> Tqueue.name q, Tqueue.occupancy q) queues);
           p_last_kernel = None;
           p_stats = stats ~parked;
           p_flight = Obs.Flight.snapshot ();
         }
     | None -> Completed (stats ~parked:[]))
