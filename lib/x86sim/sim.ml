exception X86sim_error of string

let fail fmt = Format.kasprintf (fun s -> raise (X86sim_error s)) fmt

type stats = {
  threads : int;
  failed : (string * exn) list;
  wall_ns : float;
}

type outcome =
  | Completed of stats
  | Deadline_exceeded of {
      graph : string;
      waiting : string list;
      wall_ns : float;
    }
  | Kernel_failed of {
      graph : string;
      thread : string;
      exn : exn;
      wall_ns : float;
    }

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
    Array.mapi
      (fun id (n : Cgsim.Serialized.net) ->
        let capacity =
          match config.Cgsim.Run_config.queue_capacity with
          | Some c -> c
          | None ->
            (* The functional simulator buffers deeply in host memory
               (threads should block rarely); hardware-fidelity depths
               only matter to aiesim. *)
            max deep_stream_depth (Cgsim.Runtime.compiled_capacity compiled id)
        in
        Tqueue.create ~name:(Printf.sprintf "%s/net%d" g.gname n.net_id) ~dtype:n.dtype ~capacity ())
      g.nets
  in
  let failures = ref [] in
  let failures_lock = Mutex.create () in
  let record_failure name exn =
    Mutex.lock failures_lock;
    failures := (name, exn) :: !failures;
    Mutex.unlock failures_lock
  in
  (* A failing source or sink is charged to itself, not to the kernel
     whose queue operation copied through it. *)
  let guard name f =
    try f () with
    | Cgsim.Sched.End_of_stream | Cgsim.Sched.Terminated -> ()
    | Tqueue.Endpoint_failed (endpoint, exn) -> record_failure endpoint exn
    | exn -> record_failure name exn
  in
  let bodies = ref [] in
  (* Wire kernels. *)
  Array.iter
    (fun (inst : Cgsim.Serialized.kernel_inst) ->
      let kernel = inst.kernel in
      (* The producer wakes this kernel's reads defer (see Tqueue). *)
      let w = Tqueue.waker () in
      let readers = ref [] and writers = ref [] and producers = ref [] in
      Array.iteri
        (fun port_idx (spec : Cgsim.Kernel.port_spec) ->
          let q = queues.(inst.port_nets.(port_idx)) in
          let name = Printf.sprintf "%s.%s" inst.inst_name spec.Cgsim.Kernel.pname in
          match spec.Cgsim.Kernel.dir with
          | Cgsim.Kernel.In -> readers := Tqueue.reader ~name (Tqueue.add_consumer ~waker:w q) :: !readers
          | Cgsim.Kernel.Out ->
            let p = Tqueue.add_producer ~waker:w q in
            producers := p :: !producers;
            writers := Tqueue.writer ~name p :: !writers)
        kernel.Cgsim.Kernel.ports;
      let binding =
        {
          Cgsim.Kernel.readers = Array.of_list (List.rev !readers);
          writers = Array.of_list (List.rev !writers);
          context = Cgsim.Kernel.No_context;
        }
      in
      let ps = !producers in
      let body () =
        guard inst.inst_name (fun () -> kernel.Cgsim.Kernel.body binding);
        (* A writer may still wait on a wake this kernel deferred. *)
        Tqueue.deliver w;
        (* Its output nets lose one producer each; the last one closes a
           net, and closure propagates downstream. *)
        List.iter (fun p -> guard inst.inst_name (fun () -> Tqueue.producer_done p)) ps
      in
      bodies := (inst.inst_name, body) :: !bodies)
    g.kernels;
  (* Global I/O rides the kernels' own domains: a reader that finds a
     source net empty pulls the next segment, and a writer that finds a
     sink net full, or closes it, pushes into the sink. *)
  List.iteri (fun i src -> Tqueue.attach_source queues.(g.input_order.(i)) src) sources;
  List.iteri (fun i snk -> Tqueue.attach_sink queues.(g.output_order.(i)) snk) sinks;
  let bodies = List.rev !bodies in
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
  let threads =
    List.map2
      (fun (name, body) (_, flag) ->
        Domain.spawn (fun () ->
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
        guard (Cgsim.Io.source_name src) (fun () -> Tqueue.flush queues.(id)))
    sources;
  Atomic.set all_done true;
  (match watchdog with Some w -> Domain.join w | None -> ());
  let wall_ns = Obs.Clock.now_ns () -. t0 in
  let failed = List.rev !failures in
  match failed with
  | (name, exn) :: _ -> Kernel_failed { graph = g.gname; thread = name; exn; wall_ns }
  | [] ->
    (match !deadline_hit with
     | Some waiting -> Deadline_exceeded { graph = g.gname; waiting; wall_ns }
     | None -> Completed { threads = List.length threads; failed; wall_ns })

let stats_exn = function
  | Completed stats -> stats
  | Kernel_failed { graph; thread; exn; _ } ->
    fail "graph %s: kernel thread %s failed: %s" graph thread (Printexc.to_string exn)
  | Deadline_exceeded { graph; waiting; wall_ns } ->
    fail "graph %s: wall-clock deadline exceeded after %.1f ms; still running: %s" graph
      (wall_ns /. 1e6)
      (match waiting with [] -> "<none>" | ws -> String.concat ", " ws)

let run_exn ?config g ~sources ~sinks = stats_exn (run ?config g ~sources ~sinks)
