exception Runtime_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Runtime_error s)) fmt

(* The pre-flight: at [`Warn] print warning- and error-level findings
   and proceed, at [`Error] refuse a graph with error-level findings. *)
let preflight ~lint (g : Serialized.t) =
  match lint with
  | `Off -> ()
  | `Warn | `Error ->
    let diags =
      List.filter (fun d -> d.Diagnostic.severity <> Diagnostic.Info) (Lint.passes g)
    in
    if diags <> [] then begin
      match lint, Diagnostic.max_severity diags with
      | `Error, Some Diagnostic.Error ->
        fail "graph %s failed pre-flight lint:\n%s" g.Serialized.gname
          (String.concat "\n" (List.map Diagnostic.render diags))
      | _ ->
        List.iter (fun d -> prerr_endline (Diagnostic.render d)) diags
    end

(* ------------------------------------------------------------------ *)
(* Structured outcomes                                                 *)
(* ------------------------------------------------------------------ *)

type failure = {
  f_graph : string;
  f_kernel : string;
  f_exn : exn;
  f_backtrace : string;  (* may be empty when backtrace recording is off *)
  f_src : Srcspan.t option;
  f_flight : Obs.Flight.entry list;
      (* flight-recorder window from the failing domain, oldest first;
         captured whether or not tracing was on *)
}

type progress = {
  p_graph : string;
  p_reason : [ `Wall_clock | `Max_steps ];
  p_parked : string list;
  p_occupancy : (string * int) list;  (* net name, unretired elements *)
  p_last_kernel : string option;
  p_stats : Sched.stats;
  p_flight : Obs.Flight.entry list;  (* as f_flight *)
}

type outcome =
  | Completed of Sched.stats
  | Deadline_exceeded of progress
  | Cancelled
  | Kernel_failed of failure

(* Built on the failing domain right after the raise, while its flight
   ring still holds the events leading up to it. *)
let failure_of ~graph ~who ~src ~backtrace exn =
  {
    f_graph = graph;
    f_kernel = who;
    f_exn = exn;
    f_backtrace = String.trim backtrace;
    f_src = src;
    f_flight = Obs.Flight.snapshot ();
  }

let outcome_label = function
  | Completed _ -> "completed"
  | Deadline_exceeded p -> (match p.p_reason with `Wall_clock -> "deadline" | `Max_steps -> "max-steps")
  | Cancelled -> "cancelled"
  | Kernel_failed _ -> "failed"

let failure_message f =
  Format.asprintf "graph %s: kernel %s failed: %s%s%s" f.f_graph f.f_kernel
    (Printexc.to_string f.f_exn)
    (match f.f_src with
     | Some s -> Printf.sprintf " (%s)" (Srcspan.to_string s)
     | None -> "")
    (if f.f_backtrace = "" then ""
     else "\n" ^ f.f_backtrace)

let progress_message p =
  Format.asprintf "graph %s: %s after %.1f ms%s; parked: %s; last advanced: %s%s" p.p_graph
    (match p.p_reason with
     | `Wall_clock -> "wall-clock deadline exceeded"
     | `Max_steps -> "step budget exhausted")
    (p.p_stats.Sched.total_ns /. 1e6)
    (* x86sim counts no slices *)
    (match p.p_stats.Sched.slices with 0 -> "" | n -> Printf.sprintf ", %d slices" n)
    (match p.p_parked with [] -> "<none>" | ps -> String.concat ", " ps)
    (Option.value p.p_last_kernel ~default:"<none>")
    (match List.filter (fun (_, occ) -> occ > 0) p.p_occupancy with
     | [] -> ""
     | occ ->
       "; occupancy: "
       ^ String.concat ", " (List.map (fun (n, o) -> Printf.sprintf "%s=%d" n o) occ))

let pp_outcome ppf = function
  | Completed stats -> Format.fprintf ppf "completed (%a)" Sched.pp_stats stats
  | Deadline_exceeded p -> Format.pp_print_string ppf (progress_message p)
  | Cancelled -> Format.pp_print_string ppf "cancelled"
  | Kernel_failed f -> Format.pp_print_string ppf (failure_message f)

(* ------------------------------------------------------------------ *)
(* Compiled graphs and warm instances                                  *)
(* ------------------------------------------------------------------ *)

(* The lifecycle is split in two (the paper's own separation of the
   static compute-graph description from its simulated execution):

   - [compiled]: everything derivable from the Serialized.t + Run_config
     pair alone — validation, per-net queue capacities, precomputed
     fiber profiler keys and the pre-flight lint verdict.  Built once,
     shared freely.

   - [t] (an instance): the mutable per-request state — queues with their
     registered endpoints, the scheduler, failure slot and the I/O slots
     of the current run.  [reset] restores a used instance to pristine
     without reallocating any of it; [arm] (called by every [run]) taps
     the raw ports afresh and respawns all fibers, so per-run tap state
     (fault access counters, tracing) behaves exactly as a fresh build. *)

type compiled = {
  c_graph : Serialized.t;
  c_config : Run_config.t;
  c_prof_keys : string array;  (* per kernel inst, for Sched.spawn *)
  c_capacities : int array;  (* per net id *)
}

(* A kernel instance's raw (untapped) endpoints are wired once per
   instance; [arm] taps them per run. *)
type wired_kernel = {
  wk_inst : Serialized.kernel_inst;
  wk_prof_key : string;
  wk_wiring : Netq.wiring;
}

type tap_source = Serialized.kernel_inst -> int -> string -> Port.tap option

let no_taps _ _ _ = None

type context_source = Serialized.kernel_inst -> Kernel.context

let no_context _ = Kernel.No_context

type t = {
  graph : Serialized.t;
  sched : Sched.t;
  queues : Bqueue.t array;  (* indexed by net id *)
  config : Run_config.t;
  tap : tap_source;  (* the caller's port taps *)
  context : context_source;  (* the caller's per-kernel contexts *)
  kernels : wired_kernel array;
  in_producers : Bqueue.producer array;  (* per input_order slot *)
  out_consumers : Bqueue.consumer array;  (* per output_order slot *)
  mutable cur_sources : Io.source array;  (* the current run's I/O *)
  mutable cur_sinks : Io.sink array;
  mutable ran : bool;
  mutable failure : failure option;  (* first kernel failure, with context *)
}

let graph t = t.graph

let config t = t.config

let net_traffic t = Array.map Bqueue.total_put t.queues

let cancel t = Sched.cancel t.sched

(* A net nobody drains (no kernel reader, no global output) retires
   nothing: its writers fill the queue and wait forever.  Only a run
   needs every net consumed — analysis takes graphs with unread outputs
   — so this is the compile's check, not validate_diags'. *)
let unconsumed (g : Serialized.t) =
  List.filter_map
    (fun (n : Serialized.net) ->
      if n.readers <> [] || n.global_output <> None then None
      else begin
        let display = Serialized.net_display g n.net_id in
        Some
          (Diagnostic.make ~severity:Diagnostic.Error ~code:"CG-E008" ~graph:g.gname
             ~nets:[ display ] ~net_ids:[ n.net_id ] ?loc:(Serialized.net_src g n.net_id)
             (display
             ^ " has no consumer: no kernel reads it and it is no global output, so its \
                writers would wait forever"))
      end)
    (Array.to_list g.Serialized.nets)

(* Validation (structural and consumer), then the pre-flight lint: at
   [`Error] a failing graph is refused here, before any instance exists
   or any kernel body runs.  Capacity synthesis only ever raises a
   depth, so a queue the user sized deliberately is never shrunk. *)
let compile ?(config = Run_config.default) (g : Serialized.t) =
  (match Serialized.validate_diags g @ unconsumed g with
   | [] -> ()
   | diags ->
     fail "cannot instantiate %s: %s" g.Serialized.gname
       (String.concat "; " (List.map Diagnostic.render diags)));
  preflight ~lint:config.Run_config.lint g;
  let capacities =
    Array.map
      (fun (n : Serialized.net) ->
        match config.Run_config.queue_capacity with
        | Some c -> c
        | None -> Settings.resolved_depth ~elem_bytes:(Dtype.size_bytes n.dtype) n.settings)
      g.Serialized.nets
  in
  if config.Run_config.auto_capacity then
    List.iter
      (fun (id, depth) -> capacities.(id) <- max capacities.(id) depth)
      (Capacity.suggest g);
  {
    c_graph = g;
    c_config = config;
    c_prof_keys =
      Array.map
        (fun (inst : Serialized.kernel_inst) -> Obs.Profile.prefix ^ inst.Serialized.inst_name)
        g.Serialized.kernels;
    c_capacities = capacities;
  }

let compiled_capacity c id = c.c_capacities.(id)

(* Build the per-request state from a compiled graph: queues and
   endpoint registration (kernel ports and one producer/consumer per
   global I/O slot, so endpoint counts are static across resets) —
   everything [run] does not have to repeat. *)
let new_instance ?(tap = no_taps) ?(context = no_context) (c : compiled) =
  let g = c.c_graph in
  let config = c.c_config in
  let sched = Sched.create () in
  let queues = Bqueue.net_queues g ~capacity:(fun id -> c.c_capacities.(id)) in
  let kernels =
    Array.mapi
      (fun idx inst ->
        { wk_inst = inst; wk_prof_key = c.c_prof_keys.(idx); wk_wiring = Bqueue.wire queues inst })
      g.Serialized.kernels
  in
  let in_producers =
    Array.map (fun net_id -> Bqueue.add_producer queues.(net_id)) g.Serialized.input_order
  in
  let out_consumers =
    Array.map (fun net_id -> Bqueue.add_consumer queues.(net_id)) g.Serialized.output_order
  in
  {
    graph = g;
    sched;
    queues;
    config;
    tap;
    context;
    kernels;
    in_producers;
    out_consumers;
    cur_sources = [||];
    cur_sinks = [||];
    ran = false;
    failure = None;
  }

let instantiate ?config ?tap ?context (g : Serialized.t) =
  new_instance ?tap ?context (compile ?config g)

(* Restore a used instance to pristine: ring cursors, producer-open
   flags, scheduler state and the failure slot all return to their
   just-built values; nothing is reallocated and the endpoint set is
   preserved. *)
let reset t =
  Array.iter Bqueue.reset t.queues;
  Sched.reset t.sched;
  t.cur_sources <- [||];
  t.cur_sinks <- [||];
  t.ran <- false;
  t.failure <- None

(* Failure supervision for every fiber: a body raising is recorded —
   who, exception, backtrace, source span — before the scheduler's fiber
   boundary sees it; only the first failure is kept (later ones are
   usually collateral).  A source or sink fiber has no span. *)
let supervise t ~who ~src body =
  match body () with
  | () -> ()
  | exception ((Sched.End_of_stream | Sched.Terminated) as e) -> raise e
  | exception e ->
    let backtrace = Printexc.get_backtrace () in
    Obs.Flight.note Obs.Flight.Body_raise who;
    if t.failure = None then
      t.failure <- Some (failure_of ~graph:t.graph.Serialized.gname ~who ~src ~backtrace e);
    raise e

(* A kernel fiber's body: the kernel itself, bracketed by lifecycle
   instants when traced, under failure supervision. *)
let kernel_body t ~traced wk binding () =
  let track = wk.wk_inst.Serialized.inst_name in
  let instant name = if traced then Obs.Trace.instant ~track ~cat:"kernel" name in
  instant "body-start";
  match
    supervise t ~who:track ~src:wk.wk_inst.Serialized.src (fun () ->
        wk.wk_inst.Serialized.kernel.Kernel.body binding)
  with
  | () -> instant "body-end"
  | exception e ->
    instant (match e with Sched.End_of_stream -> "body-end" | _ -> "body-raise");
    raise e

(* Arm the instance for one run: tap the raw ports and spawn every
   fiber, binding each kernel to its ports and the caller's context for
   it.  Taps are
   listed fault first, so an injected fault fires before the transfer
   and the trace counters and the caller's tap (aiesim capture) record
   only transfers that happened.  Re-tapping per run keeps per-run tap
   state — fault access counters, the trace-session check — identical
   to a fresh build; with no faults, no trace session and no caller
   tap, kernels get the raw queue closures. *)
let arm t =
  let traced = !Obs.Trace.on in
  let faults = match t.config.Run_config.faults with Some plan -> Faults.tap plan | None -> no_taps in
  let counter prefix name =
    if traced then begin
      let key = prefix ^ name in
      Some { Port.no_tap with after = (fun n -> Obs.Trace.add_metric key (float_of_int n)) }
    end
    else None
  in
  let taps inst port_idx name count =
    List.filter_map Fun.id [ faults inst port_idx name; count; t.tap inst port_idx name ]
  in
  Array.iter
    (fun wk ->
      let inst = wk.wk_inst and wiring = wk.wk_wiring in
      let binding =
        {
          Kernel.readers =
            Array.map
              (fun (i, r) ->
                let name = r.Port.r_name in
                Port.tap_reader (taps inst i name (counter "port.get:" name)) r)
              wiring.Netq.inputs;
          writers =
            Array.map
              (fun (i, w) ->
                let name = w.Port.w_name in
                Port.tap_writer (taps inst i name (counter "port.put:" name)) w)
              wiring.outputs;
          context = t.context inst;
        }
      in
      Sched.spawn ~prof_key:wk.wk_prof_key t.sched ~name:inst.inst_name
        (fun () ->
          (* When a kernel terminates (normally or via End_of_stream), its
             output nets lose one producer; fully-drained nets close and the
             closure propagates downstream. *)
          Fun.protect
            ~finally:wiring.finish
            (kernel_body t ~traced wk binding)))
    t.kernels;
  Array.iteri
    (fun i net_id ->
      let source = t.cur_sources.(i) in
      let q = t.queues.(net_id) in
      let p = t.in_producers.(i) in
      let who = Io.source_name source in
      Sched.spawn t.sched ~name:who (fun () ->
          Fun.protect
            ~finally:(fun () -> Bqueue.producer_done p)
            (fun () ->
              supervise t ~who ~src:None (fun () ->
                  Io.feed (Bqueue.dtype q) ~capacity:(Bqueue.capacity q)
                    { Io.write = (fun k b off n -> Bqueue.write k p b off n) }
                    source))))
    t.graph.Serialized.input_order;
  Array.iteri
    (fun i net_id ->
      let sink = t.cur_sinks.(i) in
      let q = t.queues.(net_id) in
      let c = t.out_consumers.(i) in
      let who = Io.sink_name sink in
      Sched.spawn t.sched ~name:who (fun () ->
          supervise t ~who ~src:None (fun () ->
              Io.drain (Bqueue.dtype q) ~capacity:(Bqueue.capacity q)
                { Io.read = (fun k b off n -> Bqueue.read_upto k c b off n) }
                sink)))
    t.graph.Serialized.output_order

let occupancy_snapshot t =
  Array.to_list (Array.map (fun q -> Bqueue.name q, Bqueue.occupancy q) t.queues)

let check_io (g : Serialized.t) ~sources ~sinks =
  let n_in = Array.length g.input_order and n_out = Array.length g.output_order in
  if List.length sources <> n_in then
    fail "graph %s has %d global inputs but %d sources were supplied" g.gname n_in
      (List.length sources);
  if List.length sinks <> n_out then
    fail "graph %s has %d global outputs but %d sinks were supplied" g.gname n_out
      (List.length sinks)

let run ?deadline_ns t ~sources ~sinks =
  if t.ran then
    fail "runtime context for %s already ran; reset it (or instantiate again)" t.graph.gname;
  t.ran <- true;
  check_io t.graph ~sources ~sinks;
  t.cur_sources <- Array.of_list sources;
  t.cur_sinks <- Array.of_list sinks;
  arm t;
  let deadline_ns =
    match deadline_ns with Some _ -> deadline_ns | None -> t.config.Run_config.deadline_ns
  in
  let stats = Sched.run ?deadline_ns ?max_steps:t.config.Run_config.max_steps t.sched in
  match t.failure with
  | Some f -> Kernel_failed f
  | None ->
    (match stats.Sched.stopped with
     | Some stop ->
       (match stop.Sched.reason with
        | Sched.Cancel_requested -> Cancelled
        | Sched.Deadline | Sched.Out_of_fuel ->
          Deadline_exceeded
            {
              p_graph = t.graph.Serialized.gname;
              p_reason =
                (match stop.Sched.reason with
                 | Sched.Deadline -> `Wall_clock
                 | _ -> `Max_steps);
              p_parked = stop.Sched.parked;
              p_occupancy = occupancy_snapshot t;
              p_last_kernel = stop.Sched.last_task;
              p_stats = stats;
              p_flight = Obs.Flight.snapshot ();
            })
     | None -> Completed stats)

let stats_exn = function
  | Completed stats -> stats
  | Kernel_failed f -> raise (Runtime_error (failure_message f))
  | Deadline_exceeded p -> raise (Runtime_error (progress_message p))
  | Cancelled -> raise (Runtime_error "run cancelled")

let run_exn t ~sources ~sinks = stats_exn (run t ~sources ~sinks)

let execute ?config g ~sources ~sinks =
  let t = instantiate ?config g in
  run t ~sources ~sinks

let execute_exn ?config g ~sources ~sinks = stats_exn (execute ?config g ~sources ~sinks)
