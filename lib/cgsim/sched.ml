open Effect
open Effect.Deep

exception Terminated
exception End_of_stream

(* A slice allocates nothing of its own: what it stores per task (the
   current-fiber slot's pair, [last_ran]'s option) is built at spawn, and
   its time adds into an int.  What remains is the effect round trip: a
   yield's continuation and the [Ready] cell that keeps it. *)
type task = {
  name : string;
  prof_key : string;  (* "kernel.self_ns:<name>", precomputed so the
                         per-slice profiler observe never allocates *)
  some_name : string option;
  self : (t * task) option;  (* the current-fiber slot while it runs *)
  mutable gen : int;  (* park generation; wakers from older parks are stale *)
  mutable state : task_state;
}

and task_state =
  | Initial of (unit -> unit)
  | Running
  | Parked of (unit, unit) continuation
  | Ready of (unit, unit) continuation
  | Finished

(* The ready FIFO: a circular array that doubles when full, so a push
   or a take allocates nothing once it holds the graph's fibers ([Queue]
   allocates a cell per push). *)
and fifo = {
  mutable buf : task array;
  mutable head : int;
  mutable len : int;
}

and waker = {
  w_task : task;
  w_gen : int;
  w_sched : t;
}

and t = {
  ready : fifo;
  mutable tasks : task list;  (* reverse spawn order *)
  mutable spawned : int;
  mutable completed : int;
  mutable cancelled : int;
  mutable failed : (string * exn) list;
  mutable slices : int;
  mutable kernel_ns : int;  (* an int, so the per-slice add boxes nothing *)
  mutable in_run : bool;
  mutable n_parked : int;  (* tasks in [Parked _], so idle checks are O(1) *)
  mutable stop : stop_reason option;  (* cooperative cancel token *)
  mutable stop_info : stop option;  (* snapshot taken when [stop] was set *)
  mutable last_ran : string option;  (* last task that executed a slice *)
}

and stop_reason =
  | Cancel_requested
  | Deadline
  | Out_of_fuel

and stop = {
  reason : stop_reason;
  parked : string list;  (* parked fibers at stop detection, spawn order *)
  last_task : string option;
  stop_slices : int;
}

type stats = {
  spawned : int;
  completed : int;
  cancelled : int;
  failed : (string * exn) list;
  slices : int;
  kernel_ns : float;
  total_ns : float;
  stopped : stop option;
}

let stop_reason_to_string = function
  | Cancel_requested -> "cancelled"
  | Deadline -> "deadline"
  | Out_of_fuel -> "max-steps"

let kernel_fraction s = if s.total_ns <= 0.0 then 0.0 else s.kernel_ns /. s.total_ns

let pp_stats ppf s =
  Format.fprintf ppf
    "@[<v>spawned=%d completed=%d cancelled=%d failed=%d@ slices=%d kernel=%.3fms total=%.3fms \
     kernel-fraction=%.4f%s@]"
    s.spawned s.completed s.cancelled (List.length s.failed) s.slices (s.kernel_ns /. 1e6)
    (s.total_ns /. 1e6) (kernel_fraction s)
    (match s.stopped with
     | None -> ""
     | Some st -> Printf.sprintf " stopped=%s" (stop_reason_to_string st.reason))

let push q task =
  let cap = Array.length q.buf in
  if q.len = cap then begin
    let b = Array.make (Int.max 8 (2 * cap)) task in
    for i = 0 to q.len - 1 do
      b.(i) <- q.buf.((q.head + i) mod cap)
    done;
    q.buf <- b;
    q.head <- 0
  end;
  let cap = Array.length q.buf in
  let i = q.head + q.len in
  q.buf.(if i >= cap then i - cap else i) <- task;
  q.len <- q.len + 1

(* The caller checks [q.len > 0]. *)
let take q =
  let task = q.buf.(q.head) in
  let h = q.head + 1 in
  q.head <- (if h = Array.length q.buf then 0 else h);
  q.len <- q.len - 1;
  task

let create () =
  {
    ready = { buf = [||]; head = 0; len = 0 };
    tasks = [];
    spawned = 0;
    completed = 0;
    cancelled = 0;
    failed = [];
    slices = 0;
    kernel_ns = 0;
    in_run = false;
    n_parked = 0;
    stop = None;
    stop_info = None;
    last_ran = None;
  }

type _ Effect.t +=
  | Park_eff : (waker -> unit) -> unit Effect.t
  | Yield_eff : unit Effect.t

(* The current scheduler for the running fiber.  Each scheduler instance
   is single-threaded by design (Section 5.2 discusses this trade-off),
   but the domain pool (Pool) runs one independent scheduler per domain,
   so the slot is domain-local rather than a plain global; x86sim uses OS
   threads and never goes through this module. *)
let current_key : (t * task) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let current () = Domain.DLS.get current_key

let current_name () =
  match !(current ()) with
  | Some (_, task) -> task.name
  | None -> "<host>"

(* The single clock shared with the observability layer: scheduler stats
   and exported obs spans must agree on what "now" means.  Integer
   nanoseconds, so a reading is not boxed. *)
let now_ns = Obs.Clock.now_int_ns

let spawn ?prof_key (t : t) ~name fn =
  let prof_key =
    match prof_key with Some k -> k | None -> Obs.Profile.prefix ^ name
  in
  let rec task =
    { name; prof_key; some_name = Some name; self = Some (t, task); gen = 0; state = Initial fn }
  in
  t.spawned <- t.spawned + 1;
  t.tasks <- task :: t.tasks;
  push t.ready task

(* Restore a scheduler to its freshly-[create]d state so a warm runtime
   instance can respawn its fibers without reallocating the scheduler.
   All fibers must already be finished (every [run] drives the task set
   to quiescence or terminates it), so dropping the task list loses no
   live continuation. *)
let reset (t : t) =
  if t.in_run then invalid_arg "cgsim: Sched.reset called during run";
  t.ready.head <- 0;
  t.ready.len <- 0;
  t.tasks <- [];
  t.spawned <- 0;
  t.completed <- 0;
  t.cancelled <- 0;
  t.failed <- [];
  t.slices <- 0;
  t.kernel_ns <- 0;
  t.n_parked <- 0;
  t.stop <- None;
  t.stop_info <- None;
  t.last_ran <- None

(* Suspension points double as the cancellation checkpoints: once the
   scheduler's stop token is set, a fiber reaching any park/yield boundary
   is terminated instead of suspended, so cancellation cascades cannot
   re-park and the stop is guaranteed to drain (only a fiber that never
   suspends can outlive it). *)
let yield () =
  match !(current ()) with
  | Some (t, _) -> if t.stop <> None then raise Terminated else perform Yield_eff
  | None -> ()

let park register =
  match !(current ()) with
  | Some (t, _) ->
    if t.stop <> None then raise Terminated else perform (Park_eff register)
  | None -> invalid_arg "cgsim: Sched.park called outside of a running fiber"

(* Batched wake: one pass over the waiter list and a single metric update.
   Stale wakers (task re-parked under a newer generation, already ready,
   or finished) are skipped. *)
let wake_batch ws =
  let traced = !Obs.Trace.on in
  let woken = ref 0 in
  List.iter
    (fun w ->
      let task = w.w_task in
      match task.state with
      | Parked k when task.gen = w.w_gen ->
        task.state <- Ready k;
        w.w_sched.n_parked <- w.w_sched.n_parked - 1;
        incr woken;
        if traced then Obs.Trace.instant ~track:task.name ~cat:"sched" "wake";
        push w.w_sched.ready task
      | Parked _ | Initial _ | Running | Ready _ | Finished -> ())
    ws;
  if traced && !woken > 0 then Obs.Trace.add_metric "sched.wakes" (float_of_int !woken)

let parked_tasks (t : t) =
  List.filter
    (fun task -> match task.state with Parked _ -> true | _ -> false)
    (List.rev t.tasks)

let parked_names t = List.map (fun task -> task.name) (parked_tasks t)

(* First stop wins; the snapshot is taken here, before any fiber is torn
   down, so post-mortems see the graph as it was when progress ended. *)
let set_stop t reason =
  if t.stop = None then begin
    t.stop <- Some reason;
    t.stop_info <-
      Some { reason; parked = parked_names t; last_task = t.last_ran; stop_slices = t.slices };
    Obs.Flight.note Obs.Flight.Stop (stop_reason_to_string reason);
    if !Obs.Trace.on then begin
      Obs.Trace.instant ~track:"<scheduler>" ~cat:"sched" (stop_reason_to_string reason);
      Obs.Trace.incr_metric "sched.cancel"
    end
  end

let cancel t = set_stop t Cancel_requested

(* Handler installed around every fiber body.  Park and Yield capture the
   one-shot continuation and stash it on the task record.  A yield's
   handler is built once per fiber, not per yield. *)
let fiber_handler (t : t) (task : task) : (unit, unit) handler =
  let on_yield =
    Some
      (fun (k : (unit, unit) continuation) ->
        task.state <- Ready k;
        push t.ready task)
  in
  let finish outcome =
    task.state <- Finished;
    match outcome with
    | `Completed -> t.completed <- t.completed + 1
    | `Cancelled -> t.cancelled <- t.cancelled + 1
    | `Failed e -> t.failed <- (task.name, e) :: t.failed
  in
  {
    retc = (fun () -> finish `Completed);
    exnc =
      (fun e ->
        match e with
        | End_of_stream -> finish `Completed
        | Terminated -> finish `Cancelled
        | e -> finish (`Failed e));
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Park_eff register ->
          Some
            (fun (k : (a, unit) continuation) ->
              task.gen <- task.gen + 1;
              task.state <- Parked k;
              t.n_parked <- t.n_parked + 1;
              Obs.Flight.note Obs.Flight.Park task.name;
              if !Obs.Trace.on then begin
                Obs.Trace.instant ~track:task.name ~cat:"sched" "park";
                Obs.Trace.incr_metric "sched.parks"
              end;
              register { w_task = task; w_gen = task.gen; w_sched = t })
        | Yield_eff -> (on_yield : ((a, unit) continuation -> unit) option)
        | _ -> None);
  }

let resume (t : t) (task : task) =
  match task.state with
  | Initial fn ->
    task.state <- Running;
    match_with fn () (fiber_handler t task)
  | Ready k ->
    task.state <- Running;
    continue k ()
  | Running | Parked _ | Finished ->
    (* A task can be enqueued at most once per ready transition; other
       states mean a stale queue entry (e.g. woken then cancelled). *)
    ()

let run_slice (t : t) (task : task) =
  let slot = current () in
  let saved = !slot in
  slot := task.self;
  let t0 = now_ns () in
  resume t task;
  let t1 = now_ns () in
  let dt = t1 - t0 in
  t.kernel_ns <- t.kernel_ns + dt;
  t.slices <- t.slices + 1;
  t.last_ran <- task.some_name;
  Obs.Flight.note_at ~ts_ns:t1 Obs.Flight.Slice ~arg:dt task.name;
  if !Obs.Trace.on then begin
    (* The span duration is exactly what was added to kernel_ns, so the
       exported trace and Sched.stats stay mutually consistent. *)
    let dur = float_of_int dt in
    Obs.Trace.span ~track:task.name ~cat:"sched" ~name:"slice" ~ts_ns:(float_of_int t0)
      ~dur_ns:dur ();
    Obs.Trace.observe_ns "sched.slice_ns" dur;
    (* Per-kernel self time: the same slice duration keyed by kernel, so
       Obs.Profile can render a sorted profile and collapsed stacks. *)
    Obs.Trace.observe_ns task.prof_key dur
  end;
  slot := saved

(* Raise [Terminated] inside a suspended fiber so its cleanup code runs,
   with the fiber as the current one meanwhile.  [discontinue] runs under
   the handler captured at fiber start, which accounts for the outcome;
   a task left [Running] is only marked finished. *)
let terminate task k =
  task.state <- Running;
  let slot = current () in
  let saved = !slot in
  slot := task.self;
  (try discontinue k Terminated with Terminated -> ());
  slot := saved;
  match task.state with
  | Running -> task.state <- Finished
  | Initial _ | Parked _ | Ready _ | Finished -> ()

let cancel_parked t =
  (* End-of-run cleanup (Section 3.8): terminate fibers that can no longer
     make progress so their cleanup code runs.  Cancellation may ready new
     work (e.g. a cancelled producer closing a stream wakes a consumer), so
     the caller loops back into the main schedule afterwards. *)
  List.iter
    (fun task ->
      match task.state with
      | Parked k ->
        t.n_parked <- t.n_parked - 1;
        terminate task k
      | Initial _ | Running | Ready _ | Finished -> ())
    (parked_tasks t)

(* Forced teardown after a stop: discontinue every live fiber with
   {!Terminated} so cleanup code runs.  Because park/yield raise once the
   stop token is set, no fiber can re-suspend, so each pass strictly
   shrinks the live set and the loop terminates. *)
let terminate_all (t : t) =
  let discontinue_ready task =
    match task.state with
    | Ready k -> terminate task k
    | Initial _ ->
      (* Never started: no cleanup to run, just account for it. *)
      task.state <- Finished;
      t.cancelled <- t.cancelled + 1
    | Running | Parked _ | Finished -> ()
  in
  let rec pass () =
    if t.ready.len > 0 then begin
      discontinue_ready (take t.ready);
      pass ()
    end
    else begin
      List.iter discontinue_ready
        (List.filter
           (fun task -> match task.state with Ready _ | Initial _ -> true | _ -> false)
           t.tasks);
      if t.n_parked > 0 then begin
        cancel_parked t;
        pass ()
      end
      else if t.ready.len > 0 then pass ()
    end
  in
  pass ()

let run ?deadline_ns ?max_steps (t : t) =
  if t.in_run then invalid_arg "cgsim: Sched.run is not reentrant";
  t.in_run <- true;
  let t0 = now_ns () in
  let deadline_abs = Option.map (fun d -> t0 + int_of_float d) deadline_ns in
  (* Budget checks run between slices — the park/wake boundary of whichever
     fiber is about to be scheduled — so a stop is detected after at most
     one further slice of execution. *)
  let check_budget () =
    if t.stop = None then begin
      (match deadline_abs with
       | Some d when now_ns () > d -> set_stop t Deadline
       | Some _ | None -> ());
      match max_steps with
      | Some m when t.stop = None && t.slices >= m -> set_stop t Out_of_fuel
      | Some _ | None -> ()
    end
  in
  let rec drive () =
    check_budget ();
    if t.stop = None then begin
      if t.ready.len > 0 then begin
        run_slice t (take t.ready);
        drive ()
      end
      else if t.n_parked > 0 then begin
        cancel_parked t;
        if t.ready.len > 0 then drive ()
      end
    end
  in
  drive ();
  if t.stop <> None then terminate_all t;
  t.in_run <- false;
  let total_ns = float_of_int (now_ns () - t0) in
  if !Obs.Trace.on then
    Obs.Trace.span ~track:"<scheduler>" ~cat:"sched" ~name:"run" ~ts_ns:(float_of_int t0)
      ~dur_ns:total_ns ();
  {
    spawned = t.spawned;
    completed = t.completed;
    cancelled = t.cancelled;
    failed = List.rev t.failed;
    slices = t.slices;
    kernel_ns = float_of_int t.kernel_ns;
    total_ns;
    stopped = t.stop_info;
  }
