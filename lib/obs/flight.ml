(* Always-on flight recorder.

   The trace session (Obs.Trace) answers "record everything while I
   watch"; production failures happen when nobody is watching.  The
   flight recorder is the other half: a tiny per-domain ring of coarse
   events (scheduler slices, parks, stops, pool requests, fault
   injections) that runs permanently — tracing on or off — and is
   snapshotted into failure outcomes, so a Deadline_exceeded or
   Kernel_failed that reaches an operator carries its own last-N-events
   context.

   Cost discipline, in order of importance:
   - [note] never allocates: the ring is struct-of-arrays (float/int/
     string slots written in place) and callers pass pre-existing
     strings (fiber names, port names), never Printf results.
   - One ring per domain via Domain.DLS: a single writer each, no locks,
     no contention.  Snapshots read the writer's own ring (the failing
     domain snapshots itself at the failure site), so no cross-domain
     reads race with writes.
   - Events are emitted at scheduler/supervision granularity (a slice,
     a park, a request), never per element, keeping the overhead on the
     Table 2 micro path well under 2 %.

   [set_enabled false] exists for overhead A/B measurements; the check
   is one Atomic.get on the note path. *)

type kind =
  | Slice  (* a fiber ran one scheduler slice; arg = duration ns *)
  | Park  (* a fiber suspended on a queue *)
  | Stop  (* scheduler stop token set; name = reason *)
  | Body_raise  (* a kernel body raised; name = kernel instance *)
  | Request  (* pool request started; arg = request id *)
  | Retry  (* pool retry; arg = attempt number *)
  | Breaker  (* pool circuit breaker opened *)
  | Fault  (* fault plan injected; name = port *)
  | Note  (* free-form *)

let kind_to_string = function
  | Slice -> "slice"
  | Park -> "park"
  | Stop -> "stop"
  | Body_raise -> "raise"
  | Request -> "request"
  | Retry -> "retry"
  | Breaker -> "breaker"
  | Fault -> "fault"
  | Note -> "note"

type entry = { fl_ts_ns : float; fl_kind : kind; fl_name : string; fl_arg : float }

let default_capacity = 256

(* Struct-of-arrays ring: writing an event is four array stores and an
   index bump, no allocation (floats unbox into float arrays). *)
type ring = {
  ts : float array;
  kinds : kind array;
  names : string array;
  args : float array;
  mutable next : int;  (* total events ever noted on this domain *)
}

let ring_key : ring Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        ts = Array.make default_capacity 0.0;
        kinds = Array.make default_capacity Note;
        names = Array.make default_capacity "";
        args = Array.make default_capacity 0.0;
        next = 0;
      })

let enabled = Atomic.make true

let set_enabled b = Atomic.set enabled b

let capacity = default_capacity

(* [note_at] writes the ring with a caller-supplied timestamp; [note]
   uses the cached clock (one atomic load, no syscall) — the scheduler
   refreshes the real clock twice per slice, which is exactly the
   granularity flight events are emitted at.  default_capacity is a
   power of two, so the index wrap is a mask, not a division. *)
let note_at ~ts kind ?(arg = 0.0) name =
  if Atomic.get enabled then begin
    let r = Domain.DLS.get ring_key in
    let i = r.next land (default_capacity - 1) in
    r.ts.(i) <- ts;
    r.kinds.(i) <- kind;
    r.names.(i) <- name;
    r.args.(i) <- arg;
    r.next <- r.next + 1
  end

let note kind ?arg name = note_at ~ts:(Clock.cached_ns ()) kind ?arg name

(* Oldest-first window of the CURRENT domain's ring.  Failure paths call
   this on the domain that hit the failure, which is also the ring's
   only writer, so the read is race-free. *)
let snapshot () =
  let r = Domain.DLS.get ring_key in
  let n = min r.next default_capacity in
  let first = r.next - n in
  List.init n (fun i ->
      let j = (first + i) mod default_capacity in
      { fl_ts_ns = r.ts.(j); fl_kind = r.kinds.(j); fl_name = r.names.(j); fl_arg = r.args.(j) })

let noted () = (Domain.DLS.get ring_key).next

let clear () =
  let r = Domain.DLS.get ring_key in
  r.next <- 0

let pp_entry ppf e =
  Format.fprintf ppf "%10.0f %-8s %s" e.fl_ts_ns (kind_to_string e.fl_kind) e.fl_name;
  if e.fl_arg <> 0.0 then Format.fprintf ppf " (%g)" e.fl_arg

let render entries =
  let b = Buffer.create 256 in
  List.iter (fun e -> Buffer.add_string b (Format.asprintf "%a\n" pp_entry e)) entries;
  Buffer.contents b
