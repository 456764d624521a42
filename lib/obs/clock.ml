(* One clock source for the whole stack.  Sched slice accounting, queue
   blocked-time spans and exported trace timestamps must be mutually
   comparable, so everything reads this module instead of calling
   Unix.gettimeofday directly.

   The clock is "monotonic-ish": gettimeofday can step backwards under
   NTP adjustment, which would produce negative span durations and
   Perfetto refuses such traces, so readings are clamped to never go
   below the last value handed out.  The origin is process start, which
   keeps the exported microsecond timestamps small.

   The clamp is an integer-nanosecond Atomic advanced by CAS: concurrent
   x86sim/pool domains always observe a non-decreasing sequence, and the
   int payload keeps the hot path allocation-free (a float Atomic would
   box on every store).  gettimeofday resolves microseconds, so integer
   nanoseconds lose nothing. *)

let epoch = Unix.gettimeofday ()

let last = Atomic.make 0

let now_ns () =
  let t = int_of_float ((Unix.gettimeofday () -. epoch) *. 1e9) in
  let rec clamp () =
    let l = Atomic.get last in
    if t <= l then float_of_int l
    else if Atomic.compare_and_set last l t then float_of_int t
    else clamp ()
  in
  clamp ()

(* The last value handed out, without reading the OS clock: one atomic
   load, no syscall.  Precise to the most recent [now_ns] call from
   anywhere in the process (the cgsim scheduler calls it twice per
   slice), which is all coarse consumers like the flight recorder need. *)
let cached_ns () = float_of_int (Atomic.get last)
