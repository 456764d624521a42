(** The single wall-clock source shared by every simulator.

    All observability timestamps — scheduler slice accounting, queue
    blocked-time spans, exported trace events — come from here, so the
    numbers are mutually consistent by construction.  Readings never go
    backwards (gettimeofday steps are clamped through an atomic
    compare-and-set, so the guarantee holds across domains). *)

(** Nanoseconds since process start, monotonically non-decreasing. *)
val now_ns : unit -> float

(** {!now_ns} as an int.  A float result is boxed on its way out of the
    call, so per-slice callers (the cgsim scheduler) take this one. *)
val now_int_ns : unit -> int

(** The most recent reading, without touching the OS clock — one atomic
    load.  For coarse consumers (e.g. the flight recorder) where
    slice-granular timestamps suffice and a syscall per event would
    dominate. *)
val cached_int_ns : unit -> int
