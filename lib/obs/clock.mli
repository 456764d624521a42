(** The single wall-clock source shared by every simulator.

    All observability timestamps — scheduler slice accounting, queue
    blocked-time spans, exported trace events — come from here, so the
    numbers are mutually consistent by construction.  Readings never go
    backwards (gettimeofday steps are clamped through an atomic
    compare-and-set, so the guarantee holds across domains). *)

(** Nanoseconds since process start, monotonically non-decreasing. *)
val now_ns : unit -> float

(** The most recent [now_ns] reading, without touching the OS clock —
    one atomic load.  For coarse consumers (e.g. the flight recorder)
    where slice-granular timestamps suffice and a syscall per event
    would dominate. *)
val cached_ns : unit -> float
