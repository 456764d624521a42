(** Unified execution configuration.

    One record consolidating what used to be a sprawl of optional
    arguments across {!Runtime.instantiate}/{!Runtime.execute},
    {!Pool.run} and [X86sim.Sim.run], plus the robustness knobs
    (deadlines, fuel, retries, circuit breaker, fault injection).

    Build with [Run_config.(default |> with_deadline_ms 50. |> with_retries 2)]
    and pass as [~config].  Fields are exposed for pattern matching; use
    the [with_*] builders for forward compatibility. *)

(** Pre-flight lint behaviour: [`Off] skips the analysis, [`Warn] (the
    default) prints warning/error findings to stderr and proceeds,
    [`Error] refuses to run a graph with error-level findings. *)
type lint_level =
  [ `Off
  | `Warn
  | `Error
  ]

type t = {
  queue_capacity : int option;
      (** Override every net's resolved queue depth; default per-net. *)
  lint : lint_level;  (** Pre-flight static analysis (default [`Warn]). *)
  deadline_ns : float option;
      (** Wall-clock budget per run (per attempt under {!Pool}). *)
  max_steps : int option;  (** Scheduler slice budget (fuel). *)
  retries : int;
      (** {!Pool} only: retry budget for retryable outcomes
          (kernel failures, deadline hits); default 0. *)
  retry_base_ns : float;
      (** Decorrelated-jitter backoff base (default 1 ms); 0 disables
          sleeping between attempts. *)
  retry_cap_ns : float;  (** Backoff cap (default 100 ms). *)
  breaker_threshold : int option;
      (** {!Pool} only: consecutive final failures after which the
          circuit opens and remaining requests are shed; default off. *)
  faults : Faults.t option;  (** Fault-injection plan; default none. *)
  seed : int;  (** Seed for backoff jitter (determinism). *)
  auto_capacity : bool;
      (** Capacity synthesis (default [false]): at {!Runtime.compile}
          time, raise each net's queue depth to the minimal
          deadlock-free capacity suggested by the static analyzer's
          capacity pass ({!Capacity.suggest}, finding CG-I204).
          Depths are only ever raised, never lowered, so a clean graph
          is untouched. *)
}

val default : t

val with_queue_capacity : int -> t -> t
val with_lint : lint_level -> t -> t
val with_deadline_ms : float -> t -> t
val with_max_steps : int -> t -> t
val with_retries : int -> t -> t
val with_backoff : ?base_ns:float -> ?cap_ns:float -> t -> t
val with_breaker : int -> t -> t
val with_faults : Faults.t -> t -> t
val with_seed : int -> t -> t
val with_auto_capacity : bool -> t -> t
