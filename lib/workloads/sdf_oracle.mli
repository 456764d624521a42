(** Differential lint-vs-runtime oracle over {!Sdf_gen} cases.

    [check] asserts the correspondences documented on {!Sdf_gen}:
    clean graphs lint clean, draw no capacity suggestions and complete
    on both cgsim and x86sim with bit-identical outputs of the statically known length; injected
    defects draw their predicted diagnostic and (where applicable)
    genuinely deadlock, with [Run_config.auto_capacity] rescuing
    under-buffered cycles at exactly the suggested depth — one element
    less deadlocks again. *)

(** Run one case against the oracle; returns human-readable
    disagreement descriptions (empty = linter and runtime agree). *)
val check : Sdf_gen.case -> string list

(** [run_suite ?progress count] checks {!Sdf_gen.nth_case}
    [0..count-1]; [progress done disagreements] is called after each.
    Returns all disagreements. *)
val run_suite : ?progress:(int -> int -> unit) -> int -> string list
