(** Seeded random SDF graph generator and differential lint-vs-runtime
    oracle.

    {!generate} builds compute graphs that are balanced by construction
    (kernel repetitions are drawn first; every net's per-iteration
    traffic is a common multiple of its endpoints' repetitions, so port
    rates are exact integers), each with one diamond — the undirected
    cycle that makes imbalance statically detectable — and optionally a
    prologue-seeded feedback cycle.  Defects are injected deliberately
    and labelled:

    - {!Imbalance}: one diamond edge's reader rate is perturbed, so the
      balance equations are inconsistent — the linter must report
      [CG-E101];
    - {!Under_capacity}: the feedback net's depth is set below the
      cycle's per-firing demand — the linter must report [CG-E201], the
      runtime (lint off) must actually deadlock, and
      [Run_config.auto_capacity] must rescue the run with the minimal
      depth (one element less deadlocks again);
    - {!Starved_cycle}: the cycle kernels declare no rates and emit no
      initial tokens — the linter must report [CG-W202] (unverifiable)
      and the runtime must deadlock.

    Clean graphs must lint clean, draw no capacity suggestions, and
    complete on both cgsim and x86sim with bit-identical outputs of the
    statically known length.  {!Sdf_oracle.check} asserts exactly
    these correspondences; {!Sdf_oracle.run_suite} sweeps them over the deterministic {!nth_case} mix.  Everything
    derives from explicit seeds, so any reported disagreement
    reproduces exactly. *)

type defect =
  | Imbalance
  | Under_capacity
  | Starved_cycle

val defect_to_string : defect -> string

type case = {
  c_name : string;
  c_seed : int;
  c_defect : defect option;
  c_graph : Cgsim.Serialized.t;
  c_input : float array;  (** Input stream for the graph's one input. *)
  c_expected_out : int;  (** Output elements a correct complete run yields. *)
  c_fb_net : int option;  (** Feedback net id, when the case has a cycle. *)
  c_fb_need : int;  (** Its minimal deadlock-free depth (0 without cycle). *)
}

(** [generate ?defect ~seed ()] builds one case; deterministic in
    (seed, defect).  Generated kernels are memoized under
    behavior-encoding names (prefix ["sdfgen_"]), so a name always means
    one definition and repeated generation is idempotent. *)
val generate : ?defect:defect -> seed:int -> unit -> case

(** The deterministic case mix: seeds [1000+i], cycling three clean
    cases then one of each defect. *)
val nth_case : int -> case
