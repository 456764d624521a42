(** Deterministic, seeded fault injection (chaos testing).

    A fault plan taps kernel ports ({!Port.tap}, installed by
    {!Runtime.run} when {!Run_config.faults} is set): on the
    Nth access through a matching kernel's port, the configured action
    fires.  Same seed, same plan, same graph, single-domain schedule ⇒
    same outcome.

    A plan carries {e fire budgets} shared across instantiations of the
    same plan value — atomically decremented, so a [~fires:1] fault hits
    exactly one request even when pool domains race, and a retried
    request re-instantiating the graph runs clean.  That is how transient
    faults (fail once, recover on retry) are expressed. *)

(** Raised out of a kernel body by the {!Raise} action. *)
exception Injected of string

type action =
  | Raise  (** Raise {!Injected} out of the kernel body. *)
  | Stall
      (** Busy-stall: spin on {!Sched.yield} forever.  Progress stops but
          the schedule does not, so only a deadline or fuel budget ends
          the run — pair with {!Run_config.with_deadline_ms}. *)
  | Delay of int  (** Insert N cooperative yields, then proceed. *)
  | Backpressure of int
      (** From the Nth access on, the port's advisory space probe reports
          a full queue and every put is preceded by N yields. *)

val action_to_string : action -> string

type spec = {
  fs_kernel : string;  (** Kernel instance name, or ["*"] for any. *)
  fs_action : action;
  fs_after : int;  (** Fire on the Nth port access (1-based); [<= 0]: seed-derived. *)
  fs_fires : int;  (** Total fire budget across instantiations; [-1] = unlimited. *)
}

val raise_on : kernel:string -> ?after:int -> ?fires:int -> unit -> spec
val stall_on : kernel:string -> ?after:int -> ?fires:int -> unit -> spec
val delay_on : kernel:string -> ?after:int -> ?yields:int -> ?fires:int -> unit -> spec
val backpressure_on : kernel:string -> ?after:int -> ?yields:int -> ?fires:int -> unit -> spec

type t

(** [plan ~seed specs] arms the specs: activations left at [<= 0] are
    resolved deterministically from [seed] and the kernel name. *)
val plan : ?seed:int -> spec list -> t

val seed : t -> int

(** Faults actually fired so far (all actions, all instantiations). *)
val injected : t -> int

(** Human-readable description of the armed specs (resolved activations). *)
val describe : t -> string list

(** [tap t inst port_idx port] is the plan's tap on port [port_idx]
    of [inst], named [port] in fault instants ([None] when no spec
    matches the kernel), with fresh access counters: the runtime takes
    a new one every run.  Its [before] fires a due action ahead of the
    transfer.  Each fired fault also
    emits a [faults.injected] metric and a per-port instant into the
    active {!Obs.Trace} session. *)
val tap : t -> Serialized.kernel_inst -> int -> string -> Port.tap option
