(** Always-on flight recorder: a per-domain ring of the last
    {!capacity} coarse events (scheduler slices, parks, stops, pool
    requests, fault injections), running whether or not an {!Trace}
    session is active.

    Failure paths ({!Cgsim.Runtime} outcomes, the pool's breaker-open)
    call {!snapshot} on the domain that hit the failure, so every
    production failure ships with its recent-history context — the
    thing a post-hoc trace can never recover.

    [note] is allocation-free (struct-of-arrays ring, single writer per
    domain, no locks); callers pass pre-existing strings.  Events are
    emitted at scheduler/supervision granularity, never per element. *)

type kind =
  | Slice  (** A fiber ran one scheduler slice; arg = duration ns. *)
  | Park
  | Stop  (** Scheduler stop token set; name = reason. *)
  | Body_raise  (** A kernel body raised; name = kernel instance. *)
  | Request  (** Pool request started; arg = request id. *)
  | Retry  (** Pool retry; arg = attempt number. *)
  | Breaker  (** Pool circuit breaker opened. *)
  | Fault  (** Fault plan injected; name = port. *)
  | Note

val kind_to_string : kind -> string

type entry = { fl_ts_ns : float; fl_kind : kind; fl_name : string; fl_arg : float }

(** Ring capacity per domain (events retained). *)
val capacity : int

(** Record an event on the current domain's ring.  Never reads the OS
    clock (it stamps entries with {!Clock.cached_int_ns}, which the
    scheduler refreshes every slice); pass an existing string, not a
    [Printf] result.  Allocates nothing without [arg]. *)
val note : kind -> ?arg:int -> string -> unit

(** As {!note} with an exact caller-supplied timestamp, for sites that
    just read the clock anyway (the scheduler's slice accounting).  Every
    argument is an int or a pointer, so the call boxes nothing. *)
val note_at : ts_ns:int -> kind -> arg:int -> string -> unit

(** Oldest-first window of the current domain's ring. *)
val snapshot : unit -> entry list

(** Total events ever noted on the current domain. *)
val noted : unit -> int

(** Reset the current domain's ring (tests). *)
val clear : unit -> unit

(** Global kill switch for overhead A/B measurements; on by default. *)
val set_enabled : bool -> unit

(** One line per entry, oldest first. *)
val render : entry list -> string
