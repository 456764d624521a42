(** Parallel request serving over independent graph instances, with
    per-request supervision.

    One serialized graph, N requests, D OCaml domains: each request gets
    its own {!Runtime} instance (instances share no mutable state), so
    whole-graph simulations can run in parallel even though each
    individual instance is cooperatively scheduled on a single domain.
    This is the "many independent simulations" serving model — parameter
    sweeps, regression batteries, request services — rather than
    intra-graph parallelism.

    The pool itself is a long-lived object: {!create} spawns the worker
    domains once, {!submit} hands them a request and returns a
    {!handle} (request id + awaitable result + cooperative
    cancellation), and {!shutdown} drains queued and in-flight work and
    joins the workers.  The batch entry point {!run} — one graph, a
    fixed request population, stats at the end — is a thin wrapper:
    create, submit everything, await everything, shutdown.  Network
    front ends ({!Serve.Server}) drive {!submit}/{!await} directly.

    {b Warm serving}: each graph is {!Runtime.compile}d once under the
    pool's config — validation and the pre-flight lint verdict live in
    the pool's own warm cache, bounded (least recently used evicted)
    and keyed by graph identity alone — and
    served requests draw {!Runtime.reset} instances from the entry's
    idle list instead of rebuilding queues and wiring per attempt.  An
    attempt builds a fresh instance only when the idle list is empty,
    which is how an entry fills; after the attempt the instance is reset
    and parked (at most 8 per entry), and one whose reset fails is
    dropped.  The cache lives and dies with the pool: a fresh pool
    starts cold.

    Requests wait in one FIFO shared by every domain, and a domain that
    is free takes the oldest.  Requests are therefore taken in submit
    order, so a costly request delays only the one domain running it,
    and with [~domains:1] execution order is exactly the submit order,
    making single-domain runs deterministic and comparable to a
    sequential loop.

    Supervision, per request, driven by the {!Run_config.t}:

    - a kernel failure or deadline hit is retried up to
      [config.retries] times, sleeping a decorrelated-jitter backoff
      (seeded by [config.seed] and the request id — deterministic)
      between attempts;
    - after [config.breaker_threshold] consecutive requests whose final
      outcome was still a failure/deadline, the circuit opens and every
      not-yet-started request is shed without executing (the classic
      load-shedding breaker); successes reset the count.  {!breaker_open}
      exposes the live state so a front end can refuse admission at the
      door;
    - the fault plan and queue knobs come from the same config, which
      compiles every graph; the per-attempt deadline and the jitter
      seed too, unless {!submit} overrides them for one request.

    Observability is two-tier.  Always on (tracing or not): request
    latencies are recorded into per-domain {!Obs.Hdr} histograms and
    merged into [stats.metrics] (and the live {!metrics} snapshot),
    alongside outcome counters — {!metrics_exposition} renders them as
    Prometheus text under the ["family.parts:instance"] key convention
    ([pool.request] histogram, [pool.outcome:<label>] counters); the
    flight recorder window of the domain that opens the circuit breaker
    is kept in [stats.breaker_flight].  Additionally, when an
    {!Obs.Trace} session is active, each attempt is a span on a
    per-domain track (pid 3), and the pool emits [pool.request] timings
    plus [pool.retry], [pool.deadline], [pool.shed] and
    [pool.outcome:<label>] counters into the session. *)

type request_result = {
  req_id : int;
  domain : int;  (** Domain that executed (or shed) the request. *)
  outcome : Runtime.outcome;  (** Final outcome, after retries. *)
  attempts : int;  (** Executions performed; 0 when shed. *)
  shed : bool;  (** Refused by the open circuit breaker. *)
  req_wall_ns : float;  (** Wall time across all attempts and backoffs. *)
  req_latency_ns : float;
      (** Without a scheduled arrival: service time (= [req_wall_ns]).
          With one ([submit ~not_before_ns], or [run ~arrivals]):
          completion minus scheduled arrival, i.e. queue wait included —
          the latency a client would see. *)
}

type outcome_counts = {
  n_completed : int;
  n_deadline : int;
  n_cancelled : int;
  n_failed : int;
  n_shed : int;
  n_retried_ok : int;  (** Completed, but only on a retry attempt. *)
}

(** {1 The persistent pool} *)

(** A running pool of worker domains. *)
type t

(** One submitted request: its id, its awaitable result, its
    cancellation hook. *)
type handle

(** [create ~domains ()] spawns [domains] worker domains that serve
    submitted requests until {!shutdown}.  [config] (default
    {!Run_config.default}) is the execution config of every request;
    {!submit} can override its deadline and seed per request.  Raises
    [Invalid_argument] unless [domains] is positive. *)
val create : ?config:Run_config.t -> domains:int -> unit -> t

(** [submit pool ~io g] enqueues one request for graph [g] and returns
    immediately.  [io id] is called on the executing domain, once per
    attempt, to build the sources and sinks for this request (it must be
    safe to call concurrently with other requests' [io], and sources
    must be re-buildable if the config enables retries).

    [?deadline_ns] (a wall-clock budget per attempt) and [?seed] (the
    retry-jitter seed) override the pool config's for this request
    only.  Neither is part of the compiled graph, so requests that
    differ in them share one warm cache entry.  [?not_before_ns] is an
    absolute {!Obs.Clock.now_ns} instant: the executing domain waits it
    out before starting, and [req_latency_ns] counts from it (open-loop
    latency semantics).
    [?on_complete] runs on the executing domain right after the result
    is published — network front ends use it to write the response
    without a dedicated waiter.  An exception it raises does not reach
    the worker: it is counted as [pool.callback_failed] in {!metrics}
    and noted in the domain's {!Obs.Flight} ring (arg = request id).

    Per-request failures — including {!Runtime.Runtime_error} raised
    during wiring — are captured in the {!request_result}, never raised;
    the pool always produces a result for every submitted request.
    Compilation errors (invalid graph, failed [`Error]-level lint)
    raise out of [submit], before the request is queued.  Raises
    [Invalid_argument] after {!shutdown}. *)
val submit :
  t ->
  ?deadline_ns:float ->
  ?seed:int ->
  ?not_before_ns:float ->
  ?on_complete:(request_result -> unit) ->
  io:(int -> Io.source list * Io.sink list) ->
  Serialized.t ->
  handle

(** Pool-unique request id (dense, starting at 0). *)
val handle_id : handle -> int

(** Block until the request's final result (after retries) is
    published.  Every handle eventually completes: shed, cancelled and
    captured-failure requests all produce results. *)
val await : handle -> request_result

(** Request cooperative cancellation: a queued request completes as
    [Cancelled] without executing ([attempts = 0]); a running request
    has {!Runtime.cancel} invoked on its instance and winds down at the
    next scheduling boundary; a finished request is unaffected. *)
val cancel : handle -> unit

(** Whether the circuit breaker is currently open (new requests would be
    shed) — the admission-control signal for network front ends. *)
val breaker_open : t -> bool

(** Queued + executing requests (drain/backlog probe). *)
val pending : t -> int

(** Requests whose results have been published since {!create}. *)
val served : t -> int

(** Live always-on pool metrics: the ["pool.request"] latency HDR
    histogram (per-domain recorders merged at snapshot time),
    [pool.outcome:<label>], [pool.shed] and [pool.callback_failed]
    counters, retry/warm/cold totals and a [pool.domains]
    gauge.  Populated with tracing off; safe to call while requests are
    in flight. *)
val metrics : t -> Obs.Metrics.snapshot

(** Stop accepting new submissions, finish every queued and in-flight
    request, join the worker domains.  Idempotent.  Handles submitted
    before the call remain awaitable afterwards. *)
val shutdown : t -> unit

(** {1 Batch runs} *)

type stats = {
  domains : int;
  requests : int;
  results : request_result array;  (** Indexed by request id. *)
  retries : int;  (** Retry attempts across all requests. *)
  warm_hits : int;  (** Attempts served by a reused (reset) instance. *)
  cold_builds : int;  (** Attempts that built a fresh instance. *)
  breaker_tripped : bool;  (** The circuit opened at least once. *)
  counts : outcome_counts;
  wall_ns : float;  (** Whole-pool wall time, create to shutdown. *)
  metrics : Obs.Metrics.snapshot;
      (** Always-on pool metrics (see {!metrics}), snapshotted after the
          joins. *)
  breaker_flight : Obs.Flight.entry list;
      (** Flight-recorder window (oldest first) from the domain that
          opened the circuit breaker; [[]] when it never tripped. *)
}

(** [run ~domains ~requests ~io g] executes [requests] independent
    instances of [g] on [domains] parallel domains under [config]
    (default {!Run_config.default}): a {!create}/{!submit}/{!await}/
    {!shutdown} round in one call, except that every request is queued
    before the worker domains start.  [io r] is called on the executing domain, once
    per attempt, to build the sources and sinks for request [r].  The
    graph is compiled (and linted) once up front, not per request.

    [?arrivals] switches the pool from closed-loop (execute as fast as
    the domains allow) to open-loop: [arrivals.(r)] is request [r]'s
    scheduled arrival as a ns offset from pool start (see
    [submit ?not_before_ns]).  Offsets should be non-decreasing in
    request id.  Raises [Invalid_argument] if the array length differs
    from [requests], or if [domains]/[requests] is not positive. *)
val run :
  ?config:Run_config.t ->
  ?arrivals:float array ->
  domains:int ->
  requests:int ->
  io:(int -> Io.source list * Io.sink list) ->
  Serialized.t ->
  stats

(** Prometheus text exposition (format 0.0.4) of [stats.metrics]:
    [cgsim_pool_request] histogram series plus the outcome counters
    ([cgsim_pool_outcome_total{id="completed"}], ...).  See
    {!Obs.Prom}. *)
val metrics_exposition : stats -> string
