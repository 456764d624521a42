(** The [cgx serve] daemon: a socket front door over {!Cgsim.Pool}.

    One server owns one persistent pool and a registry of named graphs.
    {!create} binds the listen socket (connectable as soon as it
    returns); {!serve} runs the accept loop — one reader domain per
    connection, requests submitted to the pool with a completion
    callback that writes the reply from the worker domain, so a
    connection can pipeline: replies carry the request's [id] and may
    arrive out of submission order.

    {b Admission control.}  A [run] request that arrives while the
    pool's circuit breaker is open is refused at the door with a
    structured [shed] result ([attempts = 0]) — the client sees the same
    taxonomy the pool's own shedding produces, without the request ever
    queueing.

    {b Graceful drain.}  {!stop} (or SIGTERM/SIGINT after
    {!install_signal_handlers}) makes {!serve} stop accepting, shut down
    the read side of every open connection (clients see EOF after their
    last reply), wait for every in-flight request to complete and its
    reply to be written, join the connection domains, shut the pool
    down, and return.  No accepted request is ever dropped.

    {b Metrics.}  A [metrics] request returns the Prometheus exposition
    of the pool's live metrics merged with the server's own families
    ([cgsim_serve_connection_total], [cgsim_serve_request_total{id=...}],
    [cgsim_serve_error_total{id=...}], [cgsim_serve_conn_error_total]).
    A connection whose reader dies of an exception (a peer reset, say)
    bumps [serve.conn_error] and prints one stderr line naming the
    exception; the daemon keeps serving.  With [stats_interval_s] set,
    the accept loop also prints a one-line serving summary (served /
    in-flight / warm hits / cold builds / breaker state) to stderr at
    that period. *)

type t

(** [create ~graphs ~domains ~listen ()] compiles nothing up front —
    graphs compile (and cache) on first request — but binds and listens
    immediately.  [config] is the pool-wide default {!Cgsim.Run_config.t};
    per-request [deadline_ms]/[seed] overrides layer on top of it.
    Raises [Unix.Unix_error] when the address cannot be bound (an
    existing Unix socket path is replaced, not an error).  Also ignores
    SIGPIPE process-wide: a peer closing mid-reply must surface as
    [EPIPE], not kill the daemon. *)
val create :
  ?config:Cgsim.Run_config.t ->
  ?stats_interval_s:float ->
  graphs:(string * Cgsim.Serialized.t) list ->
  domains:int ->
  listen:Addr.t ->
  unit ->
  t

(** Run the accept loop until {!stop}; returns after the drain completes
    (see above). *)
val serve : t -> unit

(** Begin graceful drain.  Callable from any domain and from signal
    handlers; idempotent. *)
val stop : t -> unit

(** Route SIGTERM and SIGINT to {!stop}. *)
val install_signal_handlers : t -> unit

(** The address {!create} bound; a TCP port 0 reads back as the port
    the kernel picked. *)
val addr : t -> Addr.t

(** Requests served since start (any type, including refusals).  A
    request counts once it has been answered or handed to the pool, so
    a {!stop} issued after the count includes it cannot refuse it. *)
val served : t -> int
