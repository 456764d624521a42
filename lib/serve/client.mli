(** Client side of the [cgx-serve/2] protocol: one connection, blocking
    or pipelined use.

    Blocking ({!run}, {!metrics}, {!ping}): send one request, wait for
    its reply.  Pipelined ({!send_run} + {!recv}): keep several [run]
    requests in flight on the connection — the server replies as
    requests complete, in completion order, each reply carrying the id
    {!send_run} returned.  {!send_run} is safe to call from a different
    domain than the one looping on {!recv} (one sender, one receiver);
    don't mix blocking calls into a pipelined exchange. *)

type t

(** [connect addr] opens a connection.  [retries] (default 0) retries a
    refused/absent endpoint with a short backoff — for racing a daemon
    that is still binding its socket.  Raises [Unix.Unix_error] when the
    endpoint stays unreachable.  Ignores SIGPIPE process-wide. *)
val connect : ?retries:int -> Addr.t -> t

val close : t -> unit

(** {1 Blocking} *)

(** [run t ~graph inputs] sends one run request ([inputs]: one element
    list per graph input, in [input_order]) and waits for the reply.
    [Error] covers transport failures, protocol errors and structured
    server errors; outcomes (deadline, shed, failed...) are [Ok] with
    the taxonomy inside {!Wire.run_reply}. *)
val run :
  t ->
  ?deadline_ms:float ->
  ?seed:int ->
  graph:string ->
  Cgsim.Value.t list list ->
  (Wire.run_reply, string) result

(** Prometheus exposition of the server's live metrics. *)
val metrics : t -> (string, string) result

(** Round-trip liveness probe; [Ok rtt_ns]. *)
val ping : t -> (float, string) result

(** {1 Pipelined} *)

(** Send a run request without waiting; returns the request id its reply
    will carry. *)
val send_run :
  t -> ?deadline_ms:float -> ?seed:int -> graph:string -> Cgsim.Value.t list list -> int

(** Next reply frame, in server completion order. *)
val recv : t -> (Wire.reply, string) result
