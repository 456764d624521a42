(** The [cgx-serve/2] wire protocol: length-prefixed JSON frames with a
    versioned envelope, plus the strict codec both ends share.

    {b Framing.}  A frame is a 4-byte big-endian payload length followed
    by that many bytes of UTF-8 JSON.  Frames larger than
    {!max_frame_bytes} are refused before the payload is read, so a
    corrupt or hostile length prefix cannot make the peer allocate
    unboundedly.  {!read_frame} classifies every failure mode —
    clean EOF between frames, truncation mid-frame, an oversized
    length, undecodable JSON is reported by the decoders.

    {b Envelope.}  Every payload is a JSON object carrying
    [{"proto":"cgx-serve/2","id":"<n>", "type":...}].  The [proto]
    field is checked first and a mismatch is distinguished from mere
    malformedness ({!decode_error}), so a server can answer an
    incompatible client with a structured [version-mismatch] error
    instead of dropping the connection.  The [id] is assigned by the
    client and echoed verbatim in the matching reply — replies to
    pipelined requests may arrive out of submission order.

    {b Values.}  Every scalar ({!Cgsim.Value.t} [Float]/[Int]) crosses
    as its 64-bit word in 16 lowercase hex digits, most significant
    first: [Int64.bits_of_float] or [Int64.of_int].  A request input
    slot or reply output slot whose elements are all [Float] is one
    string of words, [{"F64":"3ff8..."}]; all [Int], [{"I64":"..."}];
    anything else ([Vec]/[Rec] elements, mixed slots) is an array of
    tagged values — [{"F":word}], [{"I":word}], [{"V":[...]}],
    [{"R":{...}}].  The string forms make the codec bit-exact (NaN
    payloads included): [Obs.Json] prints numbers with [%.6g], which is
    fine for timings but would corrupt payload data, and a serve
    round-trip must be bit-identical to an in-process run.  A peer on
    [cgx-serve/1] (one tagged object per element) gets [Wrong_version]. *)

(** Protocol identifier carried by every frame: ["cgx-serve/2"]. *)
val proto : string

(** Refuse frames above this payload size (16 MiB). *)
val max_frame_bytes : int

(** {1 Framing} *)

type frame_error =
  | Eof  (** Clean EOF at a frame boundary (peer closed). *)
  | Truncated  (** EOF inside a length prefix or payload. *)
  | Oversized of int  (** Declared payload length above {!max_frame_bytes}. *)

val frame_error_message : frame_error -> string

(** [write_frame fd payload] writes the length prefix and payload,
    looping over partial writes.  Raises [Unix.Unix_error] on a broken
    connection (callers ignore SIGPIPE and handle [EPIPE]). *)
val write_frame : Unix.file_descr -> string -> unit

(** Read one complete frame payload. *)
val read_frame : Unix.file_descr -> (string, frame_error) result

(** Pure framing, for tests and in-memory use: [frame payload] is the
    bytes {!write_frame} would emit; [unframe b ~pos] decodes one frame
    starting at [pos] and returns the payload with the position just
    past it. *)
val frame : string -> string

val unframe : ?max_bytes:int -> Bytes.t -> pos:int -> (string * int, frame_error) result

(** {1 Requests} *)

type run_request = {
  rq_graph : string;  (** Graph name, resolved by the server's registry. *)
  rq_inputs : Cgsim.Value.t list list;
      (** One element list per global input, in the graph's
          [input_order]. *)
  rq_deadline_ms : float option;  (** Per-request deadline override. *)
  rq_seed : int option;  (** Per-request backoff-jitter seed override. *)
}

type request_body =
  | Run of run_request
  | Metrics  (** Prometheus exposition of the server's live metrics. *)
  | Ping

type request = {
  q_id : int;  (** Client-assigned, echoed in the reply. *)
  q_body : request_body;
}

(** {1 Replies} *)

(** Structured outcome taxonomy, mirroring {!Cgsim.Runtime.outcome} plus
    the pool's load-shedding refusal. *)
type run_outcome =
  | Completed of Cgsim.Value.t list list
      (** One element list per global output, in [output_order]. *)
  | Deadline of {
      d_reason : string;  (** ["deadline"] (wall clock) or ["max-steps"]. *)
      d_parked : string list;  (** Fibers blocked on queue I/O. *)
      d_last_kernel : string option;
    }
  | Cancelled
  | Failed of {
      x_kernel : string;
      x_message : string;
    }
  | Shed  (** Refused by the open circuit breaker (admission control). *)

(** Stable label, aligned with [Runtime.outcome_label]: ["completed"],
    ["deadline"], ["max-steps"], ["cancelled"], ["failed"], ["shed"]. *)
val run_outcome_label : run_outcome -> string

type run_reply = {
  rp_outcome : run_outcome;
  rp_attempts : int;  (** Executions performed (0 when shed). *)
  rp_domain : int;  (** Worker domain that served the request. *)
  rp_server_ns : float;
      (** Decode-to-reply wall time on the server: queue wait included. *)
  rp_run_ns : float;  (** Execution time across attempts and backoffs. *)
}

type error_code =
  | Version_mismatch  (** Peer speaks a different [cgx-serve/N]. *)
  | Bad_request  (** Malformed frame or envelope. *)
  | Unknown_graph  (** No graph of that name in the server registry. *)
  | Shutting_down  (** Received while the server drains. *)

val error_code_label : error_code -> string

type reply_body =
  | Result of run_reply
  | Metrics_text of string
  | Pong
  | Error of error_code * string

type reply = {
  p_id : int;  (** Echo of the request id; [-1] when it never decoded. *)
  p_body : reply_body;
}

(** {1 Codec}

    Encoders never fail.  Decoders are strict and never raise: unknown
    [type] tags, missing fields, malformed values, a packed string whose
    length is not a multiple of 16 or that holds a non-hex digit, and
    JSON nested deeper than {!Obs.Json.max_depth} are all [Malformed],
    and the protocol version is checked before anything else. *)

type decode_error =
  | Wrong_version of string  (** The peer's [proto] field, verbatim. *)
  | Malformed of string

val decode_error_message : decode_error -> string

val encode_request : request -> string
val decode_request : string -> (request, decode_error) result
val encode_reply : reply -> string
val decode_reply : string -> (reply, decode_error) result

(** A reusable reply encoder, one per connection: {!write_reply} writes
    the frame {!write_frame} would write for [encode_reply reply], from
    a JSON buffer and a frame buffer it keeps across replies.  Not safe
    for concurrent use; the server writes under the connection's lock. *)
type reply_writer

val reply_writer : unit -> reply_writer

(** Raises [Unix.Unix_error] as {!write_frame} does. *)
val write_reply : reply_writer -> Unix.file_descr -> reply -> unit

(** Exposed for tests: the tagged bit-exact {!Cgsim.Value.t} codec used
    for slots that do not pack. *)
val json_of_value : Cgsim.Value.t -> Obs.Json.t

val value_of_json : Obs.Json.t -> (Cgsim.Value.t, string) result
