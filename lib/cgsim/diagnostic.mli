(** Structured diagnostics shared across the stack.

    One diagnostic type for every layer that judges a graph: the
    serialized-form validator ({!Serialized.validate_diags}), the static
    analyzer ({!Lint}), the CGC front-end ([Cgc.Diag] renders its
    located errors through {!render}) and the extractor.  A diagnostic is
    plain data — severity, a stable code like ["CG-E201"], a message, the
    kernel instances and nets it concerns, and an optional source span
    when the graph came from CGC — so tools can render it as text, JSON,
    or Graphviz coloring without re-parsing prose. *)

type severity =
  | Info
  | Warning
  | Error

(** Errors dominate warnings dominate infos. *)
val compare_severity : severity -> severity -> int

type t = {
  severity : severity;
  code : string;  (** Stable code, e.g. ["CG-E201"]; [""] for uncoded front-end errors. *)
  message : string;
  graph : string;  (** Name of the graph the finding concerns; [""] when unknown. *)
  kernels : string list;  (** Kernel instance names involved, cycle order preserved. *)
  nets : string list;  (** Display names of the nets involved (see {!Serialized}). *)
  net_ids : int list;  (** Net ids of [nets], for tools that index the graph. *)
  loc : Srcspan.t option;
}

(** [make ~severity ~code msg] with everything else defaulted empty. *)
val make :
  severity:severity ->
  code:string ->
  ?graph:string ->
  ?kernels:string list ->
  ?nets:string list ->
  ?net_ids:int list ->
  ?loc:Srcspan.t ->
  string ->
  t

(** Worst severity present, [None] on the empty list. *)
val max_severity : t list -> severity option

(** Conventional process exit status for a finding set: 0 when nothing
    worse than [Info], 1 for [Warning], 2 for [Error]. *)
val exit_status : t list -> int

(** Sort by severity (errors first), then code, keeping the original
    order among equals. *)
val sort : t list -> t list

(** "file:line:col: error[CG-E201]: message [kernels: a, b; nets: n1]".
    Location and bracketed context are omitted when absent; the code
    bracket is omitted when [code = ""] — which makes the render of an
    uncoded front-end error exactly the historical
    "file:line:col: error: message" form. *)
val render : t -> string

val pp : Format.formatter -> t -> unit

val to_json : t -> Obs.Json.t
