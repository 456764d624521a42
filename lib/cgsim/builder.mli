(** Graph construction (the [IoConnector] API).

    The staged analogue of the paper's compile-time graph construction
    (Section 3.4): the user supplies a function that receives connector
    objects for the graph's external inputs, creates internal connectors,
    applies kernels to connectors, and returns the output connectors.  The
    construction phase runs strictly before execution and "freezes" into
    the flattened {!Serialized.t} form; any inconsistency (dtype mismatch,
    incompatible port settings, unknown kernels, dangling connectors) is
    reported at freeze time — the moment that corresponds to the paper's
    compile-time errors.

    Connecting several kernel outputs to one connector creates an implicit
    stream merge; several inputs, an implicit broadcast. *)

type t

(** A connector (net under construction).  Valid only for the builder that
    created it. *)
type conn

exception Construction_error of string

val create : name:string -> t

(** Declare an external graph input carrying elements of the dtype.
    [src] records the source construct that declared it (set by the CGC
    const-evaluator; OCaml-built graphs normally omit it). *)
val input : t -> ?src:Srcspan.t -> ?attrs:Attr.t list -> name:string -> Dtype.t -> conn

(** Create an internal connector. *)
val net : ?src:Srcspan.t -> t -> Dtype.t -> conn

(** Declare [conn] as an external graph output. *)
val output : t -> ?attrs:Attr.t list -> name:string -> conn -> unit

(** [add_kernel t kernel conns] instantiates [kernel], binding [conns]
    positionally to its ports (inputs read the connector, outputs write
    it).  Arity and dtypes are checked immediately; settings are merged at
    freeze.  Returns the instance index.  An explicit [inst] name overrides
    the generated ["<kernel>_<n>"]; [src] records the invocation site. *)
val add_kernel : t -> ?inst:string -> ?src:Srcspan.t -> Kernel.t -> conn list -> int

(** Attach extractor-facing attributes to a connector (Section 3.4). *)
val attach_attributes : t -> conn -> Attr.t list -> unit

(** Freeze into the flattened form.  Raises {!Construction_error} listing
    every problem found. *)
val freeze : t -> Serialized.t

(** One-call convenience mirroring [make_compute_graph_v]: declare inputs,
    run the connectivity function on their connectors, declare the
    returned connectors as outputs, freeze. *)
val make :
  name:string ->
  inputs:(string * Dtype.t) list ->
  (t -> conn list -> conn list) ->
  Serialized.t
