(** Graph construction (the [IoConnector] API).

    The staged analogue of the paper's compile-time graph construction
    (Section 3.4): the user supplies a function that receives connector
    objects for the graph's external inputs, creates internal connectors,
    applies kernels to connectors, and returns the output connectors.  The
    construction phase runs strictly before execution and "freezes" into
    the flattened {!Serialized.t} form, and {!freeze} reports any
    inconsistency — the moment that corresponds to the paper's
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
    it).  Arity and the instance name's uniqueness are checked
    immediately; dtypes and directions are checked and settings merged
    at freeze.  Returns the instance index.  An explicit [inst] name
    overrides the generated ["<kernel>_<n>"]; [src] records the
    invocation site. *)
val add_kernel : t -> ?inst:string -> ?src:Srcspan.t -> Kernel.t -> conn list -> int

(** Attach extractor-facing attributes to a connector (Section 3.4). *)
val attach_attributes : t -> conn -> Attr.t list -> unit

(** Freeze into the flattened form.  Merges each net's port settings
    (a conflict raises {!Construction_error}), then runs
    {!Serialized.validate_diags}, the one structural check, and raises
    {!Construction_error} rendering every diagnostic it returns: an
    endpoint dtype that differs from its net's ([CG-E002]), settings
    invalid for the element size ([CG-E004]), a net read or output but
    never written, or a global input a kernel writes ([CG-E005]), two
    kernels under one name ([CG-E007]).  A net nobody reads is accepted
    here; {!Runtime.compile} refuses it ([CG-E008]). *)
val freeze : t -> Serialized.t

(** One-call convenience mirroring [make_compute_graph_v]: declare inputs,
    run the connectivity function on their connectors, declare the
    returned connectors as outputs, freeze. *)
val make :
  name:string ->
  inputs:(string * Dtype.t) list ->
  (t -> conn list -> conn list) ->
  Serialized.t
