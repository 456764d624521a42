(** Flattened, array-based compute-graph representation.

    The analogue of the constexpr-storable structure of Section 3.5: graph
    construction produces pointer-rich builder state, which is flattened
    into index-based arrays so it can cross the construction/execution
    boundary.  Each kernel instance holds its {!Kernel.t} (Section 3.5's
    "references to template functions"), and everything else is plain
    data, so the same structure is produced by the OCaml builder and by
    the CGC const-evaluator, and consumed by {!Runtime.compile}, by both
    simulators, and by the graph extractor (Section 4.2).  A graph holds
    closures: compare graphs with {!equal_topology}, never with [=],
    [compare] or [Hashtbl.hash]. *)

type endpoint = {
  kernel_idx : int;  (** Index into {!t.kernels}. *)
  port_idx : int;  (** Index into that kernel's port array. *)
}

type net = {
  net_id : int;
  dtype : Dtype.t;
  settings : Settings.t;  (** Fully merged over all endpoints. *)
  attrs : Attr.t list;
  writers : endpoint list;  (** Multiple writers = implicit stream merge. *)
  readers : endpoint list;  (** Multiple readers = implicit broadcast. *)
  global_input : string option;  (** Externally fed (name of graph input). *)
  global_output : string option;  (** Externally drained (name of graph output). *)
  src : Srcspan.t option;
      (** Source construct that created the connector (CGC graphs only;
          builder graphs leave it unset unless the caller provides one). *)
}

type kernel_inst = {
  inst_name : string;  (** Unique instance name within the graph. *)
  kernel : Kernel.t;  (** The definition: name, realm, ports and body. *)
  port_nets : int array;  (** Net id bound to each port, positionally. *)
  src : Srcspan.t option;  (** Invocation site in CGC source, when known. *)
}

type t = {
  gname : string;
  kernels : kernel_inst array;
  nets : net array;
  input_order : int array;  (** Net ids of global inputs, in argument order. *)
  output_order : int array;  (** Net ids of global outputs, in return order. *)
}

val net : t -> int -> net
val kernel : t -> int -> kernel_inst

val inputs : t -> net list
val outputs : t -> net list

(** Human-facing name of a net: its global input/output name when it has
    one, otherwise "net<id> (writer.port -> reader.port)" built from the
    kernel ports on it — diagnostics should never show a bare index. *)
val net_display : t -> int -> string

(** Best-effort source span for a net: the net's own [src] when present,
    else the span of the first endpoint kernel that has one. *)
val net_src : t -> int -> Srcspan.t option

(** Structural validation, the one home of the graph's structural
    invariants: indices in range, endpoint port directions consistent
    with writer/reader roles, dtypes of endpoints equal to the net
    dtype, merged settings valid, every net that is read or is a global
    output has a producer (a kernel writer or a global input), no kernel
    writes a global input, input/output order arrays consistent with
    net flags, and one definition per kernel name (two instances whose
    kernels share a name must share the {!Kernel.t}).  Returns all
    problems found, as structured diagnostics (codes CG-E001..CG-E007)
    naming kernel instances and nets rather than bare indices, with
    source spans when the graph carries them.  {!Builder.freeze} and
    {!Runtime.compile} both run it; a net without a consumer is valid
    here (analysis takes unread outputs) and refused only by
    {!Runtime.compile}. *)
val validate_diags : t -> Diagnostic.t list

(** Topological equality: same kernels (by name, realm, ports), same nets
    (by dtype, settings, endpoints, attrs, global roles) and same I/O
    order, ignoring net ids' numeric values beyond their structural role
    and ignoring instance-name spelling.  Used to property-test that
    builder graphs and CGC-consteval graphs agree. *)
val equal_topology : t -> t -> bool

(** [with_net_depths t [(net_id, depth); ...]] returns a copy of [t]
    whose listed nets carry an explicit queue [depth] in their settings
    (see {!Settings.with_depth}); other nets, and entries with unknown
    ids or non-positive depths, are untouched.  Used to apply (or, in
    tests, deliberately under-apply) the capacities synthesized by the
    static analyzer without rebuilding the graph. *)
val with_net_depths : t -> (int * int) list -> t

val pp : Format.formatter -> t -> unit

(** Total element-size-weighted fan of the graph — diagnostic metric used
    by benches to sanity-check workload sizes. *)
val stats : t -> string
