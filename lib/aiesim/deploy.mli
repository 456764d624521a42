(** Deployment descriptors: a compute graph mapped onto the AIE array.

    A deploy records everything the cycle-approximate simulator needs
    beyond the graph itself: kernel placement on tiles (hence stream-route
    lengths) and, crucially, the kind of I/O adapter each kernel uses:

    - {!Direct}: hand-written kernels accessing streams with raw
      intrinsics, as in AMD's original examples (the "AMD" column of
      Table 1);
    - {!Thunk}: kernels wrapped by the graph extractor's generated adapter
      thunk (Section 4.5), which costs extra scalar operations around each
      stream access and a small constant per window (the "This work"
      column).  The deploy carries those costs.

    The extractor produces [Thunk] deploys; baselines use [Direct]. *)

(** What the extractor's adapter thunk costs per port access — the
    mechanism behind the 85–100 % relative-throughput spread in Table 1.
    Window (buffer) port adapters cost only a per-window constant, which
    is why the IIR example reaches parity. *)
type thunk_costs = {
  scalar_ops_per_stream_access : int;
      (** Extra scalar operations around each stream access. *)
  cycles_per_window : int;  (** Cycles per window acquire or release. *)
  loop_extra_per_access : float;
      (** Serial cycles per thunked stream access inside a
          software-pipelined loop that the pipeliner cannot hide
          (fractional: the call overhead partially overlaps with the
          loop body). *)
}

(** The calibrated costs: 1 scalar op per stream access, 12 cycles per
    window, 0.1 serial cycles per pipelined access.  [bench ablation]
    sweeps other values through [Thunk]. *)
val default_thunk : thunk_costs

type adapter =
  | Direct
  | Thunk of thunk_costs

val adapter_to_string : adapter -> string

type t = {
  graph : Cgsim.Serialized.t;
  array : Aie.Array_model.t;
  adapter : adapter;
  label : string;
}

exception Deploy_error of string

(** [make ~label ~adapter g] places every AIE-realm kernel on the array
    (column-major next to the shim by default; [place] can pin kernels —
    returning [None] falls back to auto-placement) and checks that the
    graph contains only AIE and I/O elements (kernels of other realms
    cannot be deployed to the array; {!Deploy_error}). *)
val make :
  ?cols:int ->
  ?rows:int ->
  ?place:(string -> Aie.Array_model.coord option) ->
  label:string ->
  adapter:adapter ->
  Cgsim.Serialized.t ->
  t

(** Baseline (hand-optimized, [Direct]) deploy. *)
val baseline : Cgsim.Serialized.t -> t

(** Extracted ([Thunk default_thunk]) deploy, as emitted by the graph
    extractor. *)
val extracted : Cgsim.Serialized.t -> t

(** Coordinates of a kernel instance. *)
val coord_of : t -> string -> Aie.Array_model.coord

(** Stream-switch hops between the endpoints of a net (shim counts for
    global I/O). *)
val net_hops : t -> Cgsim.Serialized.net -> int
