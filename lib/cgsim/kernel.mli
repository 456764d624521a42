(** Compute kernel definitions.

    The OCaml analogue of the paper's [COMPUTE_KERNEL] macro (Section 3.3):
    a kernel is a named, realm-annotated function over typed I/O ports.
    Port metadata (direction, dtype, settings) is carried explicitly —
    the role the generated C++ class and its type traits play in cgsim.

    A kernel body receives a {!binding}: the runtime endpoints of its
    ports and a per-kernel {!context}, its only inputs (the paper's
    extractor swaps port implementations per realm and leaves the kernel
    code alone, Section 4.4).  Bodies are written as infinite loops over
    stream operations and terminate via {!Sched.End_of_stream} when their
    inputs drain (or run once per window for buffer-port kernels). *)

(** Target hardware realm (Section 4.3).  [Aie] kernels are extracted to
    the AI Engine array; [Noextract] kernels stay in the host application;
    [Pl] marks the programmable-logic/HLS realm the paper lists as future
    work (partitioning supports it; code generation rejects it). *)
type realm =
  | Aie
  | Noextract
  | Pl

val realm_to_string : realm -> string
val realm_of_string : string -> realm option
val equal_realm : realm -> realm -> bool

type dir =
  | In
  | Out

type port_spec = {
  pname : string;
  dir : dir;
  dtype : Dtype.t;
  settings : Settings.t;
}

(** What a run hands one kernel instance besides its ports.  Libraries
    extend the type with their own constructors; aiesim's capture hands
    each kernel its trace recorder ([Aie.Trace.Recorder]) this way. *)
type context = ..

(** The context of a kernel run without one: plain cgsim, x86sim and
    serving pools. *)
type context += No_context

(** Endpoints bound positionally to the kernel's ports: [readers] holds
    the [In] ports in declaration order, [writers] the [Out] ports.
    [context] is fixed for the run. *)
type binding = {
  readers : Port.reader array;
  writers : Port.writer array;
  context : context;
}

type body = binding -> unit

(** Whether the kernel body is safe to run on several graph instances at
    once.  [Pure] bodies keep all mutable state inside the body closure
    (created fresh per instantiation); [Stateful] bodies capture shared
    mutable state, so concurrent {!Pool} serving or even back-to-back
    runs may observe cross-request interference.  [Unknown] is the
    default for kernels that never declared themselves. *)
type purity =
  | Pure
  | Stateful
  | Unknown

val purity_to_string : purity -> string

type t = {
  name : string;
  realm : realm;
  ports : port_spec array;
  body : body;
  rates : int array option;
      (** Beats produced/consumed per steady-state firing, positionally
          aligned with [ports]; [None] when undeclared.  Consumed by the
          static analyzer's SDF balance and deadlock passes. *)
  purity : purity;
}

(** [define ~realm ~name ports body] validates the port list (non-empty
    names, unique names, at least one port) and builds a kernel.

    [rates] declares per-port beats per firing by port name (every name
    must exist, every rate must be non-negative; RTP ports conventionally
    declare [0]).  [pure] declares pool-safety: [~pure:true] promises the
    body keeps all mutable state local, [~pure:false] flags shared
    mutable state.  Omitting either leaves the metadata undeclared. *)
val define :
  ?rates:(string * int) list ->
  ?pure:bool ->
  realm:realm ->
  name:string ->
  port_spec list ->
  body ->
  t

(** Declared rate of a port (by index into [ports]); [None] when the
    kernel declared no rates. *)
val rate : t -> int -> int option

(** Port-spec constructors. *)

val in_port : ?settings:Settings.t -> string -> Dtype.t -> port_spec
val out_port : ?settings:Settings.t -> string -> Dtype.t -> port_spec

(** Indexing helpers for bodies. *)

val rd : binding -> int -> Port.reader
val wr : binding -> int -> Port.writer

val pp : Format.formatter -> t -> unit
