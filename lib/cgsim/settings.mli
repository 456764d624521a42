(** Behaviour-affecting port settings.

    In cgsim these are non-type template arguments on [KernelReadPort] /
    [KernelWritePort] (Section 3.4): marking a port as a runtime parameter,
    the beat size of the underlying bus (e.g. AXI), window (ping-pong
    buffer) sizes, and queue depth.  When two parameterized ports meet on
    one [IoConnector], their settings are merged; incompatible settings are
    a graph-construction error (the analogue of the paper's compile-time
    error). *)

(** How data crosses the port. *)
type transport =
  | Stream  (** Element-at-a-time AXI stream (the default). *)
  | Window of int
      (** Block transfer through a ping-pong buffer of the given size in
          bytes; the kernel is invoked once per full window. *)
  | Rtp  (** Runtime parameter: a scalar written once per invocation. *)
  | Gmio
      (** Global-memory I/O: DMA to DDR through the NoC — higher
          bandwidth and much deeper buffering than a PLIO stream, at the
          cost of hundreds of cycles of access latency.  Listed as
          unexposed in the paper's Section 6; implemented here. *)

type t = {
  transport : transport option;
  beat_bytes : int option;  (** AXI beat width in bytes (4, 8 or 16). *)
  depth : int option;  (** Simulation queue capacity in elements. *)
}

val default : t
(** All fields unset; unset fields act as wildcards in {!merge}. *)

val stream : t
val window : int -> t
val rtp : t
val gmio : t
val with_beat : int -> t -> t
val with_depth : int -> t -> t

val equal : t -> t -> bool

(** [merge a b] unifies two settings: unset fields take the other side's
    value, set fields must agree.  Errors carry a human-readable reason.
    Merging is commutative and associative (property-tested). *)
val merge : t -> t -> (t, string) result

(** Final transport after defaulting ([Stream] when unset). *)
val resolved_transport : t -> transport

(** Queue capacity after defaulting: explicit [depth] if set; otherwise
    windows get 2 in-flight windows worth of elements and streams a default
    of [default_stream_depth]. *)
val resolved_depth : elem_bytes:int -> t -> int

val default_stream_depth : int

(** Validate a fully-merged setting for a net of the given element size:
    window sizes must be a positive multiple of the element size, beats
    must be 4/8/16, depth positive. *)
val validate : elem_bytes:int -> t -> (unit, string) result

(** ["stream"], ["window<B>"], ["rtp"] or ["gmio"]. *)
val pp_transport : Format.formatter -> transport -> unit

val pp : Format.formatter -> t -> unit
