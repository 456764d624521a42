(** Traced AIE intrinsics.

    The emulation layer the paper obtains from AMD's x86 [aietools]
    headers (Section 3.9): kernels call these instead of raw arithmetic so
    that (a) functional results match AIE semantics (f32 rounding,
    shift-round-saturate fixed point) and (b) each call emits the
    architectural cost events that the cycle-approximate simulator
    consumes.  Every op takes the kernel's recorder first (the
    {!Trace.recorder} of its binding, read once per kernel body) and
    tests it before it computes a slot count or builds an event, so
    outside of an aiesim capture ([None]) a call is one branch plus its
    {!Vec} lane loop, and allocates nothing.  On a 2-vCPU x86-64 host
    ([bench micro], ten runs, docs/PERFORMANCE.md), an untraced 8-lane
    [fpmac] takes 27-28 ns and a bitonic sort of one 16-vector (40
    calls) 1.25-1.29 us.

    Cost model: one vector-unit issue slot processes 8 fp32 lanes, 8 int32
    lanes or 32 int16 lanes per cycle ({!Cfg}); wider vectors occupy
    proportionally more slots.  Vector loads/stores move data through the
    load/store units in 32-byte beats.

    Every op writes its result into a caller-owned [~dst] and returns
    [unit], with the lane and aliasing rules of {!Vec}: lane-wise ops may
    write into one of their operands, shuffles may not. *)

(** {1 fp32 vector ops (8-lane granularity)} *)

val fpadd : Trace.recorder option -> dst:float array -> float array -> float array -> unit
val fpsub : Trace.recorder option -> dst:float array -> float array -> float array -> unit
val fpmul : Trace.recorder option -> dst:float array -> float array -> float array -> unit
val fpmac :
  Trace.recorder option ->
  dst:float array ->
  float array ->
  float array ->
  float array ->
  unit

(** [fpmac_scalar tr ~dst acc src k b] is bit for bit [fpmac tr ~dst acc s b]
    with [s] the splat of [src.(k)], and records the same [fpmac] event,
    without building the splat or boxing the scalar. *)
val fpmac_scalar :
  Trace.recorder option ->
  dst:float array ->
  float array ->
  float array ->
  int ->
  float array ->
  unit

val fpmax : Trace.recorder option -> dst:float array -> float array -> float array -> unit
val fpmin : Trace.recorder option -> dst:float array -> float array -> float array -> unit
val fpshuffle : Trace.recorder option -> dst:float array -> float array -> int array -> unit
val fpselect :
  Trace.recorder option ->
  dst:float array ->
  bool array ->
  float array ->
  float array ->
  unit

(** [fpsplat tr ~dst s]: one issue slot whatever the lane count. *)
val fpsplat : Trace.recorder option -> dst:float array -> float -> unit

(** Horizontal sum into [dst.(0)] ({!Vec.fsum}); costs log2(lanes)
    vector ops. *)
val fpsum : Trace.recorder option -> dst:float array -> float array -> unit

(** {1 int16 vector ops (32-lane granularity)} *)

val mul16 : Trace.recorder option -> dst:int array -> int array -> int array -> unit
val mac16 : Trace.recorder option -> dst:int array -> int array -> int array -> int array -> unit

(** [mac16_scalar tr ~dst acc a s] is [mac16 tr ~dst acc a] with [s] splat, and
    records the same [mac16] event. *)
val mac16_scalar : Trace.recorder option -> dst:int array -> int array -> int array -> int -> unit

val add16 : Trace.recorder option -> dst:int array -> int array -> int array -> unit
val sub16 : Trace.recorder option -> dst:int array -> int array -> int array -> unit
val shuffle16 : Trace.recorder option -> dst:int array -> int array -> int array -> unit

(** {1 int32 vector ops (8-lane granularity)} *)

val mac32 : Trace.recorder option -> dst:int array -> int array -> int array -> int array -> unit
val add32 : Trace.recorder option -> dst:int array -> int array -> int array -> unit
val sub32 : Trace.recorder option -> dst:int array -> int array -> int array -> unit

(** {1 accumulator moves} *)

val srs16 : Trace.recorder option -> dst:int array -> shift:int -> int array -> unit
(** Shift-round-saturate accumulators to int16 lanes. *)

val srs32 : Trace.recorder option -> dst:int array -> shift:int -> int array -> unit

val ups16 : Trace.recorder option -> dst:int array -> shift:int -> int array -> unit

(** {1 vector loads/stores (data memory)} *)

val load_f32 : Trace.recorder option -> dst:float array -> float array -> int -> unit
(** [load_f32 tr ~dst mem off] reads [Array.length dst] lanes of a local
    array from [off], charging the load units. *)

val store_f32 : Trace.recorder option -> float array -> int -> float array -> unit

val load_i16 : Trace.recorder option -> dst:int array -> int array -> int -> unit

val store_i16 : Trace.recorder option -> int array -> int -> int array -> unit

(** {1 scalar ops} *)

val scalar_op : Trace.recorder option -> ?count:int -> string -> unit
(** Charge scalar-unit work with no functional effect (address updates,
    loop control the compiler would not hide). *)
