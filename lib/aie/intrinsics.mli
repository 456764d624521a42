(** Traced AIE intrinsics.

    The emulation layer the paper obtains from AMD's x86 [aietools]
    headers (Section 3.9): kernels call these instead of raw arithmetic so
    that (a) functional results match AIE semantics (f32 rounding,
    shift-round-saturate fixed point) and (b) each call emits the
    architectural cost events that the cycle-approximate simulator
    consumes.  Every op matches the running fiber's recorder
    ({!Trace.Recorder}, the fiber's {!Cgsim.Sched.local}) before it
    computes a slot count or builds an event, so outside of an aiesim
    capture a call is a call to {!Cgsim.Sched.local} and a branch, plus
    its {!Vec} lane loop, and allocates only its result (17 words at 16
    lanes).  On a 2-vCPU x86-64 host (median and interquartile range of
    ten runs), an untraced 8-lane [fpmac] takes 46 ns (41-57) and a
    bitonic sort of one 16-vector (40 calls) 2.3 us (2.1-2.5).

    Cost model: one vector-unit issue slot processes 8 fp32 lanes, 8 int32
    lanes or 32 int16 lanes per cycle ({!Cfg}); wider vectors occupy
    proportionally more slots.  Vector loads/stores move data through the
    load/store units in 32-byte beats. *)

(** {1 fp32 vector ops (8-lane granularity)} *)

val fpadd : float array -> float array -> float array
val fpsub : float array -> float array -> float array
val fpmul : float array -> float array -> float array
val fpmac : float array -> float array -> float array -> float array

(** [fpmac_scalar acc s b] is bit for bit [fpmac acc (Vec.fsplat n s) b]
    and records the same [fpmac] event, without building the splat. *)
val fpmac_scalar : float array -> float -> float array -> float array

val fpmax : float array -> float array -> float array
val fpmin : float array -> float array -> float array
val fpshuffle : float array -> int array -> float array
val fpselect : bool array -> float array -> float array -> float array
val fpsplat : int -> float -> float array

(** Horizontal sum; costs log2(lanes) vector ops. *)
val fpsum : float array -> float

(** {1 int16 vector ops (32-lane granularity)} *)

val mul16 : int array -> int array -> int array
val mac16 : int array -> int array -> int array -> int array

(** [mac16_scalar acc a s] is [mac16 acc a (Vec.isplat n s)] and records
    the same [mac16] event. *)
val mac16_scalar : int array -> int array -> int -> int array

val add16 : int array -> int array -> int array
val sub16 : int array -> int array -> int array
val shuffle16 : int array -> int array -> int array

(** {1 int32 vector ops (8-lane granularity)} *)

val mac32 : int array -> int array -> int array -> int array
val add32 : int array -> int array -> int array
val sub32 : int array -> int array -> int array

(** {1 accumulator moves} *)

val srs16 : shift:int -> int array -> int array
(** Shift-round-saturate accumulators to int16 lanes. *)

val srs32 : shift:int -> int array -> int array

val ups16 : shift:int -> int array -> int array

(** {1 vector loads/stores (data memory)} *)

val load_f32 : float array -> int -> int -> float array
(** [load_f32 mem off lanes] reads lanes from a local array, charging the
    load units. *)

val store_f32 : float array -> int -> float array -> unit

val load_i16 : int array -> int -> int -> int array

val store_i16 : int array -> int -> int array -> unit

(** {1 scalar ops} *)

val scalar_op : ?count:int -> string -> unit
(** Charge scalar-unit work with no functional effect (address updates,
    loop control the compiler would not hide). *)
