(** The fixed-capacity broadcast ring both simulators' queues share
    (Section 3.6): storage, slots, seam-split segment copies, dtype
    checks and the cursors with their cached retirement point.

    A ring knows nothing about waiting.  {!Bqueue} wraps it with
    producers, close and {!Sched} park/wake;
    [X86sim.Tqueue] wraps it with a mutex, condition variables and
    poison.  Every operation here assumes the caller already waited:
    writes assume free space, reads assume available elements.

    Positions are sequence numbers: [head] counts every element ever
    written, a cursor's [pos] every element that consumer read; the
    slot is the position modulo [cap].  An element is retired once the
    slowest cursor has passed it. *)

(** Storage follows the dtype: [float32]/[float64] bigarrays for float
    dtypes, one native-int bigarray for every integer dtype, a boxed
    [Value.t array] for [Vector] and [Struct]. *)
type storage

type cursor = { mutable pos : int }

(** Fields are exposed so the queues' hot paths use them without a
    call (with no cross-module inlining, every call into this module is
    a full closure application).  Only this module writes [head],
    [retired] and the cursors. *)
type t = {
  name : string;
  dtype : Dtype.t;
  cap : int;
  buf : storage;
  check : Value.t -> bool;  (** {!Value.compile_check} of [dtype]. *)
  mutable head : int;  (** Position of the next write. *)
  mutable retired : int;
      (** Minimum cursor position whenever [cursors <> []]. *)
  mutable cursors : cursor list;
}

(** Raises [Invalid_argument] unless [capacity] is positive. *)
val create : name:string -> dtype:Dtype.t -> capacity:int -> t

(** A new cursor at [head]. *)
val add_cursor : t -> cursor

(** Every position back to 0; storage and cursors are kept. *)
val reset : t -> unit

(** Free slots: [cap - occupancy]. *)
val space : t -> int

(** Unretired elements. *)
val occupancy : t -> int

(** [advance r c n] moves [c] forward by [n] and refolds the retirement
    point when [c] held it.  Space was freed (wake producers) iff
    [retired] grew. *)
val advance : t -> cursor -> int -> unit

(** {1 Dtype checks} *)

(** Raises the dtype-mismatch [Invalid_argument] for [v] (call it when
    [r.check v] is false). *)
val reject : t -> Value.t -> unit

(** Every element against [check]. *)
val check_values : t -> Value.t array -> unit

(** [require_float r what] raises [Invalid_argument] naming [what] unless
    [r] has a float dtype; [require_int] likewise for integer dtypes. *)
val require_float : t -> string -> unit

val require_int : t -> string -> unit

(** Range-check a whole int payload against the dtype, for writers that
    must publish nothing of a block that will not fit in one chunk. *)
val check_ints : t -> int array -> unit

(** {1 Slots} *)

(** Write one checked value at [head] and advance [head]. *)
val push : t -> Value.t -> unit

(** The element at the cursor, then [advance] by one. *)
val take : t -> cursor -> Value.t

(** {1 Segment copies}

    [push_* r src off len] copies [len] payload elements from [off] to
    [head], split at the wrap point, then advances [head].
    [read_* r c dst off len] copies [len] elements at [c]'s position to
    [dst] from [off]; the caller advances [c].  Flat transfers on a ring
    of the wrong dtype raise [Invalid_argument]; [push_ints]
    range-checks in the copy loop and raises before [head] moves; F32
    storage rounds as {!Value.round_f32}. *)

val push_values : t -> Value.t array -> int -> int -> unit
val read_values : t -> cursor -> Value.t array -> int -> int -> unit
val push_floats : t -> float array -> int -> int -> unit
val read_floats : t -> cursor -> float array -> int -> int -> unit
val push_ints : t -> int array -> int -> int -> unit
val read_ints : t -> cursor -> int array -> int -> int -> unit
