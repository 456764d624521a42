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

(** Storage follows the dtype, and is always a bigarray: [float32] or
    [float64] for float dtypes, one native-int bigarray for every integer
    dtype.  A [Vector] or [Struct] element is stored as scalar lanes:
    Vector lanes in order, then Struct fields in declaration order
    (recursively), each int lane in a native-int bigarray and each float
    lane, unrounded, in a [float64] one.  {!Value.t} exists only at the
    element and value-block edges ({!push}, {!take}, {!push_values},
    {!read_values}), which unpack and build values on demand. *)
type storage

(** Caller-owned lane buffers for the lane transfers: element [i] of a
    block has its int lanes at [ints.(i * n_int ..)] and its float
    lanes at [floats.(i * n_float ..)], in the order of {!storage}, where
    [(n_int, n_float) = lane_counts dtype]. *)
type lanes = {
  ints : int array;
  floats : float array;
}

(** Int and float lanes per element of a dtype (a scalar counts as one
    lane of its kind). *)
val lane_counts : Dtype.t -> int * int

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

(** [require_lanes r b off len what] raises [Invalid_argument] naming
    [what] unless [r] has an aggregate dtype and [b] holds elements
    [off .. off + len - 1]. *)
val require_lanes : t -> lanes -> int -> int -> string -> unit

(** Range-check the int lanes of elements [off .. off + len - 1] of [b]
    against their dtypes, like {!check_ints}. *)
val check_lanes : t -> lanes -> int -> int -> unit

(** {1 Slots} *)

(** Check and store one value at [head] in one pass, then advance
    [head]; a value that does not conform raises {!reject}'s
    [Invalid_argument] before [head] moves. *)
val push : t -> Value.t -> unit

(** The element at the cursor, then [advance] by one. *)
val take : t -> cursor -> Value.t

(** {1 Segment copies}

    [push_* r src off len] copies [len] payload elements from [off] to
    [head], split at the wrap point, then advances [head].
    [read_* r c dst off len] copies [len] elements at [c]'s position to
    [dst] from [off]; the caller advances [c].  [push_values] checks
    each value as it stores it, and [push_ints] and [push_lanes]
    range-check in the copy loop; each raises before [head] moves.  Flat
    and lane transfers on a ring of the wrong dtype raise
    [Invalid_argument]; F32 storage rounds as {!Value.round_f32}, float
    lanes are stored as given.  Lane transfers count [off] and [len] in
    elements and assume {!require_lanes} passed. *)

val push_values : t -> Value.t array -> int -> int -> unit
val read_values : t -> cursor -> Value.t array -> int -> int -> unit
val push_floats : t -> float array -> int -> int -> unit
val read_floats : t -> cursor -> float array -> int -> int -> unit
val push_ints : t -> int array -> int -> int -> unit
val read_ints : t -> cursor -> int array -> int -> int -> unit
val push_lanes : t -> lanes -> int -> int -> unit
val read_lanes : t -> cursor -> lanes -> int -> int -> unit
