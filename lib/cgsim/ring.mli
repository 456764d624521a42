(** The fixed-capacity broadcast ring both simulators' queues share
    (Section 3.6): storage, slots, seam-split segment copies, dtype
    checks and the cursors with their cached retirement point.

    A ring knows nothing about waiting: {!Netq} wraps it with
    producers, close and a wait policy.  Every operation here assumes
    the caller already waited: writes assume free space, reads assume
    available elements.

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
    element and value-block edges ({!push}, {!take} and the {!values}
    kind), which unpack and build values on demand. *)
type storage

(** Caller-owned lane buffers, the payload of the {!lanes} kind:
    element [i] of a block has its int lanes at [ints.(i * n_int ..)]
    and its float lanes at [floats.(i * n_float ..)], in the order of
    {!storage}, where [(n_int, n_float) = lane_counts dtype]. *)
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

(** Raises the dtype-mismatch [Invalid_argument] for [v] (call it when
    [r.check v] is false). *)
val reject : t -> Value.t -> unit

(** {1 Slots} *)

(** Check and store one value at [head] in one pass, then advance
    [head]; a value that does not conform raises {!reject}'s
    [Invalid_argument] before [head] moves. *)
val push : t -> Value.t -> unit

(** The element at the cursor, then [advance] by one. *)
val take : t -> cursor -> Value.t

(** {1 Payload kinds}

    A block moves as one of four payloads, and each payload kind is a
    record of the ring's functions for it.  A queue has one block write
    and one block read, each taking a kind, a buffer, an offset and a
    count; [off] and [n] count elements (for {!lanes}, elements of the
    aggregate dtype, not lanes).

    - [require r b off n] raises [Invalid_argument] unless the kind fits
      [r]'s dtype and [0 <= off], [0 <= n] and [off + n] is at most the
      number of elements [b] holds.  Call it before anything waits or is
      published.
    - [check r b off n] raises [Invalid_argument] if any of the elements
      does not conform to [r]'s dtype (values, int ranges, int lanes);
      float payloads always conform.  A queue calls it only for a block
      that will not land in one chunk, so a bad element publishes
      nothing of it.
    - [copy_in r b off n] stores the elements at [head], split at the
      wrap point, then advances [head].  It checks each element as it
      stores it and raises before [head] moves.  It assumes free space.
    - [copy_out r c b off n] copies [n] elements at [c]'s position into
      [b] from [off]; the caller advances [c].  It assumes the elements
      are there.

    F32 storage rounds stored floats as {!Value.round_f32}; float lanes
    are stored as given.  Both copies raise [Invalid_argument] on a ring
    of the wrong dtype, but only [require] checks the bounds. *)
type 'b kind = {
  require : t -> 'b -> int -> int -> unit;
  check : t -> 'b -> int -> int -> unit;
  copy_in : t -> 'b -> int -> int -> unit;
  copy_out : t -> cursor -> 'b -> int -> int -> unit;
}

(** Boxed values, on a ring of any dtype. *)
val values : Value.t array kind

(** Flat floats, on a float-dtype ring. *)
val floats : float array kind

(** Flat ints, on an integer-dtype ring; range-checked. *)
val ints : int array kind

(** Lane buffers, on a [Vector] or [Struct] ring; int lanes
    range-checked. *)
val lanes : lanes kind
