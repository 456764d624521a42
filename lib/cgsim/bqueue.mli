(** Fixed-capacity multi-producer multi-consumer queues with broadcast
    semantics (Section 3.6): every consumer receives a complete copy of all
    data written to the queue.  Order is preserved per producer; data from
    multiple producers may interleave (producers share one append point, so
    interleaving follows scheduling order).

    Blocking behaviour integrates with {!Sched}: a full queue parks
    producers, an empty queue parks consumers.  An element is retired once
    the slowest consumer has read it.

    Producers are registered so the queue can close itself when every
    producer is done; reads past the last element of a closed queue raise
    {!Sched.End_of_stream}, which ends infinite-loop kernels cleanly.

    The data lives in a {!Ring}, shared with x86sim's threaded queue;
    this module adds producers, close and park/wake.  Kernel ports
    ({!Runtime}) move data with the element, block and flat transfers.
    The drains {!get_some}, {!get_floats_into} and {!get_ints_into}
    serve cgsim's sink fibers ({!Io.drain}) alone: x86sim's {!Tqueue}
    pushes into its sinks itself and has no drain forms. *)

type t

type consumer

type producer

(** [create ~name ~dtype ~capacity ()] makes an empty queue holding at
    most [capacity] elements (a positive count).  Written values are
    checked against [dtype].  Blocking endpoints park on the scheduler of
    whichever fiber touches them ({!Sched.park} uses the running fiber's
    scheduler), so a queue belongs to whatever run it is used in.

    Storage follows the dtype ({!Ring}) and is always flat: scalar
    dtypes get a bigarray of their kind and aggregate dtypes store
    scalar lanes, so the flat and lane block transfers below move
    unboxed memory.  An F32 ring holds single precision, so stored
    floats round exactly as {!Value.round_f32} (in-tree F32 producers
    already round before writing); an aggregate's float lanes are stored
    as given. *)
val create : name:string -> dtype:Dtype.t -> capacity:int -> unit -> t

val name : t -> string
val dtype : t -> Dtype.t
val capacity : t -> int

(** Registration must happen before the first [put]/[get] of the
    corresponding endpoint; the runtime wires all endpoints up front. *)

val add_consumer : t -> consumer
val add_producer : t -> producer

(** Endpoints registered so far: producers over the queue's lifetime
    (including finished ones) and attached consumers.  The runtime uses
    these to reject miswired edges before execution instead of hanging
    at run time. *)

val producers : t -> int
val consumers : t -> int

(** [reset q] restores the queue to its just-created-and-wired state:
    cursors and sequence numbers return to zero, buffered contents are
    discarded, every registered producer is reopened and the queue is
    unclosed.  The endpoint set is preserved — warm runtime instances
    reuse the queue without
    reallocating buffers, endpoints or the compiled validator.  Must not
    be called while fibers are parked on the queue (the waiter lists are
    dropped); the runtime resets only between runs. *)
val reset : t -> unit

(** Free slots from the producer side (capacity minus unretired
    elements).  Advisory: another fiber may change it; block writes
    re-check under their own blocking discipline. *)
val space : t -> int

(** Unretired elements currently buffered (capacity minus {!space}) —
    the per-net occupancy reported by stuck-graph post-mortems. *)
val occupancy : t -> int

(** [put p v] appends [v]; parks while the queue is full.  Raises
    [Invalid_argument] on dtype mismatch (before parking) or
    put-after-done. *)
val put : producer -> Value.t -> unit

(** [get c] removes this consumer's next element; parks while none is
    available.  Raises {!Sched.End_of_stream} once the queue is closed and
    this consumer has drained it. *)
val get : consumer -> Value.t

(** {1 Block transfers}

    The block fast path: contiguous ring slices move with at most two
    segment copies per chunk ({!Ring}), each value is checked as the
    ring stores it (a block that streams in several chunks is checked
    whole first, so a bad value publishes nothing), and waiters are
    woken once per chunk rather than once per element.  Blocks larger
    than the queue capacity stream through in capacity-sized chunks.
    Blocking and {!Sched.End_of_stream} behaviour match a loop of the
    scalar calls. *)

(** [get_block c n] reads exactly [n] consecutive elements (window
    transfer); parks until all [n] arrive.  Raises
    {!Sched.End_of_stream} if the queue closes before the block is
    complete (elements already consumed stay consumed, as with a scalar
    read loop). *)
val get_block : consumer -> int -> Value.t array

(** [put_block p vs] appends all of [vs] in order. *)
val put_block : producer -> Value.t array -> unit

(** [get_some c ~max] reads between 1 and [max] immediately-available
    consecutive elements, parking only while the queue is empty — the
    boxed sink drain on aggregate nets.  Raises {!Sched.End_of_stream}
    when closed and drained. *)
val get_some : consumer -> max:int -> Value.t array

(** {1 Unboxed block transfers}

    Flat-payload variants of the block operations: same blocking,
    chunking and {!Sched.End_of_stream} discipline, no {!Value.t} in
    the interface; both sides of the copy are unboxed (memcpy-class).
    Float transfers require a float-dtype net and integer transfers an
    integer-dtype net
    ([Invalid_argument] otherwise); integer payloads are range-checked
    against the dtype, and F32 nets round on store as {!Value.round_f32}. *)

val put_floats : producer -> float array -> unit

(** [get_floats c dst] fills all of [dst], parking while the queue is
    empty: a window read into a caller-owned buffer. *)
val get_floats : consumer -> float array -> unit

val put_ints : producer -> int array -> unit

(** [get_ints c dst]: the integer counterpart of {!get_floats}. *)
val get_ints : consumer -> int array -> unit

(** The flat drains: like {!get_some}, but fill the caller's buffer with
    between 1 and its length elements and return the count, so a
    steady-state consumer (the sink pump of {!Io.drain}) reuses one
    buffer instead of allocating per chunk. *)

val get_floats_into : consumer -> float array -> int
val get_ints_into : consumer -> int array -> int

(** {1 Lane block transfers}

    The flat transfers of a [Vector] or [Struct] net: [n] elements at
    element offset [off] of caller-owned lane buffers ({!Ring.lanes}),
    with the same blocking, chunking and {!Sched.End_of_stream}
    discipline and no allocation.  Int lanes are range-checked against
    their dtypes, float lanes are stored as given.  [Invalid_argument]
    on a scalar net or when the buffers hold fewer than [off + n]
    elements. *)

val put_lanes : producer -> Ring.lanes -> int -> int -> unit
val get_lanes : consumer -> Ring.lanes -> int -> int -> unit

(** Mark one producer as finished.  The queue closes when all registered
    producers are done; parked consumers are woken to observe end of
    stream.  Idempotent. *)
val producer_done : producer -> unit

(** Elements written over the queue's lifetime (diagnostic/metric). *)
val total_put : t -> int
