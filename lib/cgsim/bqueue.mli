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
    ({!Runtime}) move data with the element transfers and the one block
    {!write} and {!read}; the drain {!read_upto} serves cgsim's sink
    fibers alone. *)

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
    scalar lanes, so the float, int and lane block transfers below move
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

    One write and one read per endpoint, each taking a payload kind
    ({!Ring.values}, {!Ring.floats}, {!Ring.ints} or {!Ring.lanes}), a
    caller-owned buffer, an element offset [off] and a count [n].
    Contiguous ring slices move with at most two segment copies per
    chunk, and waiters are woken once per chunk rather than once per
    element.  Blocks larger than the free space stream through in
    chunks.  Blocking and {!Sched.End_of_stream} behaviour match a loop
    of the element calls.

    Before anything is published or any wait starts, the kind's
    [require] raises [Invalid_argument] for a kind that does
    not fit the net's dtype, or for an [off] or [n] outside the buffer.
    Each element is checked as the ring stores it; a block that does not
    fit the free space is checked whole first, so a bad element
    publishes nothing.  F32 nets round on store as {!Value.round_f32};
    an aggregate's float lanes are stored as given. *)

(** [write k p b off n] appends elements [off .. off + n - 1] of [b] in
    order. *)
val write : 'b Ring.kind -> producer -> 'b -> int -> int -> unit

(** [read k c b off n] reads exactly [n] consecutive elements into [b]
    from [off] (a window transfer); parks until all [n] arrive.  Raises
    {!Sched.End_of_stream} if the queue closes before the block is
    complete (elements already consumed stay consumed, as with an
    element read loop). *)
val read : 'b Ring.kind -> consumer -> 'b -> int -> int -> unit

(** [read_upto k c b off n] is the drain: it reads between 1 and [n]
    immediately-available elements into [b] from [off] and returns the
    count, parking only while the queue is empty.  Raises
    {!Sched.End_of_stream} when closed and drained, and
    [Invalid_argument] when [n = 0].  Only cgsim's sink fibers
    ({!Io.drain}) use it: x86sim's {!Tqueue} pushes into its sinks
    itself. *)
val read_upto : 'b Ring.kind -> consumer -> 'b -> int -> int -> int

(** Mark one producer as finished.  The queue closes when all registered
    producers are done; parked consumers are woken to observe end of
    stream.  Idempotent. *)
val producer_done : producer -> unit

(** Elements written over the queue's lifetime (diagnostic/metric). *)
val total_put : t -> int
