(** Thread-safe bounded broadcast queues.

    The preemptive counterpart of {!Cgsim.Bqueue}, used by the x86sim
    analogue, which runs every kernel on its own OS thread like AMD's
    functional simulator (Section 5.2).  Synchronisation is a mutex and
    condition variable per queue — the overhead the paper's Table 2
    contrasts against cgsim's cooperative design.

    Semantics match {!Cgsim.Bqueue}, and so does the data: both wrap the
    same {!Cgsim.Ring} (storage, segment copies, dtype checks, cursors).
    Broadcast to every consumer, per-producer FIFO,
    close-on-last-producer, reads past a drained closed queue raise
    {!Cgsim.Sched.End_of_stream}.  Global I/O runs on the threads that
    touch the queue: a source attached with {!attach_source} is copied in
    by the reader that finds the queue empty, and a sink attached with
    {!attach_sink} is filled by the writer that finds the queue full or
    closes it.  Both copy through {!Cgsim.Io.transfer} and
    {!Cgsim.Io.emit}.  So the queue offers only the transfers a kernel
    port makes, and not {!Cgsim.Bqueue.read_upto}, the drain.

    Readers are woken once per stored chunk.  Writers blocked on a full
    ring are woken in batches: a kernel's read that leaves at least half
    the ring free wakes them at once, and a smaller one is owed in the
    kernel's {!waker}.  The kernel delivers what it owes before it
    waits on any queue, when its writer's {!space} reads 0, and (through
    {!deliver}) when its body ends.  The ring's free space is always
    current, so a writer waits only while the ring is full, and no
    kernel blocks while it owes a wake. *)

type t

type consumer

type producer

(** The wakes one kernel owes the writers of the nets it reads.  Make
    one per kernel (per thread) and give it to every endpoint that
    kernel adds; only that thread may use the endpoints. *)
type waker

(** Storage follows the dtype ({!Cgsim.Ring}) and is always flat:
    scalar dtypes get a bigarray of their kind and aggregate dtypes
    store scalar lanes, so the float, int and lane block transfers below
    move native memory.  F32 rings round stored values as
    {!Cgsim.Value.round_f32}; an aggregate's float lanes are stored as
    given. *)
val create : name:string -> dtype:Cgsim.Dtype.t -> capacity:int -> unit -> t

val waker : unit -> waker

val add_consumer : waker -> t -> consumer

val add_producer : waker -> t -> producer

(** [deliver w] wakes the writers of every net on which [w]'s kernel
    retired elements without waking them.  {!Sim.run} calls it when a
    kernel's body ends or fails, with no queue operation in progress. *)
val deliver : waker -> unit

val put : producer -> Cgsim.Value.t -> unit
(** Blocks while full; a value that does not conform to the net's dtype
    raises [Invalid_argument] before it blocks. *)

val get : consumer -> Cgsim.Value.t
(** Blocks while empty; raises {!Cgsim.Sched.End_of_stream} when closed
    and drained.  Every read on an empty source net pulls first. *)

(** {1 Block transfers}

    One write and one read, each taking a payload kind
    ({!Cgsim.Ring.values}, {!Cgsim.Ring.floats}, {!Cgsim.Ring.ints} or
    {!Cgsim.Ring.lanes}), a caller-owned buffer, an element offset [off]
    and a count [n], as {!Cgsim.Bqueue.write} and {!Cgsim.Bqueue.read}.
    Semantically equivalent to element loops, but each call takes the
    queue lock once for the whole block (condition waits release it
    while blocked), allocates nothing unless it waits, moves contiguous
    ring slices with at most two segment copies per chunk, and wakes
    readers once per stored chunk (writers by the half-capacity rule
    above).

    The kind's [require] raises [Invalid_argument] before the lock for a
    kind that does not fit the net's dtype or an [off] or [n] outside
    the buffer.  Each element is checked as the ring stores it; a block
    that does not fit the free space read under the lock is checked
    whole first, so a bad element publishes nothing.  F32 nets round on
    store. *)

(** [write k p b off n] stores elements [off .. off + n - 1] of [b],
    chunking by available space; blocks larger than the capacity stream
    through. *)
val write : 'b Cgsim.Ring.kind -> producer -> 'b -> int -> int -> unit

(** [read k c b off n] reads exactly [n] elements into [b] from [off].
    Raises {!Cgsim.Sched.End_of_stream} if the queue closes mid-block
    (elements consumed so far stay consumed, like the element loop). *)
val read : 'b Cgsim.Ring.kind -> consumer -> 'b -> int -> int -> unit

(** The last producer closes the queue and pushes what is left into the
    sinks, so it can raise {!Endpoint_failed}. *)
val producer_done : producer -> unit

(** {1 Global I/O} *)

(** A source or sink raised while a queue operation copied through it:
    the endpoint's name and its exception.  Any operation that can pull
    or push may raise it.  The failed source closes the queue; the
    failed sink gets nothing more, and its cursor no longer holds the
    ring full. *)
exception Endpoint_failed of string * exn

(** [attach_source q src] makes [src] the queue's only writer: a reader
    whose cursor is at the head copies the next segment of the payload,
    at most the free space, straight into the ring, and closes the queue
    when the payload runs out.  It waits only while a slower reader of
    the broadcast holds the ring full.  A flat payload of the wrong kind
    fails at the first pull.  [Invalid_argument] if [q] already has a
    writer. *)
val attach_source : t -> Cgsim.Io.source -> unit

(** [attach_sink q k] adds a cursor for [k] at the head.  A writer
    drains it into [k] when a put (or {!space}) finds the ring full, and
    the last producer (or the reader that exhausts a source) drains it
    when it closes the queue. *)
val attach_sink : t -> Cgsim.Io.sink -> unit

(** [flush q] moves the rest of the attached source through the ring
    into the sinks on the calling thread, for a net no consumer reads;
    a no-op without a source. *)
val flush : t -> unit

(** {1 Deadline teardown}

    [poison q] marks the queue and wakes every blocked thread; from then
    on any operation on [q] — including ones that would not have blocked
    — raises {!Cgsim.Sched.Terminated}.  {!Sim.run}'s watchdog poisons
    all queues when the wall-clock budget expires, so the per-kernel OS
    threads unwind at their next queue touch.  Idempotent, thread-safe. *)
val poison : t -> unit

val space : producer -> int
(** Advisory free space (capacity minus in-flight elements), taken under
    the queue lock but stale the moment it returns; block writes re-check
    before storing.  A full ring drains its sinks first, and a reading
    of 0 delivers the wakes the producer's kernel owes.  Feeds
    {!Cgsim.Port.w_space}. *)
