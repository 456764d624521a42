(** Capacity-aware deadlock detection.

    A cycle of kernels can only make progress if every net on the cycle
    can hold at least one full firing's worth of traffic: a writer that
    blocks mid-firing waits on a reader that is itself (transitively)
    waiting on the writer.  For every strongly connected component of
    the kernel graph this pass compares each internal net's resolved
    queue capacity against the rate-derived minimum
    [max(writer beats/firing, reader beats/firing)]:

    - capacity below the bound on some net → [CG-E201] error naming the
      cycle's kernels and the under-buffered net;
    - some cycle net with unknown rates → [CG-W202] warning (the bound
      cannot be established; a conservative reader should treat the
      cycle as suspect);
    - every net verified → [CG-I203] info recording the cycle and that
      its buffering passed.

    Acyclic graphs produce no findings. *)

(** [required_capacity g inside n]: minimum elements net [n] must buffer
    for a cycle over the kernels in [inside] (a hashtable keyed by
    kernel index) to make progress — the larger of one writer firing's
    deposit and one reader firing's demand, over the endpoints inside
    the component.  [None] when any such endpoint has no known rate.
    Exposed for the capacity-synthesis pass, which turns the same bound
    into suggested depths instead of errors. *)
val required_capacity : Serialized.t -> (int, unit) Hashtbl.t -> Serialized.net -> int option

val analyze : Serialized.t -> Diagnostic.t list
