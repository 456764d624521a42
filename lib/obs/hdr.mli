(** HDR-style log-linear latency histogram.

    Each power-of-two octave is split into 128 linear sub-buckets, so
    any reported quantile is within {!rel_error} (~0.78 %) of the exact
    rank statistic of the recorded values — one-sided (never below it)
    — with exact integer resolution below 128 ns.  Recording is O(1)
    and allocation-free; two histograms merge by bucket-wise addition,
    which is how per-domain recorders combine without sharing.

    Not internally synchronised: use per-domain instances or guard with
    a lock (as {!Metrics} does). *)

type t

val create : unit -> t

(** Worst-case relative error of {!quantile} against the exact rank
    statistic (1/128). *)
val rel_error : float

(** [record t v] records [v] (nanoseconds; negatives and NaN clamp to
    0, values are rounded to integer ns). *)
val record : t -> float -> unit

val count : t -> int

(** Exact sum of recorded values (pre-quantisation). *)
val sum : t -> float

val min_value : t -> float

val max_value : t -> float

val mean : t -> float

(** [quantile t q] for [q] in [0,1]: the highest value of the first
    bucket covering the rank, clamped to the observed min/max.  Within
    {!rel_error} of the exact statistic. *)
val quantile : t -> float -> float

(** [merge_into ~into src] adds every bucket of [src] into [into];
    [src] is unchanged. *)
val merge_into : into:t -> t -> unit

(** Bucket-wise sum as a fresh histogram; commutative. *)
val merge : t -> t -> t

val copy : t -> t

(** Non-empty buckets as [(upper_bound, cumulative_count)], ascending —
    the series behind both quantiles and Prometheus [_bucket] lines. *)
val cumulative : t -> (float * int) list
