(** Prometheus text exposition (format 0.0.4) over a
    {!Metrics.snapshot}, plus the strict parser CI uses to validate
    every exposition the tools write.

    Metric keys follow the in-tree convention ["family.parts:instance"]
    (e.g. ["kernel.self_ns:farrow0"]): the part before [':'] becomes the
    metric family (dots mapped to underscores, namespace prefixed), the
    part after it an [{id="..."}] label.  Counters get the [_total]
    suffix; histograms emit cumulative [_bucket{le=...}] series ending
    in [+Inf], then [_sum] and [_count]. *)

(** Render a snapshot as exposition text, one [# TYPE] line per
    family, each family name prefixed with [namespace] (default
    ["cgsim_"]). *)
val of_snapshot : ?namespace:string -> Metrics.snapshot -> string

(** Strict validation: line shapes, metric-name and label syntax,
    samples preceded by their [# TYPE], histogram buckets in ascending
    [le] order with non-decreasing cumulative counts ending in a [+Inf]
    bucket that equals [_count], and [_sum] present.  Returns the first
    violation. *)
val validate : string -> (unit, string) result
