(** Capacity synthesis: minimal deadlock-free buffer sizing.

    The deadlock pass ({!Deadlock}) rejects cycles whose internal nets
    buffer less than one firing's worth of traffic.  This pass runs the
    same bound constructively: for every under-buffered net inside a
    cyclic strongly connected component it computes the minimal queue
    depth that lets the cycle progress, and reports the lot as a
    [CG-I204] info finding per cycle ("net7 2 -> 64, ...").

    The suggestion is minimal by construction — the bound is exact, so a
    depth one element smaller reintroduces [CG-E201] (and, at run time,
    the real deadlock).  Depths are only ever raised relative to the
    graph's resolved settings; adequately (or over-) buffered nets
    produce no suggestion.

    With [Run_config.auto_capacity] on, {!Runtime.compile} applies
    {!suggest}'s depths to the compiled queue capacities. *)

(** [(net_id, minimal depth)] for every net whose resolved capacity is
    below some containing cycle's bound, sorted by net id.  Nets whose
    rates are unknown are skipped (see the deadlock pass's [CG-W202]);
    the empty list means no change is needed. *)
val suggest : Serialized.t -> (int * int) list

(** The [CG-I204] findings, one per cyclic SCC with at least one
    under-buffered net. *)
val analyze : Serialized.t -> Diagnostic.t list
