(** The lint driver: every pass over one graph, one finding list.

    Pass order is structural validation first ({!Serialized.validate_diags});
    when it reports errors the graph's indices cannot be trusted, so the
    deeper passes are skipped and only the structural findings are
    returned.  Otherwise the rates, deadlock, capacity, throughput,
    hazards and pool-safety passes run ({!passes}), and their findings
    are filtered through per-net suppression and sorted errors-first.

    Suppression: a net attribute ["lint.suppress"] whose string value is
    a comma-separated list of codes (or ["all"]) drops findings of those
    codes when {e every} net the finding names carries the suppression.
    Findings naming no net are never suppressed. *)

val run : Serialized.t -> Diagnostic.t list

(** The passes after structural validation, with suppression and
    sorting as {!run}: [run g] is [passes g] when
    {!Serialized.validate_diags} accepts [g].  {!Runtime.compile}, which
    has already validated the graph, runs this as its pre-flight
    whenever [Run_config.lint] is not [`Off]. *)
val passes : Serialized.t -> Diagnostic.t list
