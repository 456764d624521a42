(** Rendering of finding sets.

    One reporter for every surface: [cgx lint]'s text and [--json]
    output, the runtime pre-flight's stderr lines, and the extractor's
    embedded README section all go through here so a finding reads the
    same everywhere. *)

(** One line per finding (sorted errors-first) followed by a summary
    line ["N errors, M warnings, K infos"]; ["no findings"] alone when
    the list is empty. *)
val to_text : Diagnostic.t list -> string

(** The summary line by itself. *)
val summary : Diagnostic.t list -> string

(** JSON document with schema ["cgsim-lint/2"]: graph name, per-severity
    counts, the findings as structured objects, plus — new in /2 and
    always present — [suggested_capacities] (the {!Capacity.suggest}
    [(net, depth)] pairs; empty array when the caller passes none) and
    [predicted_bottleneck] (the {!Throughput} bottleneck kernel name, or
    [null]). *)
val to_json :
  ?suggested_capacities:(int * int) list ->
  ?predicted_bottleneck:string ->
  graph:string ->
  Diagnostic.t list ->
  Obs.Json.t
