(* What one workload run produces: named metrics with units, the
   request/operation tally, and extra detail for the [--json] file. *)

type t = {
  mutable metrics : (string * float * string) list;  (* newest first *)
  mutable attempted : int;
  mutable failed : int;
  mutable extra : (string * Obs.Json.t) list;
}

let create () = { metrics = []; attempted = 0; failed = 0; extra = [] }

let metric r name unit v = r.metrics <- (name, v, unit) :: r.metrics

let attempt r n = r.attempted <- r.attempted + n

(* Every failure is counted against [attempted] and explained on
   stderr: failed, deadline, shed, wrong-output, transport-lost and
   frozen-value mismatches alike. *)
let fail r ?(n = 1) fmt =
  Printf.ksprintf
    (fun msg ->
      r.failed <- r.failed + n;
      Printf.eprintf "benchmark: FAILED (%d): %s\n%!" n msg)
    fmt

let extra r key v = r.extra <- (key, v) :: r.extra

let metrics r = List.rev r.metrics

let json_metrics r =
  Obs.Json.Obj
    (List.map
       (fun (name, v, unit) ->
         name, Obs.Json.Obj [ "value", Obs.Json.Num v; "unit", Obs.Json.Str unit ])
       (metrics r))

(* setup_s is [Util.fast_time] of several set-ups; the samples go to
   --json. *)
let setup r samples_ns =
  metric r "setup_s" "s" (Util.fast_time samples_ns /. 1e9);
  extra r "setup_ms" (Obs.Json.Arr (Array.to_list (Array.map (fun x -> Obs.Json.Num (x /. 1e6)) samples_ns)))
