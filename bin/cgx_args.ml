(* Shared Cmdliner vocabulary for every cgx subcommand, so flags spell
   and document identically everywhere instead of each command growing
   its own slightly-different copy. *)

open Cmdliner

let input =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"C++ source file containing cgsim compute graphs.")

let include_dirs =
  Arg.(
    value & opt_all dir []
    & info [ "I"; "include" ] ~docv:"DIR" ~doc:"Additional include directory.")

let all_graphs =
  Arg.(
    value & flag
    & info [ "a"; "all-graphs" ]
        ~doc:
          "Extract every graph, not only those annotated \
           [[extract_compute_graph]].")

let out_dir =
  Arg.(
    value & opt string "extracted"
    & info [ "o"; "output" ] ~docv:"DIR" ~doc:"Output directory for generated projects.")

let json =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Emit findings as a JSON document (schema cgsim-lint/2).")

let graph =
  Arg.(
    value
    & opt (some string) None
    & info [ "g"; "graph" ] ~docv:"NAME" ~doc:"Lint only the graph named NAME.")

let reps =
  Arg.(value & opt int 8 & info [ "r"; "reps" ] ~docv:"N" ~doc:"Input blocks to simulate.")

let trace =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write an execution trace of the simulation.  FILE ending in .json gets the full \
           Chrome trace-event form (capture-phase scheduler/queue activity plus the replay \
           timeline; open in Perfetto); any other extension gets the CSV iteration timeline.")

let deadline_ms =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Wall-clock budget per graph execution.  A stalled or divergent graph is stopped at \
           the budget and reported with the parked kernels named, instead of hanging the \
           command (or the serving request).")

let metrics =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write aggregate metrics (per-port element counters, per-kernel self-time \
           histograms, scheduler/queue/pool latencies) as Prometheus text exposition \
           (format 0.0.4) to FILE.")

let seed =
  Arg.(
    value
    & opt (some int) None
    & info [ "seed" ] ~docv:"N" ~doc:"Deterministic seed (retry backoff jitter).")

let domains =
  Arg.(
    value & opt int 2
    & info [ "domains" ] ~docv:"N" ~doc:"Worker domains serving requests in parallel.")

let retries =
  Arg.(
    value & opt int 0
    & info [ "retries" ] ~docv:"N"
        ~doc:"Retry budget per request for retryable outcomes (failures, deadline hits).")

let breaker =
  Arg.(
    value
    & opt (some int) None
    & info [ "breaker" ] ~docv:"N"
        ~doc:
          "Circuit-breaker threshold: after N consecutive failed requests the circuit opens \
           and further requests are shed until the server restarts.")

let listen =
  Arg.(
    required
    & opt (some string) None
    & info [ "listen" ] ~docv:"ADDR"
        ~doc:"Listen address: $(b,unix:PATH) or $(b,HOST:PORT).")

let connect =
  Arg.(
    required
    & opt (some string) None
    & info [ "connect" ] ~docv:"ADDR"
        ~doc:"Server address: $(b,unix:PATH) or $(b,HOST:PORT).")

let handle_errors f =
  try f () with
  | Cgc.Diag.Error (range, msg) ->
    Printf.eprintf "%s\n" (Cgc.Diag.to_string range msg);
    exit 1
  | Cgc.Sema.Sema_error (range, msg) ->
    Printf.eprintf "%s\n" (Cgc.Diag.to_string range msg);
    exit 1
  | Cgc.Consteval.Eval_error (range, msg) ->
    Printf.eprintf "%s\n" (Cgc.Diag.to_string range msg);
    exit 1
  | Cgc.Driver.Driver_error msg | Extractor.Project.Extract_error msg ->
    Printf.eprintf "error: %s\n" msg;
    exit 1
  | Sys_error msg ->
    Printf.eprintf "error: %s\n" msg;
    exit 1
  | Aiesim.Sim.Sim_error msg
  | Cgsim.Runtime.Runtime_error msg
  | Cgsim.Builder.Construction_error msg ->
    Printf.eprintf "error: %s\n" msg;
    exit 1
  | Unix.Unix_error (e, fn, arg) ->
    Printf.eprintf "error: %s: %s%s\n" fn (Unix.error_message e)
      (if arg = "" then "" else " (" ^ arg ^ ")");
    exit 1
  | Failure msg ->
    Printf.eprintf "error: %s\n" msg;
    exit 1
