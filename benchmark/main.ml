(* The benchmark: one command that runs a workload, checks every output,
   and prints every end-to-end metric (or, with --trace 1, every
   per-layer metric) by name and unit.  The last line of standard output
   is one JSON object: {"correct", "attempted", "failed", "metrics"}.

     dune exec benchmark/main.exe -- --workload W --seed N --seconds S --trace 0|1
       [--json FILE] [--trace-out FILE]
     dune exec benchmark/main.exe -- --seed N          (every workload)
     dune exec benchmark/main.exe -- --smoke           (the runtest check)

   See benchmark/README.md for the workloads and metric definitions. *)

let workloads : (string * (Ctx.t -> Report.t -> unit)) list =
  [
    "serve_remote", Serve_wl.run;
    "pool_mix", Pool_wl.run;
    "sim_cgsim", Sim_wl.run Sim_wl.Cgsim;
    "sim_x86sim", Sim_wl.run Sim_wl.X86sim;
    "sim_aiesim", Sim_wl.run Sim_wl.Aiesim;
  ]

let names = List.map fst workloads

(* The end-to-end metrics, and how the host's speed enters each. *)
let end_to_end =
  [ "setup_s", `Time; "peak_rss_mb", `Size; "payload_MBps", `Rate; "latency_p50_us", `Time ]

(* Times and rates at the reference host speed: divided (times) or
   multiplied (rates) by how much slower than that speed the host ran
   during the rounds.  The measured values go to --json.  See README. *)
let at_reference_speed (r : Report.t) ctx =
  let slowdown = Ctx.host_slowdown ctx in
  Report.extra r "host_slowdown" (Obs.Json.Num slowdown);
  Report.extra r "measured" (Obs.Json.Obj (List.map (fun (n, v, _) -> n, Obs.Json.Num v) (Report.metrics r)));
  r.Report.metrics <-
    List.map
      (fun (n, v, u) ->
        match List.assoc_opt n end_to_end with
        | Some `Time -> n, v /. slowdown, u
        | Some `Rate -> n, v *. slowdown, u
        | Some `Size | None -> n, v, u)
      r.Report.metrics

(* Any exception ends the workload as a failure, never as a crash
   without a result line. *)
let protect r f =
  try f () with
  | e ->
    Report.fail r "%s" (Printexc.to_string e);
    if r.Report.attempted = 0 then Report.attempt r 1

let run_plain ~size ~seed ~seconds ?fixed_rounds f =
  let r = Report.create () in
  let ctx = Ctx.create ~size ~seed ~seconds ~fixed_rounds ~traced:false in
  protect r (fun () -> f ctx r);
  Report.extra r "host_probe_ms" (Obs.Json.Num (Util.median (Util.Samples.to_array ctx.Ctx.probes)));
  r, ctx

(* The traced run: the selected workload untraced, then traced passes
   over every layer, the selected workload's included, all on the same
   fixed number of rounds (the untraced/traced gap is the tracing
   overhead).  Only per-layer metrics are kept; the spans are written to
   [trace_out] as a Chrome trace when it is given. *)
let run_traced ~size ~seed ?trace_out (name, f) =
  let size = { size with Frozen.serve_setups = 1; pool_setups = 1; sim_setups = 1 } in
  let rounds = size.Frozen.trace_rounds in
  let plain, _ = run_plain ~size ~seed ~seconds:0.0 ~fixed_rounds:rounds f in
  Spans.reset ();
  Spans.enabled := true;
  let r = Report.create () in
  let traced = Ctx.create ~size ~seed ~seconds:0.0 ~fixed_rounds:(Some rounds) ~traced:true in
  let keep label from =
    r.Report.attempted <- r.Report.attempted + from.Report.attempted;
    r.Report.failed <- r.Report.failed + from.Report.failed;
    List.iter
      (fun (n, v, u) -> if not (List.mem_assoc n end_to_end) then Report.metric r n u v)
      (Report.metrics from);
    List.iter (fun (k, v) -> Report.extra r (label ^ "." ^ k) v) (List.rev from.Report.extra)
  in
  let pass label f =
    let x = Report.create () in
    protect x (fun () -> f x);
    keep label x;
    x
  in
  let serve = pass "serve" (Serve_wl.run traced) in
  let pool = pass "pool" (Pool_wl.run traced) in
  ignore (pass "runtime" (Pool_wl.runtime_layer traced) : Report.t);
  let sims = pass "sim" (Sim_wl.layers traced) in
  Spans.enabled := false;
  Report.metric r "host.ref_loop_ms" "ms" (Util.median (Util.Samples.to_array traced.Ctx.probes));
  let value rep metric =
    match List.find_opt (fun (n, _, _) -> String.equal n metric) (Report.metrics rep) with
    | Some (_, v, _) -> v
    | None -> Float.nan
  in
  let traced_MBps =
    match name with
    | "serve_remote" -> value serve "payload_MBps"
    | "pool_mix" -> value pool "payload_MBps"
    | "sim_cgsim" -> value sims "cgsim_MBps"
    | "sim_x86sim" -> value sims "x86sim_MBps"
    | _ -> value sims "aiesim_MBps"
  in
  keep "untraced" { plain with Report.metrics = [] };
  Report.extra r "span_self_ms"
    (Obs.Json.Obj
       (List.map
          (fun (name, n, ns) ->
            ( name,
              Obs.Json.Obj [ "spans", Obs.Json.Num (float_of_int n); "self_ms", Obs.Json.Num (ns /. 1e6) ] ))
          (Spans.self_ns_by_name ())));
  Report.metric r "trace.overhead_pct" "%" ((value plain "payload_MBps" /. traced_MBps -. 1.0) *. 100.0);
  Option.iter
    (fun file ->
      Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc (Spans.chrome_json ()));
      Printf.printf "wrote Chrome trace (%d spans) to %s\n" (List.length (Spans.all ())) file)
    trace_out;
  r

let result_json ~metrics ~attempted ~failed =
  Obs.Json.Obj
    [
      "correct", Obs.Json.Bool (failed = 0);
      "attempted", Obs.Json.Num (float_of_int attempted);
      "failed", Obs.Json.Num (float_of_int failed);
      "metrics", metrics;
    ]

let print_report name (r : Report.t) =
  List.iter
    (fun (n, v, u) -> Printf.printf "%-14s %-34s %16.6f %s\n" name n v u)
    (Report.metrics r);
  Printf.printf "%-14s attempted %d, failed %d\n%!" name r.Report.attempted r.Report.failed

let write_json file ~seed ~seconds ~trace reports =
  let doc =
    Obs.Json.Obj
      [
        "schema", Obs.Json.Str "cgsim-benchmark/1";
        "host_cores", Obs.Json.Num (float_of_int (Domain.recommended_domain_count ()));
        "seed", Obs.Json.Num (float_of_int seed);
        "seconds", Obs.Json.Num seconds;
        "trace", Obs.Json.Bool trace;
        ( "workloads",
          Obs.Json.Arr
            (List.map
               (fun (name, (r : Report.t)) ->
                 Obs.Json.Obj
                   [
                     "name", Obs.Json.Str name;
                     "attempted", Obs.Json.Num (float_of_int r.Report.attempted);
                     "failed", Obs.Json.Num (float_of_int r.Report.failed);
                     "error_share",
                     Obs.Json.Num (float_of_int r.Report.failed /. float_of_int (max 1 r.Report.attempted));
                     "metrics", Report.json_metrics r;
                     "extra", Obs.Json.Obj (List.rev r.Report.extra);
                   ])
               reports) );
      ]
  in
  Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc (Util.json_to_string doc))

(* --smoke: every workload at tiny sizes, untraced and traced, checked
   against BENCHMARK.json: each listed metric is emitted with its unit,
   the result line parses with Obs.Json, and nothing failed. *)
let smoke () =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let spec =
    match Util.find_up "BENCHMARK.json" with
    | None -> Obs.Json.Null
    | Some f -> (
      match Obs.Json.of_string (In_channel.with_open_bin f In_channel.input_all) with
      | Ok j -> j
      | Error e ->
        problem "BENCHMARK.json: %s" e;
        Obs.Json.Null)
  in
  let listed key =
    match Option.bind (Obs.Json.member key spec) Obs.Json.to_list with
    | Some items ->
      List.filter_map
        (fun m ->
          match Option.bind (Obs.Json.member "name" m) Obs.Json.to_str with
          | Some n -> Some (n, Option.bind (Obs.Json.member "unit" m) Obs.Json.to_str)
          | None -> None)
        items
    | None ->
      problem "BENCHMARK.json: no %s list" key;
      []
  in
  let check what (r : Report.t) expected =
    let line =
      Util.json_to_string
        (result_json ~metrics:(Report.json_metrics r) ~attempted:r.Report.attempted
           ~failed:r.Report.failed)
    in
    (match Obs.Json.of_string line with
     | Ok _ -> ()
     | Error e -> problem "%s: result line does not parse: %s" what e);
    if r.Report.failed > 0 then problem "%s: %d failed" what r.Report.failed;
    List.iter
      (fun (n, unit) ->
        match List.find_opt (fun (m, _, _) -> String.equal m n) (Report.metrics r) with
        | None -> problem "%s: metric %s not emitted" what n
        | Some (_, _, u) when Some u <> unit -> problem "%s: metric %s has unit %s" what n u
        | Some _ -> ())
      expected;
    List.iter
      (fun (n, _, _) -> if not (List.mem_assoc n expected) then problem "%s: metric %s not listed" what n)
      (Report.metrics r)
  in
  if List.map fst (listed "workloads") <> names then problem "BENCHMARK.json workloads differ from the code";
  let size = Frozen.smoke in
  List.iter
    (fun (name, f) ->
      check name (fst (run_plain ~size ~seed:1 ~seconds:0.0 ~fixed_rounds:1 f)) (listed "end_to_end"))
    workloads;
  let r = run_traced ~size ~seed:1 (List.hd workloads) in
  (match Obs.Json.of_string (Spans.chrome_json ()) with
   | Ok _ -> ()
   | Error e -> problem "Chrome trace does not parse: %s" e);
  check "trace" r (listed "per_layer");
  match List.rev !problems with
  | [] -> print_endline "benchmark smoke: ok"
  | ps ->
    List.iter (fun p -> Printf.eprintf "benchmark smoke: %s\n" p) ps;
    exit 1

let usage () =
  prerr_endline
    "usage: main.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE] \
     [--json FILE] | --smoke";
  exit 2

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 10.0 and trace = ref false in
  let json = ref None and trace_out = ref None and smoke_mode = ref false in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest ->
      if not (List.mem w names) then usage ();
      workload := Some w;
      parse rest
    | "--seed" :: n :: rest ->
      seed := (match int_of_string_opt n with Some n -> n | None -> usage ());
      parse rest
    | "--seconds" :: s :: rest ->
      seconds := (match float_of_string_opt s with Some s when s > 0.0 -> s | _ -> usage ());
      parse rest
    | "--trace" :: v :: rest ->
      trace := (match v with "0" -> false | "1" -> true | _ -> usage ());
      parse rest
    | "--trace-out" :: f :: rest ->
      trace_out := Some f;
      parse rest
    | "--json" :: f :: rest ->
      json := Some f;
      parse rest
    | "--smoke" :: rest ->
      smoke_mode := true;
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !smoke_mode then smoke ()
  else begin
    let selected =
      match !workload with
      | Some w -> List.filter (fun (n, _) -> String.equal n w) workloads
      | None -> workloads
    in
    let reports =
      List.map
        (fun ((name, f) as w) ->
          let r =
            if !trace then run_traced ~size:Frozen.full ~seed:!seed ?trace_out:!trace_out w
            else begin
              let r, ctx = run_plain ~size:Frozen.full ~seed:!seed ~seconds:!seconds f in
              at_reference_speed r ctx;
              r
            end
          in
          print_report name r;
          name, r)
        selected
    in
    Option.iter (fun f -> write_json f ~seed:!seed ~seconds:!seconds ~trace:!trace reports) !json;
    let attempted = List.fold_left (fun acc (_, r) -> acc + r.Report.attempted) 0 reports in
    let failed = List.fold_left (fun acc (_, r) -> acc + r.Report.failed) 0 reports in
    let metrics =
      match reports with
      | [ (_, r) ] -> Report.json_metrics r
      | _ ->
        Obs.Json.Obj
          (List.concat_map
             (fun (name, r) ->
               match Report.json_metrics r with
               | Obs.Json.Obj fields -> List.map (fun (k, v) -> name ^ ":" ^ k, v) fields
               | _ -> [])
             reports)
    in
    print_endline (Util.json_to_string (result_json ~metrics ~attempted ~failed));
    exit (if failed = 0 then 0 else 1)
  end
