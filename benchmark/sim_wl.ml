(* sim_cgsim, sim_x86sim, sim_aiesim: the paper's Table 2 path, one
   long simulation per app per round under one simulator, with no pool
   and no wire.  The time goes to kernel bodies and the data plane
   (Sched/Bqueue/Fused for cgsim, Tqueue and OS threads for x86sim,
   capture plus replay for aiesim).  A round simulates each app once,
   in a seeded order: one Table 2 column.

   sim_aiesim also runs the Table 1 pass (CGC extraction, then aiesim on
   the baseline and the extracted deploy), whose simulated values are
   checked exactly. *)

type sim =
  | Cgsim
  | X86sim
  | Aiesim

let sim_name = function Cgsim -> "cgsim" | X86sim -> "x86sim" | Aiesim -> "aiesim"

let apps () = List.map (fun (app, _) -> Inputs.by_name app) Frozen.sim_reps

let reps (ctx : Ctx.t) sim (h : Apps.Harness.t) =
  let r = max 1 (List.assoc h.Apps.Harness.name Frozen.sim_reps / ctx.Ctx.size.Frozen.sim_scale) in
  if sim = Aiesim then max 1 (r / Frozen.aiesim_divisor) else r

let check_exact r what table (app, reps) actual =
  match List.assoc_opt (app, reps) table with
  | Some v when v = actual -> ()
  | Some v -> Report.fail r "%s.%s at %d reps: %d, frozen value %d" what app reps actual v
  | None -> Report.fail r "%s.%s at %d reps: %d, no frozen value" what app reps actual

let check_output r (h : Apps.Harness.t) ~reps ~what out =
  match h.Apps.Harness.check ~reps out with
  | Ok () -> ()
  | Error e -> Report.fail r "%s %s: %s" what h.Apps.Harness.name e

type run_out = {
  host_ns : float;
  bytes : int;
  slices : int;
  elements : int;
  kernel_fraction : float;
  trace_events : int;
}

exception Sim_failed of string

(* One simulation; outputs checked after the timer stops. *)
let simulate r sim (h : Apps.Harness.t) g ~reps ~sources =
  let app = h.Apps.Harness.name in
  let sinks, contents = h.Apps.Harness.make_sinks () in
  let sources = sources () in
  let span = Printf.sprintf "%s.run:%s" (sim_name sim) app in
  let out, host_ns =
    Util.time (fun () ->
        Spans.wrap span (fun () ->
            match sim with
            | Cgsim -> (
              let inst = Cgsim.Runtime.new_instance (Cgsim.Runtime.compile g) in
              match Cgsim.Runtime.run inst ~sources ~sinks with
              | Cgsim.Runtime.Completed st ->
                let elements = Array.fold_left ( + ) 0 (Cgsim.Runtime.net_traffic inst) in
                st.Cgsim.Sched.slices, elements, Cgsim.Sched.kernel_fraction st, 0
              | o -> raise (Sim_failed (Cgsim.Runtime.outcome_label o)))
            | X86sim -> (
              match X86sim.Sim.run g ~sources ~sinks with
              | X86sim.Sim.Completed _ -> 0, 0, 0.0, 0
              | o -> raise (Sim_failed (X86sim.Sim.outcome_label o)))
            | Aiesim ->
              let rep = Aiesim.Sim.run (Aiesim.Deploy.baseline g) ~sources ~sinks in
              0, 0, 0.0, rep.Aiesim.Sim.trace_events))
  in
  Report.attempt r 1;
  let slices, elements, kernel_fraction, trace_events = out in
  check_output r h ~reps ~what:(sim_name sim) (contents ());
  (match sim with
   | Cgsim ->
     check_exact r "sched.slices" Frozen.sched_slices (app, reps) slices;
     check_exact r "runtime.elements" Frozen.runtime_elements (app, reps) elements
   | Aiesim -> check_exact r "aiesim.trace_events" Frozen.aiesim_trace_events (app, reps) trace_events
   | X86sim -> ());
  { host_ns; bytes = reps * h.Apps.Harness.block_bytes; slices; elements; kernel_fraction; trace_events }

let cgc_file app =
  match Util.find_up (Filename.concat "examples" "cgc") with
  | Some dir -> Filename.concat dir (app ^ ".cgc")
  | None -> raise (Sim_failed "examples/cgc not found above the working directory")

let extract app =
  match
    Spans.wrap ("extractor.extract:" ^ app) (fun () ->
        Extractor.Project.extract_file (cgc_file app))
  with
  | [ p ] -> p
  | ps -> raise (Sim_failed (Printf.sprintf "%s.cgc: %d extracted graphs" app (List.length ps)))

(* Graph build, Runtime.compile and CGC extraction for the four apps. *)
let setup_once () =
  snd
    (Util.time (fun () ->
         List.iter
           (fun (h : Apps.Harness.t) ->
             ignore (Cgsim.Runtime.compile (h.Apps.Harness.graph ()) : Cgsim.Runtime.compiled);
             ignore (extract h.Apps.Harness.name : Extractor.Project.t))
           (apps ())))

type app_run = {
  h : Apps.Harness.t;
  g : Cgsim.Serialized.t;
  app_reps : int;
  sources : unit -> Cgsim.Io.source list;
}

(* Rounds of one simulator; per-app results, newest first. *)
let sim_rounds ?(after_round = ignore) (ctx : Ctx.t) r rng sim =
  let runs =
    Array.of_list
      (List.map
         (fun h ->
           let app_reps = reps ctx sim h in
           { h; g = h.Apps.Harness.graph (); app_reps; sources = Inputs.sources_of h ~reps:app_reps })
         (apps ()))
  in
  let results = ref [] and round_ns = Util.Samples.create () and per_round = Util.Samples.create () in
  Ctx.rounds ctx (fun _ ->
      let order = Array.copy runs in
      Util.shuffle rng order;
      let outs =
        Array.map
          (fun a -> a.h.Apps.Harness.name, simulate r sim a.h a.g ~reps:a.app_reps ~sources:a.sources)
          order
      in
      let bytes = Array.fold_left (fun acc (_, o) -> acc + o.bytes) 0 outs in
      let host = Array.fold_left (fun acc (_, o) -> acc +. o.host_ns) 0.0 outs in
      Util.Samples.add round_ns host;
      Util.Samples.add per_round (float_of_int bytes /. (host /. 1e9) /. 1e6);
      results := Array.to_list outs @ !results;
      after_round ());
  !results, Util.Samples.to_array round_ns, Util.Samples.to_array per_round

(* Table 1: aiesim on the hand-written (baseline) and the extracted
   deploy of each app; simulated, so exact. *)
let table1 r =
  let rows =
    List.map
      (fun (h : Apps.Harness.t) ->
        let app = h.Apps.Harness.name in
        let reps = Frozen.table1_reps in
        let sources = Inputs.sources_of h ~reps in
        let measure what deploy =
          let sinks, contents = h.Apps.Harness.make_sinks () in
          let rep = Aiesim.Sim.run deploy ~sources:(sources ()) ~sinks in
          Report.attempt r 1;
          check_output r h ~reps ~what (contents ());
          rep
        in
        let baseline = measure "table1 baseline" (Aiesim.Deploy.baseline (h.Apps.Harness.graph ())) in
        let extracted = measure "table1 extracted" (Extractor.Project.deploy (extract app)) in
        let base_ns = baseline.Aiesim.Sim.ns_per_block
        and extr_ns = extracted.Aiesim.Sim.ns_per_block in
        (match List.assoc_opt app Frozen.aie_ns_per_block with
         | Some (b, e) when Float.equal b base_ns && Float.equal e extr_ns -> ()
         | frozen ->
           Report.fail r "aie ns/block %s: %.17g / %.17g, frozen %s" app base_ns extr_ns
             (match frozen with
              | Some (b, e) -> Printf.sprintf "%.17g / %.17g" b e
              | None -> "none"));
        app, base_ns, extr_ns, Aiesim.Sim.relative_throughput_percent ~baseline ~extracted)
      (apps ())
  in
  let err =
    Util.mean
      (Array.of_list
         (List.map (fun (app, _, _, rel) -> Float.abs (rel -. List.assoc app Frozen.paper_rel_pct)) rows))
  in
  rows, err

(* Kernel bodies' share of fiber self time, from the existing
   Obs.Profile rows of one profiled cgsim run per app. *)
let kernel_self_share (h : Apps.Harness.t) ~reps =
  let g = h.Apps.Harness.graph () in
  let sources = Inputs.sources_of h ~reps in
  let sinks, _ = h.Apps.Harness.make_sinks () in
  let _, session =
    Obs.Trace.with_session (fun () -> Cgsim.Runtime.execute g ~sources:(sources ()) ~sinks)
  in
  let rows = Obs.Profile.rows (Obs.Metrics.snapshot session.Obs.Trace.metrics) in
  let kernel_names = Array.to_list (Array.map (fun k -> k.Cgsim.Serialized.inst_name) g.Cgsim.Serialized.kernels) in
  let sum p = List.fold_left (fun acc row -> if p row then acc +. row.Obs.Profile.self_ns else acc) 0.0 rows in
  sum (fun row -> List.mem row.Obs.Profile.kernel kernel_names) /. Float.max 1.0 (sum (fun _ -> true))

(* Set-up is sampled a few times up front and once after every round:
   the host has slow spells of 50 ms and more, longer than a burst of
   1.5 ms set-ups, so samples spread over the run give a steadier
   median. *)
let run sim (ctx : Ctx.t) r =
  ignore (setup_once () : float);
  let setups = Util.Samples.create () in
  let sample () = Util.Samples.add setups (setup_once ()) in
  for _ = 1 to ctx.Ctx.size.Frozen.sim_setups do
    sample ()
  done;
  let rng = Workloads.Prng.create ~seed:ctx.Ctx.seed in
  let _, round_ns, per_round = sim_rounds ~after_round:sample ctx r rng sim in
  let setups = Util.Samples.to_array setups in
  if sim = Aiesim then ignore (table1 r);
  let m = Report.metric r in
  Report.setup r setups;
  m "peak_rss_mb" "MB" (Util.peak_rss_mb "self");
  m "payload_MBps" "MB/s" (Util.fast_rate per_round);
  m "latency_p50_us" "us" (Util.fast_time round_ns /. 1e3);
  Report.extra r "rounds"
    (Obs.Json.Obj [ "MBps", Obs.Json.Arr (Array.to_list (Array.map (fun x -> Obs.Json.Num x) per_round)) ])

(* Per-layer numbers for the three simulators, Table 1 and the
   extractor, from traced rounds. *)
let layers (ctx : Ctx.t) r =
  let rng = Workloads.Prng.create ~seed:ctx.Ctx.seed in
  let m = Report.metric r in
  let by_app results app = List.filter_map (fun (a, o) -> if String.equal a app then Some o else None) results in
  List.iter
    (fun sim ->
      let results, _, per_round = sim_rounds ctx r rng sim in
      m (sim_name sim ^ "_MBps") "MB/s" (Util.median per_round);
      List.iter
        (fun (h : Apps.Harness.t) ->
          let app = h.Apps.Harness.name in
          let outs = by_app results app in
          let host = Util.median (Array.of_list (List.map (fun o -> o.host_ns) outs)) /. 1e9 in
          m (Printf.sprintf "%s.host_s.%s" (sim_name sim) app) "s" host;
          match sim, outs with
          | Cgsim, o :: _ ->
            m ("sched.slices." ^ app) "count" (float_of_int o.slices);
            m ("runtime.elements." ^ app) "count" (float_of_int o.elements);
            m ("sched.kernel_fraction." ^ app) "ratio" o.kernel_fraction;
            m ("cgsim.ns_per_elem." ^ app) "ns" (host *. 1e9 /. float_of_int (max 1 o.elements));
            m ("kernel.self_share." ^ app) "ratio"
              (kernel_self_share h ~reps:(max 1 (reps ctx Cgsim h / 16)))
          | Aiesim, o :: _ -> m ("aiesim.trace_events." ^ app) "count" (float_of_int o.trace_events)
          | _ -> ())
        (apps ()))
    [ Cgsim; X86sim; Aiesim ];
  let rows, err = table1 r in
  List.iter
    (fun (app, base, extr, rel) ->
      m ("aie.base_ns_per_block." ^ app) "sim-ns" base;
      m ("aie.extr_ns_per_block." ^ app) "sim-ns" extr;
      m ("aie.rel_pct." ^ app) "%" rel;
      m ("extractor.extract_ms." ^ app) "ms"
        (Util.median (Spans.durations ("extractor.extract:" ^ app)) /. 1e6))
    rows;
  m "aie_table1_err_pts" "pct-pts" err
