(* cgx — the cgsim compute-graph extractor and serving command-line tool.

   Mirrors the paper's source-to-source translation workflow (Figure 5):
   point it at a C++ (CGC) file containing cgsim graph prototypes and it
   emits one deployable AIE project per extractable graph.  Beyond the
   offline workflow, `serve` exposes the warm-pool runtime behind a
   socket and `request` is its client.

     cgx extract examples/cgc/farrow.cgc -o out/
     cgx inspect examples/cgc/farrow.cgc
     cgx simulate examples/cgc/bitonic.cgc          # aiesim, thunk model
     cgx serve --listen unix:/tmp/cgx.sock &
     cgx request --connect unix:/tmp/cgx.sock --app farrow *)

open Cmdliner

let handle_errors = Cgx_args.handle_errors

let extract_cmd =
  let run input include_dirs all_graphs out_dir =
    handle_errors (fun () ->
        let projects = Extractor.Project.extract_file ~include_dirs ~all_graphs input in
        List.iter
          (fun p ->
            let written = Extractor.Project.write ~dir:out_dir p in
            Printf.printf "graph %s:\n" p.Extractor.Project.graph_name;
            List.iter (fun path -> Printf.printf "  wrote %s\n" path) written)
          projects)
  in
  Cmd.v
    (Cmd.info "extract" ~doc:"Extract compute graphs into deployable AIE projects.")
    Term.(
      const run $ Cgx_args.input $ Cgx_args.include_dirs $ Cgx_args.all_graphs $ Cgx_args.out_dir)

let dot_arg =
  Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz dot instead of the text summary.")

let inspect_cmd =
  let run input include_dirs all_graphs dot =
    handle_errors (fun () ->
        let projects = Extractor.Project.extract_file ~include_dirs ~all_graphs input in
        List.iter
          (fun p ->
            if dot then
              print_string
                (Extractor.Dot.of_graph ~lint:p.Extractor.Project.lint
                   p.Extractor.Project.serialized)
            else begin
              Format.printf "%a@." Extractor.Project.pp_summary p;
              Format.printf "%a@." Cgsim.Serialized.pp p.Extractor.Project.serialized
            end)
          projects)
  in
  Cmd.v
    (Cmd.info "inspect" ~doc:"Show the serialized graphs and port classification of a file.")
    Term.(const run $ Cgx_args.input $ Cgx_args.include_dirs $ Cgx_args.all_graphs $ dot_arg)

let dump_cmd =
  let run input include_dirs all_graphs =
    handle_errors (fun () ->
        let projects = Extractor.Project.extract_file ~include_dirs ~all_graphs input in
        List.iter
          (fun p -> print_string (Cgsim.Graph_text.to_string p.Extractor.Project.serialized))
          projects)
  in
  Cmd.v
    (Cmd.info "dump"
       ~doc:
         "Print the flattened serialized graphs in the textual graph format (the on-disk           analogue of the constexpr graph variable).")
    Term.(const run $ Cgx_args.input $ Cgx_args.include_dirs $ Cgx_args.all_graphs)

let suggest_capacities_arg =
  Arg.(
    value & flag
    & info
        [ "suggest-capacities" ]
        ~doc:
          "Run the capacity synthesizer and print the minimal deadlock-free queue depth for \
           every under-buffered cycle net, as net-id/depth pairs ready to apply (the same \
           depths Run_config.auto_capacity applies automatically).  With $(b,--json) the \
           pairs populate the suggested_capacities field.")

let lint_cmd =
  let run input include_dirs json graph_name suggest =
    handle_errors (fun () ->
        let env = Cgc.Driver.analyze_file ~include_dirs input in
        let graphs =
          match graph_name with
          | None -> Cgc.Sema.graphs env
          | Some n ->
            List.filter (fun (g : Cgc.Ast.graph) -> g.Cgc.Ast.g_name = n) (Cgc.Sema.graphs env)
        in
        if graphs = [] then begin
          Printf.eprintf "error: no compute graphs%s in %s\n"
            (match graph_name with Some n -> " named " ^ n | None -> "")
            input;
          exit 2
        end;
        let linted =
          List.map
            (fun (g : Cgc.Ast.graph) ->
              let serialized = Cgc.Consteval.eval_graph ~twins:Apps.Harness.twins env g in
              let caps = if suggest || json then Cgsim.Capacity.suggest serialized else [] in
              let bottleneck =
                if json then
                  Option.map
                    (fun b -> b.Cgsim.Throughput.b_bottleneck)
                    (Cgsim.Throughput.bound serialized)
                else None
              in
              g.Cgc.Ast.g_name, serialized, Cgsim.Lint.run serialized, caps, bottleneck)
            graphs
        in
        if json then
          print_endline
            (Obs.Json.to_string
               (Obs.Json.Obj
                  [
                    "schema", Obs.Json.Str "cgsim-lint/2";
                    "file", Obs.Json.Str input;
                    ( "graphs",
                      Obs.Json.Arr
                        (List.map
                           (fun (name, _, diags, caps, bottleneck) ->
                             Cgsim.Report.to_json ~suggested_capacities:caps
                               ?predicted_bottleneck:bottleneck ~graph:name diags)
                           linted) );
                  ]))
        else
          List.iter
            (fun (name, serialized, diags, caps, _) ->
              Printf.printf "graph %s: %s\n" name (Cgsim.Report.summary diags);
              List.iter
                (fun d -> print_endline ("  " ^ Cgsim.Diagnostic.render d))
                (Cgsim.Diagnostic.sort diags);
              if suggest then
                if caps = [] then
                  Printf.printf "  capacities: all cycle nets already meet their bounds\n"
                else
                  List.iter
                    (fun (net_id, depth) ->
                      Printf.printf "  capacity: %s -> depth %d\n"
                        (Cgsim.Serialized.net_display serialized net_id)
                        depth)
                    caps)
            linted;
        (* 0 clean/info, 1 warnings, 2 errors — CI gates on >= 2. *)
        exit
          (Cgsim.Diagnostic.exit_status (List.concat_map (fun (_, _, d, _, _) -> d) linted)))
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically analyze the compute graphs of a file: structural validity, rate balance, \
          capacity-aware deadlock detection, capacity synthesis, throughput bounds, \
          fan-out/settings hazards, pool safety.")
    Term.(
      const run $ Cgx_args.input $ Cgx_args.include_dirs $ Cgx_args.json $ Cgx_args.graph
      $ suggest_capacities_arg)

let simulate_cmd =
  let run input include_dirs all_graphs reps trace deadline_ms metrics =
    handle_errors (fun () ->
        let projects = Extractor.Project.extract_file ~include_dirs ~all_graphs input in
        let chrome_trace =
          match trace with Some f when Filename.check_suffix f ".json" -> Some f | _ -> None
        in
        (* A trace file without the .json suffix silently fell through to
           the CSV timeline; say so, so a typo like trace.jsn is visible. *)
        (match trace, chrome_trace with
         | Some f, None ->
           Printf.eprintf
             "warning: --trace %s does not end in .json; writing the CSV iteration timeline \
              (name the file *.json for the Chrome trace)\n\
              %!"
             f
         | _ -> ());
        List.iter
          (fun p ->
            let name = p.Extractor.Project.graph_name in
            match Apps.Harness.find name with
            | None ->
              Printf.printf
                "graph %s: no registered workload; run via the library API with your own \
                 sources/sinks\n"
                name
            | Some h ->
              let deploy = Extractor.Project.deploy p in
              let config =
                match deadline_ms with
                | None -> None
                | Some ms -> Some Cgsim.Run_config.(with_deadline_ms ms default)
              in
              let simulate () =
                let sinks, _ = h.Apps.Harness.make_sinks () in
                Aiesim.Sim.run ?config deploy ~sources:(h.Apps.Harness.sources ~reps) ~sinks
              in
              if chrome_trace <> None || metrics <> None then begin
                (* Both exports read the same session: the trace file gets
                   the event ring, the metrics file the aggregates. *)
                let report, session = Obs.Trace.with_session simulate in
                Format.printf "%a@." Aiesim.Sim.pp_report report;
                (match chrome_trace with
                 | Some file ->
                   Out_channel.with_open_bin file (fun oc ->
                       Out_channel.output_string oc (Obs.Export.chrome_json session));
                   Printf.printf "wrote Chrome trace (open in https://ui.perfetto.dev) to %s\n"
                     file
                 | None -> ());
                match metrics with
                | Some file ->
                  let text =
                    Obs.Prom.of_snapshot (Obs.Metrics.snapshot session.Obs.Trace.metrics)
                  in
                  Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc text);
                  Printf.printf "wrote Prometheus exposition to %s\n" file
                | None -> ()
              end
              else begin
                let report = simulate () in
                Format.printf "%a@." Aiesim.Sim.pp_report report;
                match trace with
                | None -> ()
                | Some file ->
                  Out_channel.with_open_bin file (fun oc ->
                      Out_channel.output_string oc (Aiesim.Sim.timeline_csv report));
                  Printf.printf "wrote timeline to %s\n" file
              end)
          projects)
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Extract and run on the cycle-approximate AIE simulator (known workloads only).")
    Term.(
      const run $ Cgx_args.input $ Cgx_args.include_dirs $ Cgx_args.all_graphs $ Cgx_args.reps
      $ Cgx_args.trace $ Cgx_args.deadline_ms $ Cgx_args.metrics)

(* ------------------------------------------------------------------ *)
(* serve / request                                                     *)
(* ------------------------------------------------------------------ *)

let parse_addr s =
  match Serve.Addr.parse s with
  | Ok a -> a
  | Error m ->
    Printf.eprintf "error: %s\n" m;
    exit 2

let builtin_graphs () =
  List.map (fun h -> h.Apps.Harness.name, h.Apps.Harness.graph ()) Apps.Harness.all

let stats_interval_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "stats-interval" ] ~docv:"SECONDS"
        ~doc:"Print a one-line serving summary to stderr every SECONDS seconds.")

let extra_graph_files_arg =
  Arg.(
    value & pos_all file []
    & info [] ~docv:"FILE"
        ~doc:
          "Additional CGC source files whose extracted graphs are served alongside the four \
           built-in paper applications.")

let serve_cmd =
  let run listen domains include_dirs files deadline_ms retries breaker stats_interval =
    handle_errors (fun () ->
        let addr = parse_addr listen in
        let extracted =
          List.concat_map
            (fun f ->
              let ps = Extractor.Project.extract_file ~include_dirs ~all_graphs:true f in
              List.map
                (fun p -> p.Extractor.Project.graph_name, p.Extractor.Project.serialized)
                ps)
            files
        in
        let graphs = builtin_graphs () @ extracted in
        let config =
          let open Cgsim.Run_config in
          let c = with_retries retries default in
          let c = match deadline_ms with Some ms -> with_deadline_ms ms c | None -> c in
          match breaker with Some n -> with_breaker n c | None -> c
        in
        let server =
          Serve.Server.create ~config ?stats_interval_s:stats_interval ~graphs ~domains
            ~listen:addr ()
        in
        Serve.Server.install_signal_handlers server;
        Printf.eprintf "[cgx serve] listening on %s (%d domains, %d graphs)\n%!"
          (Serve.Addr.to_string (Serve.Server.addr server)) domains (List.length graphs);
        Serve.Server.serve server;
        Printf.eprintf "[cgx serve] drained after %d requests\n%!" (Serve.Server.served server))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve compute graphs over a socket: a long-lived daemon owning a warm instance pool, \
          speaking the versioned cgx-serve/2 length-prefixed JSON protocol, scalar streams packed as \
          bit-exact hex.  SIGTERM drains gracefully: in-flight requests complete and their replies \
          are written before exit.")
    Term.(
      const run $ Cgx_args.listen $ Cgx_args.domains $ Cgx_args.include_dirs
      $ extra_graph_files_arg $ Cgx_args.deadline_ms $ Cgx_args.retries $ Cgx_args.breaker
      $ stats_interval_arg)

let app_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "app" ] ~docv:"NAME"
        ~doc:"Run one of the built-in paper applications (bitonic, farrow, iir, bilinear).")

let ping_arg = Arg.(value & flag & info [ "ping" ] ~doc:"Liveness probe; print the round-trip time.")

let request_app client name reps seed deadline_ms =
  match Apps.Harness.find name with
  | None ->
    Printf.eprintf "error: unknown app %S (expected bitonic, farrow, iir or bilinear)\n" name;
    exit 2
  | Some h ->
    let inputs = List.map Cgsim.Io.elements (h.Apps.Harness.sources ~reps) in
    (match Serve.Client.run client ?deadline_ms ?seed ~graph:name inputs with
     | Error m ->
       Printf.eprintf "error: %s\n" m;
       exit 1
     | Ok rp -> (
       match rp.Serve.Wire.rp_outcome with
       | Serve.Wire.Completed outputs ->
         let primary = match outputs with o :: _ -> o | [] -> [] in
         (match h.Apps.Harness.check ~reps primary with
          | Ok () ->
            Printf.printf
              "graph %s: completed, %d output elements in %.3f ms server time (run %.3f ms, %d \
               attempt(s), domain %d); output check passed\n"
              name (List.length primary)
              (rp.Serve.Wire.rp_server_ns /. 1e6)
              (rp.Serve.Wire.rp_run_ns /. 1e6)
              rp.Serve.Wire.rp_attempts rp.Serve.Wire.rp_domain
          | Error m ->
            Printf.eprintf "graph %s: completed but output check failed: %s\n" name m;
            exit 1)
       | other ->
         Printf.eprintf "graph %s: %s (%d attempt(s))\n" name
           (Serve.Wire.run_outcome_label other)
           rp.Serve.Wire.rp_attempts;
         exit 1))

let request_cmd =
  let run connect app reps seed deadline_ms metrics ping =
    handle_errors (fun () ->
        let addr = parse_addr connect in
        let client = Serve.Client.connect ~retries:10 addr in
        Fun.protect
          ~finally:(fun () -> Serve.Client.close client)
          (fun () ->
            if ping then (
              match Serve.Client.ping client with
              | Ok rtt_ns -> Printf.printf "pong in %.3f ms\n" (rtt_ns /. 1e6)
              | Error m ->
                Printf.eprintf "error: %s\n" m;
                exit 1)
            else
              match metrics with
              | Some file -> (
                match Serve.Client.metrics client with
                | Ok body ->
                  Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc body);
                  Printf.printf "wrote Prometheus exposition to %s\n" file
                | Error m ->
                  Printf.eprintf "error: %s\n" m;
                  exit 1)
              | None -> (
                match app with
                | Some name -> request_app client name reps seed deadline_ms
                | None ->
                  Printf.eprintf "error: one of --app, --metrics or --ping is required\n";
                  exit 2)))
  in
  Cmd.v
    (Cmd.info "request"
       ~doc:
         "Send one request to a running $(b,cgx serve) daemon: run a built-in app and check its \
          outputs against the golden reference, dump the server's /metrics exposition, or ping.")
    Term.(
      const run $ Cgx_args.connect $ app_arg $ Cgx_args.reps $ Cgx_args.seed
      $ Cgx_args.deadline_ms $ Cgx_args.metrics $ ping_arg)

let () =
  let info =
    Cmd.info "cgx" ~version:"1.0.0"
      ~doc:"Compute-graph extractor for cgsim prototypes targeting AMD Versal AI Engines"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ extract_cmd; inspect_cmd; dump_cmd; lint_cmd; simulate_cmd; serve_cmd; request_cmd ]))
