(* Benchmark harness entry point.

   Reproduces every quantitative result of the paper's evaluation:
     table1   - Table 1, processing time per input block on aiesim
     table2   - Table 2, wall-clock time of cgsim vs x86sim vs aiesim
     profile  - Section 5.2 kernel-time fraction
     micro    - bechamel micro-benchmarks of framework primitives
     ablation - design-choice sweeps (thunk cost, buffering, placement)

   With no arguments all five run in order.

   Options are parsed by the shared Cli module, so every subcommand
   spells --json/--metrics/--schema/--smoke/--requests the same way:

   profile [--trace FILE] [--json FILE] [--folded FILE] [--smoke]

   micro [--json FILE] [--smoke]

   loadtest runs open-loop Poisson arrivals against Cgsim.Pool, or — with
   --remote — against a running `cgx serve` daemon through Serve.Client:
     --json FILE    write p50/p99/p999 + error rate per rate step as
                    JSON (schema "cgsim-bench-load/2")
     --metrics FILE write the last step's Prometheus exposition
     --rates CSV    offered arrival rates in req/s (default 50,200,800)
     --requests N   requests per rate step
     --chaos        inject transient faults with retry supervision
                    (in-process only; rejected with --remote)
     --remote ADDR  drive a cgx serve daemon over its socket (unix:PATH
                    or HOST:PORT), pipelined, measuring the network path
     --smoke        one low rate, few requests (CI)

   fuzz [--json FILE] [--count N] [--smoke]

   check-json FILE [--schema NAME] parses FILE with the strict
   Obs.Json parser and requires a top-level object with a "schema"
   string (equal to NAME when given); exits nonzero
   on malformed output (the CI guard for --json).

   check-prom FILE validates FILE as Prometheus text exposition with
   the strict Obs.Prom parser (the CI guard for --metrics). *)

let usage () =
  print_endline
    "usage: main.exe [table1|table2|table2-quick|profile [--trace FILE] [--json FILE] \
     [--folded FILE] [--smoke]|micro [--json FILE] [--smoke]|loadtest [--json FILE] [--metrics FILE] \
     [--rates CSV] [--requests N] [--chaos] [--remote ADDR] [--smoke]|ablation|fuzz [--json FILE] [--count N] \
     [--smoke]|check-json FILE [--schema NAME]|check-prom FILE]...";
  exit 2

type action =
  | Table1
  | Table2
  | Table2_quick
  | Profile of Cli.opts
  | Micro of Cli.opts
  | Loadtest of Cli.opts
  | Ablation
  | Fuzz of Cli.opts
  | Check_json of string * string option
  | Check_prom of string

let parse_opts ~cmd ~accept rest k =
  match Cli.parse ~cmd ~accept rest with
  | Ok (opts, rest) -> k opts rest
  | Error msg ->
    Printf.eprintf "%s\n" msg;
    usage ()

let parse_actions args =
  let rec go = function
    | [] -> []
    | "table1" :: rest -> Table1 :: go rest
    | "table2" :: rest -> Table2 :: go rest
    | "table2-quick" :: rest -> Table2_quick :: go rest
    | "micro" :: rest ->
      parse_opts ~cmd:"micro" ~accept:[ "--json"; "--smoke" ] rest (fun o rest ->
          Micro o :: go rest)
    | "ablation" :: rest -> Ablation :: go rest
    | "fuzz" :: rest ->
      parse_opts ~cmd:"fuzz" ~accept:[ "--json"; "--smoke"; "--count" ] rest (fun o rest ->
          Fuzz o :: go rest)
    | "loadtest" :: rest ->
      parse_opts ~cmd:"loadtest"
        ~accept:[ "--json"; "--metrics"; "--smoke"; "--chaos"; "--rates"; "--requests"; "--remote" ]
        rest
        (fun o rest -> Loadtest o :: go rest)
    | "profile" :: rest ->
      parse_opts ~cmd:"profile" ~accept:[ "--trace"; "--json"; "--folded"; "--smoke" ] rest
        (fun o rest -> Profile o :: go rest)
    | "check-json" :: rest ->
      (* The file may come before or after --schema. *)
      parse_opts ~cmd:"check-json" ~accept:[ "--schema" ] rest (fun o rest ->
          match rest with
          | file :: rest ->
            parse_opts ~cmd:"check-json" ~accept:[ "--schema" ] rest (fun o2 rest ->
                let schema = match o2.Cli.schema with Some _ as s -> s | None -> o.Cli.schema in
                Check_json (file, schema) :: go rest)
          | [] ->
            Printf.eprintf "check-json needs a FILE argument\n";
            usage ())
    | "check-prom" :: file :: rest when file <> "--schema" -> Check_prom file :: go rest
    | "check-prom" :: _ ->
      Printf.eprintf "check-prom needs a FILE argument\n";
      usage ()
    | other :: _ ->
      Printf.eprintf "unknown bench: %s\n" other;
      usage ()
  in
  go args

let check_json ?expect file =
  let contents =
    try In_channel.with_open_bin file In_channel.input_all
    with Sys_error msg ->
      Printf.eprintf "check-json: cannot read %s: %s\n" file msg;
      exit 1
  in
  match Obs.Json.of_string contents with
  | Error msg ->
    Printf.eprintf "check-json: %s is malformed: %s\n" file msg;
    exit 1
  | Ok doc ->
    (match Option.bind (Obs.Json.member "schema" doc) Obs.Json.to_str, expect with
     | Some schema, Some want when schema <> want ->
       Printf.eprintf "check-json: %s has schema %s, expected %s\n" file schema want;
       exit 1
     | Some schema, _ -> Printf.printf "check-json: %s ok (schema %s)\n%!" file schema
     | None, _ ->
       Printf.eprintf "check-json: %s has no \"schema\" string\n" file;
       exit 1)

let check_prom file =
  let contents =
    try In_channel.with_open_bin file In_channel.input_all
    with Sys_error msg ->
      Printf.eprintf "check-prom: cannot read %s: %s\n" file msg;
      exit 1
  in
  match Obs.Prom.validate contents with
  | Ok () -> Printf.printf "check-prom: %s ok\n%!" file
  | Error msg ->
    Printf.eprintf "check-prom: %s is malformed: %s\n" file msg;
    exit 1

let run = function
  | Table1 -> Table1.run ()
  | Table2 -> Table2.run ()
  | Table2_quick -> Table2.run ~scale:0.5 ()
  | Profile o ->
    Profile.run ?trace:o.Cli.trace ?json:o.Cli.json ?folded:o.Cli.folded ~smoke:o.Cli.smoke ()
  | Micro o -> Micro.run ?json:o.Cli.json ~smoke:o.Cli.smoke ()
  | Loadtest o ->
    Loadtest.run ?json:o.Cli.json ?metrics:o.Cli.metrics ~smoke:o.Cli.smoke ~chaos:o.Cli.chaos
      ?rates:o.Cli.rates ?requests:o.Cli.requests ?remote:o.Cli.remote ()
  | Ablation -> Ablation.run ()
  | Fuzz o -> Fuzz.run ?json:o.Cli.json ~smoke:o.Cli.smoke ?count:o.Cli.count ()
  | Check_json (file, expect) -> check_json ?expect file
  | Check_prom file -> check_prom file

let () =
  match parse_actions (List.tl (Array.to_list Sys.argv)) with
  | [] ->
    Table1.run ();
    Table2.run ();
    Profile.run ();
    Micro.run ();
    Ablation.run ()
  | actions -> List.iter run actions
