(* cgx serve tests: the wire codec must be bit-exact and reject every
   malformed frame shape; a live daemon over a Unix socket must serve
   all four evaluation apps bit-identically to in-process execution,
   expose valid Prometheus metrics showing warm-cache hits, shed at the
   door when the breaker is open, answer an incompatible peer with a
   structured version-mismatch error, and drain on stop without dropping
   an in-flight request. *)

module W = Serve.Wire
module R = Cgsim.Runtime

(* ------------------------------------------------------------------ *)
(* Helpers                                                            *)
(* ------------------------------------------------------------------ *)

(* Structural equality that distinguishes every float bit pattern (the
   wire codec's exactness claim is about bits, not [=], which conflates
   0.0 with -0.0 and fails on NaN). *)
let rec value_bits_equal a b =
  match a, b with
  | Cgsim.Value.Float x, Cgsim.Value.Float y ->
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Cgsim.Value.Int x, Cgsim.Value.Int y -> x = y
  | Cgsim.Value.Vec xs, Cgsim.Value.Vec ys ->
    Array.length xs = Array.length ys
    && Array.for_all2 (fun x y -> value_bits_equal x y) xs ys
  | Cgsim.Value.Rec xs, Cgsim.Value.Rec ys ->
    List.length xs = List.length ys
    && List.for_all2 (fun (k, x) (l, y) -> k = l && value_bits_equal x y) xs ys
  | _ -> false

let values_bits_equal a b =
  List.length a = List.length b && List.for_all2 value_bits_equal a b

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let drain_source src =
  let pull = Cgsim.Io.source_pull src in
  let rec go acc =
    match pull () with
    | Some v -> go (v :: acc)
    | None -> List.rev acc
  in
  go []

let temp_sock tag =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "cgx-test-%s-%d.sock" tag (Unix.getpid ()))
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  path

let all_graphs =
  List.map (fun h -> h.Apps.Harness.name, h.Apps.Harness.graph ()) Apps.Harness.all

(* Run [h] in-process under the default config and return the primary
   output — the reference the served outputs must match bit for bit. *)
let local_primary (h : Apps.Harness.t) ~reps =
  let sinks, contents = h.Apps.Harness.make_sinks () in
  (match
     R.execute (h.Apps.Harness.graph ()) ~sources:(h.Apps.Harness.sources ~reps) ~sinks
   with
   | R.Completed _ -> ()
   | o -> Alcotest.failf "local %s: %s" h.Apps.Harness.name (R.outcome_label o));
  contents ()

(* ------------------------------------------------------------------ *)
(* Codec                                                              *)
(* ------------------------------------------------------------------ *)

let awkward_values =
  [
    Cgsim.Value.Float 0.1;
    Cgsim.Value.Float (1.0 /. 3.0);
    Cgsim.Value.Float 1e-300;
    Cgsim.Value.Float (-0.0);
    Cgsim.Value.Float (4.0 *. atan 1.0);
    Cgsim.Value.Float (Float.succ 1.0);
    Cgsim.Value.Int 42;
    Cgsim.Value.Int (-1);
    Cgsim.Value.Int max_int;
    Cgsim.Value.Vec [| Cgsim.Value.Float 1.5; Cgsim.Value.Int 7 |];
    Cgsim.Value.Rec
      [ "re", Cgsim.Value.Float 0.30000000000000004; "im", Cgsim.Value.Float (-2.5) ];
  ]

let test_value_roundtrip () =
  List.iter
    (fun v ->
      let j = W.json_of_value v in
      (* Through the printer and the strict parser, as on the wire. *)
      match Obs.Json.of_string (Obs.Json.to_string j) with
      | Error m -> Alcotest.failf "reparse failed for %s: %s" (Cgsim.Value.to_string v) m
      | Ok j' -> (
        match W.value_of_json j' with
        | Error m -> Alcotest.failf "decode failed for %s: %s" (Cgsim.Value.to_string v) m
        | Ok v' ->
          if not (value_bits_equal v v') then
            Alcotest.failf "not bit-identical: %s vs %s" (Cgsim.Value.to_string v)
              (Cgsim.Value.to_string v')))
    awkward_values

let test_request_roundtrip () =
  let rq =
    {
      W.q_id = 123456789;
      q_body =
        W.Run
          {
            rq_graph = "bitonic";
            rq_inputs = [ awkward_values; [ Cgsim.Value.Int 1 ] ];
            rq_deadline_ms = Some 250.0;
            rq_seed = Some 99;
          };
    }
  in
  (match W.decode_request (W.encode_request rq) with
   | Error e -> Alcotest.failf "run request: %s" (W.decode_error_message e)
   | Ok rq' -> (
     Alcotest.(check int) "id" rq.W.q_id rq'.W.q_id;
     match rq.W.q_body, rq'.W.q_body with
     | W.Run a, W.Run b ->
       Alcotest.(check string) "graph" a.W.rq_graph b.W.rq_graph;
       Alcotest.(check (option (float 0.0))) "deadline" a.W.rq_deadline_ms b.W.rq_deadline_ms;
       Alcotest.(check (option int)) "seed" a.W.rq_seed b.W.rq_seed;
       if not (List.for_all2 values_bits_equal a.W.rq_inputs b.W.rq_inputs) then
         Alcotest.fail "inputs not bit-identical"
     | _ -> Alcotest.fail "body type changed"));
  List.iter
    (fun body ->
      match W.decode_request (W.encode_request { W.q_id = 7; q_body = body }) with
      | Ok { W.q_id = 7; q_body = W.Metrics } when body = W.Metrics -> ()
      | Ok { W.q_id = 7; q_body = W.Ping } when body = W.Ping -> ()
      | Ok _ -> Alcotest.fail "body type changed"
      | Error e -> Alcotest.failf "metrics/ping: %s" (W.decode_error_message e))
    [ W.Metrics; W.Ping ]

let test_reply_roundtrip () =
  let result outcome =
    {
      W.p_id = 5;
      p_body =
        W.Result
          {
            rp_outcome = outcome;
            rp_attempts = 3;
            rp_domain = 1;
            (* Timings cross as %.6g-printed numbers; exactly
               representable values keep [=] meaningful here. *)
            rp_server_ns = 125000.0;
            rp_run_ns = 42.0;
          };
    }
  in
  let replies =
    [
      result (W.Completed [ awkward_values ]);
      result
        (W.Deadline { d_reason = "deadline"; d_parked = [ "k1"; "k2" ]; d_last_kernel = Some "k1" });
      result (W.Deadline { d_reason = "max-steps"; d_parked = []; d_last_kernel = None });
      result W.Cancelled;
      result (W.Failed { x_kernel = "iir_core"; x_message = "boom: 42" });
      result W.Shed;
      { W.p_id = 6; p_body = W.Metrics_text "# HELP x y\n" };
      { W.p_id = 7; p_body = W.Pong };
      { W.p_id = -1; p_body = W.Error (W.Version_mismatch, "speak cgx-serve/1") };
      { W.p_id = 8; p_body = W.Error (W.Unknown_graph, "no graph named \"nope\"") };
    ]
  in
  List.iter
    (fun rp ->
      match W.decode_reply (W.encode_reply rp) with
      | Error e -> Alcotest.failf "reply: %s" (W.decode_error_message e)
      | Ok rp' -> (
        Alcotest.(check int) "id" rp.W.p_id rp'.W.p_id;
        match rp.W.p_body, rp'.W.p_body with
        | W.Result a, W.Result b -> (
          Alcotest.(check string) "outcome label" (W.run_outcome_label a.W.rp_outcome)
            (W.run_outcome_label b.W.rp_outcome);
          Alcotest.(check int) "attempts" a.W.rp_attempts b.W.rp_attempts;
          Alcotest.(check int) "domain" a.W.rp_domain b.W.rp_domain;
          Alcotest.(check (float 0.0)) "server_ns" a.W.rp_server_ns b.W.rp_server_ns;
          match a.W.rp_outcome, b.W.rp_outcome with
          | W.Completed xs, W.Completed ys ->
            if not (List.for_all2 values_bits_equal xs ys) then
              Alcotest.fail "outputs not bit-identical"
          | ( W.Deadline { d_reason = ra; d_parked = pa; d_last_kernel = la },
              W.Deadline { d_reason = rb; d_parked = pb; d_last_kernel = lb } ) ->
            Alcotest.(check string) "reason" ra rb;
            Alcotest.(check (list string)) "parked" pa pb;
            Alcotest.(check (option string)) "last" la lb
          | ( W.Failed { x_kernel = ka; x_message = ma },
              W.Failed { x_kernel = kb; x_message = mb } ) ->
            Alcotest.(check string) "kernel" ka kb;
            Alcotest.(check string) "message" ma mb
          | _ -> ())
        | W.Metrics_text a, W.Metrics_text b -> Alcotest.(check string) "metrics" a b
        | W.Pong, W.Pong -> ()
        | W.Error (ca, ma), W.Error (cb, mb) ->
          Alcotest.(check string) "code" (W.error_code_label ca) (W.error_code_label cb);
          Alcotest.(check string) "message" ma mb
        | _ -> Alcotest.fail "body type changed"))
    replies

(* ------------------------------------------------------------------ *)
(* Framing and rejection                                              *)
(* ------------------------------------------------------------------ *)

let test_frame_roundtrip () =
  let payloads = [ ""; "x"; String.make 100_000 'z'; "{\"a\":[1,2,3]}" ] in
  let buf = Buffer.create 1024 in
  List.iter (fun p -> Buffer.add_string buf (W.frame p)) payloads;
  let b = Buffer.to_bytes buf in
  let pos = ref 0 in
  List.iter
    (fun p ->
      match W.unframe b ~pos:!pos with
      | Error e -> Alcotest.failf "unframe: %s" (W.frame_error_message e)
      | Ok (p', next) ->
        Alcotest.(check string) "payload" p p';
        pos := next)
    payloads;
  (match W.unframe b ~pos:!pos with
   | Error W.Eof -> ()
   | Error e -> Alcotest.failf "expected Eof, got %s" (W.frame_error_message e)
   | Ok _ -> Alcotest.fail "expected Eof at end of buffer")

let test_frame_rejection () =
  let framed = W.frame "{\"proto\":\"cgx-serve/1\"}" in
  (* Truncated inside the payload and inside the length prefix. *)
  List.iter
    (fun keep ->
      let b = Bytes.of_string (String.sub framed 0 keep) in
      match W.unframe b ~pos:0 with
      | Error W.Truncated -> ()
      | Error e -> Alcotest.failf "keep=%d: expected Truncated, got %s" keep
                     (W.frame_error_message e)
      | Ok _ -> Alcotest.failf "keep=%d: truncated frame decoded" keep)
    [ String.length framed - 1; 5; 2 ];
  (* A hostile length prefix must be refused before any allocation. *)
  let huge = Bytes.create 4 in
  Bytes.set_int32_be huge 0 (Int32.of_int (W.max_frame_bytes + 1));
  (match W.unframe huge ~pos:0 with
   | Error (W.Oversized n) -> Alcotest.(check int) "declared size" (W.max_frame_bytes + 1) n
   | Error e -> Alcotest.failf "expected Oversized, got %s" (W.frame_error_message e)
   | Ok _ -> Alcotest.fail "oversized frame decoded");
  (* Garbage payloads frame fine but must not decode. *)
  List.iter
    (fun garbage ->
      match W.decode_request garbage with
      | Error (W.Malformed _) -> ()
      | Error (W.Wrong_version _) -> Alcotest.failf "%S read as version skew" garbage
      | Ok _ -> Alcotest.failf "garbage decoded: %S" garbage)
    [
      "not json at all";
      "[1,2,3]";
      "{}";
      "{\"proto\":\"cgx-serve/1\",\"id\":\"0\"}";
      "{\"proto\":\"cgx-serve/1\",\"id\":\"0\",\"type\":\"frobnicate\"}";
      "{\"proto\":\"cgx-serve/1\",\"id\":12,\"type\":\"ping\"}";
    ];
  (* Version skew is distinguished from malformedness — and checked
     before anything else in the envelope. *)
  (match W.decode_request "{\"proto\":\"cgx-serve/999\",\"id\":\"0\",\"type\":\"ping\"}" with
   | Error (W.Wrong_version v) -> Alcotest.(check string) "peer proto" "cgx-serve/999" v
   | Error (W.Malformed m) -> Alcotest.failf "version skew read as malformed: %s" m
   | Ok _ -> Alcotest.fail "wrong-version frame decoded");
  match W.decode_request "{\"proto\":\"cgx-serve/999\"}" with
  | Error (W.Wrong_version _) -> ()
  | Error (W.Malformed m) -> Alcotest.failf "proto must be checked first: %s" m
  | Ok _ -> Alcotest.fail "wrong-version frame decoded"

(* ------------------------------------------------------------------ *)
(* Daemon lifecycle                                                   *)
(* ------------------------------------------------------------------ *)

let test_daemon_lifecycle () =
  let path = temp_sock "life" in
  let server =
    Serve.Server.create ~graphs:all_graphs ~domains:2 ~listen:(Serve.Addr.Unix_path path) ()
  in
  let serving = Domain.spawn (fun () -> Serve.Server.serve server) in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.stop server;
      Domain.join serving)
    (fun () ->
      let client = Serve.Client.connect ~retries:10 (Serve.Addr.Unix_path path) in
      Fun.protect ~finally:(fun () -> Serve.Client.close client) (fun () ->
          (* Liveness. *)
          (match Serve.Client.ping client with
           | Ok rtt -> Alcotest.(check bool) "rtt positive" true (rtt > 0.0)
           | Error m -> Alcotest.failf "ping: %s" m);
          (* Every app must round-trip bit-identically to an in-process
             run: same primary output bits, and the golden check holds
             on what came over the wire. *)
          List.iter
            (fun (h : Apps.Harness.t) ->
              let reps = 2 in
              let inputs = List.map drain_source (h.Apps.Harness.sources ~reps) in
              match Serve.Client.run client ~graph:h.Apps.Harness.name inputs with
              | Error m -> Alcotest.failf "%s: %s" h.Apps.Harness.name m
              | Ok rp -> (
                match rp.W.rp_outcome with
                | W.Completed outputs ->
                  let primary = match outputs with o :: _ -> o | [] -> [] in
                  (match h.Apps.Harness.check ~reps primary with
                   | Ok () -> ()
                   | Error m -> Alcotest.failf "%s: served output: %s" h.Apps.Harness.name m);
                  let reference = local_primary h ~reps in
                  if not (values_bits_equal reference primary) then
                    Alcotest.failf "%s: served output differs from in-process run"
                      h.Apps.Harness.name;
                  Alcotest.(check bool)
                    (h.Apps.Harness.name ^ " attempts") true (rp.W.rp_attempts >= 1)
                | o ->
                  Alcotest.failf "%s: outcome %s" h.Apps.Harness.name (W.run_outcome_label o)))
            Apps.Harness.all;
          (* A repeat request hits the warm instance cache, and the
             daemon's merged exposition validates strictly. *)
          let h = Apps.Harness.bitonic in
          let inputs = List.map drain_source (h.Apps.Harness.sources ~reps:2) in
          (match Serve.Client.run client ~graph:"bitonic" inputs with
           | Ok { W.rp_outcome = W.Completed _; _ } -> ()
           | Ok _ | Error _ -> Alcotest.fail "repeat bitonic request failed");
          (match Serve.Client.run client ~graph:"no_such_graph" inputs with
           | Error m ->
             Alcotest.(check bool) "unknown-graph error names the code" true
               (contains ~needle:(W.error_code_label W.Unknown_graph) m)
           | Ok _ -> Alcotest.fail "unknown graph served");
          match Serve.Client.metrics client with
          | Error m -> Alcotest.failf "metrics: %s" m
          | Ok exposition ->
            (match Obs.Prom.validate exposition with
             | Ok () -> ()
             | Error m -> Alcotest.failf "exposition invalid: %s" m);
            List.iter
              (fun family ->
                Alcotest.(check bool) (family ^ " present") true
                  (contains ~needle:family exposition))
              [
                "cgsim_pool_warm_hit_total";
                "cgsim_pool_outcome_total";
                "cgsim_serve_request_total";
                "cgsim_serve_connection_total";
              ]))

let test_drain_completes_inflight () =
  let path = temp_sock "drain" in
  let server =
    Serve.Server.create ~graphs:all_graphs ~domains:2 ~listen:(Serve.Addr.Unix_path path) ()
  in
  let serving = Domain.spawn (fun () -> Serve.Server.serve server) in
  let client = Serve.Client.connect ~retries:10 (Serve.Addr.Unix_path path) in
  let reps = 4 in
  let h = Apps.Harness.farrow in
  let inputs = List.map drain_source (h.Apps.Harness.sources ~reps) in
  (* Pipeline a batch, give the reader time to accept it, then stop the
     server with replies still pending: drain must deliver every one
     before the EOF.  (A request the reader only picks up after stop is
     refused with a structured shutting-down error instead — also not a
     drop — but this test wants the completion path, so it waits past
     the accept race: until the reader has decoded all three frames,
     then long enough for the last one to reach the pool.) *)
  let ids = List.init 3 (fun _ -> Serve.Client.send_run client ~graph:"farrow" inputs) in
  let give_up = Unix.gettimeofday () +. 10.0 in
  while Serve.Server.served server < List.length ids && Unix.gettimeofday () < give_up do
    Unix.sleepf 0.001
  done;
  Unix.sleepf 0.1;
  Serve.Server.stop server;
  let got =
    List.map
      (fun _ ->
        match Serve.Client.recv client with
        | Error m -> Alcotest.failf "in-flight reply dropped by drain: %s" m
        | Ok { W.p_id; p_body = W.Result { W.rp_outcome = W.Completed outputs; _ } } ->
          let primary = match outputs with o :: _ -> o | [] -> [] in
          (match h.Apps.Harness.check ~reps primary with
           | Ok () -> ()
           | Error m -> Alcotest.failf "drained output: %s" m);
          p_id
        | Ok { W.p_body; _ } ->
          Alcotest.failf "in-flight request not completed: %s"
            (match p_body with
             | W.Result r -> W.run_outcome_label r.W.rp_outcome
             | W.Error (c, _) -> W.error_code_label c
             | W.Metrics_text _ -> "metrics"
             | W.Pong -> "pong"))
      ids
  in
  Alcotest.(check (list int)) "every id answered" (List.sort compare ids)
    (List.sort compare got);
  (* After the last reply the server closes: clean EOF, not garbage. *)
  (match Serve.Client.recv client with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "reply after drain");
  Serve.Client.close client;
  Domain.join serving;
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists path)

let test_breaker_shed_and_version_mismatch () =
  let path = temp_sock "breaker" in
  let config =
    Cgsim.Run_config.(
      default |> with_breaker 1
      |> with_faults
           (Cgsim.Faults.plan [ Cgsim.Faults.raise_on ~kernel:"*" ~after:1 ~fires:(-1) () ]))
  in
  let server =
    Serve.Server.create ~config ~graphs:all_graphs ~domains:1
      ~listen:(Serve.Addr.Unix_path path) ()
  in
  let serving = Domain.spawn (fun () -> Serve.Server.serve server) in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.stop server;
      Domain.join serving)
    (fun () ->
      (* An incompatible peer gets a structured version-mismatch error,
         not a dropped connection. *)
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      W.write_frame fd "{\"proto\":\"cgx-serve/999\",\"id\":\"0\",\"type\":\"ping\"}";
      (match W.read_frame fd with
       | Error e -> Alcotest.failf "no reply to version skew: %s" (W.frame_error_message e)
       | Ok payload -> (
         match W.decode_reply payload with
         | Ok { W.p_body = W.Error (W.Version_mismatch, _); _ } -> ()
         | Ok _ -> Alcotest.fail "expected a version-mismatch error reply"
         | Error e -> Alcotest.failf "reply undecodable: %s" (W.decode_error_message e)));
      Unix.close fd;
      (* First request fails (the fault plan raises in every kernel),
         opening the threshold-1 breaker; the second is refused at the
         door: shed, zero attempts. *)
      let client = Serve.Client.connect ~retries:10 (Serve.Addr.Unix_path path) in
      Fun.protect ~finally:(fun () -> Serve.Client.close client) (fun () ->
          let h = Apps.Harness.bitonic in
          let inputs = List.map drain_source (h.Apps.Harness.sources ~reps:1) in
          (match Serve.Client.run client ~graph:"bitonic" inputs with
           | Ok { W.rp_outcome = W.Failed _; rp_attempts = 1; _ } -> ()
           | Ok rp ->
             Alcotest.failf "expected failed/1 attempt, got %s/%d"
               (W.run_outcome_label rp.W.rp_outcome) rp.W.rp_attempts
           | Error m -> Alcotest.failf "first request: %s" m);
          match Serve.Client.run client ~graph:"bitonic" inputs with
          | Ok { W.rp_outcome = W.Shed; rp_attempts = 0; _ } -> ()
          | Ok rp ->
            Alcotest.failf "expected shed/0 attempts, got %s/%d"
              (W.run_outcome_label rp.W.rp_outcome) rp.W.rp_attempts
          | Error m -> Alcotest.failf "second request: %s" m))

let () =
  Alcotest.run "serve"
    [
      ( "codec",
        [
          Alcotest.test_case "value round-trip is bit-exact" `Quick test_value_roundtrip;
          Alcotest.test_case "request round-trip" `Quick test_request_roundtrip;
          Alcotest.test_case "reply round-trip" `Quick test_reply_roundtrip;
        ] );
      ( "framing",
        [
          Alcotest.test_case "frame/unframe round-trip" `Quick test_frame_roundtrip;
          Alcotest.test_case "truncated, oversized and garbage frames rejected" `Quick
            test_frame_rejection;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "lifecycle: apps bit-identical, warm hit, metrics" `Quick
            test_daemon_lifecycle;
          Alcotest.test_case "stop drains in-flight pipelined requests" `Quick
            test_drain_completes_inflight;
          Alcotest.test_case "breaker shed at the door; version mismatch answered" `Quick
            test_breaker_shed_and_version_mismatch;
        ] );
    ]
