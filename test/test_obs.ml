(* Tests for the lib/obs observability layer: ring-buffer wraparound,
   Chrome trace-event export (validated by parsing it back), span
   nesting, metrics, and end-to-end instrumentation consistency on real
   cgsim / x86sim runs. *)

(* ------------------------------------------------------------------ *)
(* Clock                                                              *)
(* ------------------------------------------------------------------ *)

let test_clock_monotone () =
  let prev = ref (Obs.Clock.now_ns ()) in
  for _ = 1 to 1000 do
    let t = Obs.Clock.now_ns () in
    if t < !prev then Alcotest.failf "clock went backwards: %f after %f" t !prev;
    prev := t
  done

(* ------------------------------------------------------------------ *)
(* Ring buffer                                                        *)
(* ------------------------------------------------------------------ *)

let emit_n ring n =
  for i = 1 to n do
    Obs.Ring.emit ring ~ts_ns:(float_of_int i) ~dur_ns:0.0 ~phase:Obs.Event.Instant
      ~name:(Printf.sprintf "e%d" i) ~track:"t" ~cat:"test" ~pid:1 ~a_key:"" ~a_val:0.0
  done

let test_ring_fill () =
  let ring = Obs.Ring.create ~capacity:8 in
  emit_n ring 5;
  Alcotest.(check int) "length" 5 (Obs.Ring.length ring);
  Alcotest.(check int) "dropped" 0 (Obs.Ring.dropped ring);
  let names = List.map (fun (e : Obs.Event.t) -> e.Obs.Event.name) (Obs.Ring.to_list ring) in
  Alcotest.(check (list string)) "order" [ "e1"; "e2"; "e3"; "e4"; "e5" ] names

let test_ring_wraparound () =
  let ring = Obs.Ring.create ~capacity:8 in
  emit_n ring 20;
  Alcotest.(check int) "length capped" 8 (Obs.Ring.length ring);
  Alcotest.(check int) "dropped counts overflow" 12 (Obs.Ring.dropped ring);
  let events = Obs.Ring.to_list ring in
  let names = List.map (fun (e : Obs.Event.t) -> e.Obs.Event.name) events in
  (* Oldest events fall out; the retained window is the tail, in order. *)
  Alcotest.(check (list string)) "newest retained, chronological"
    [ "e13"; "e14"; "e15"; "e16"; "e17"; "e18"; "e19"; "e20" ]
    names;
  let ts = List.map (fun (e : Obs.Event.t) -> e.Obs.Event.ts_ns) events in
  Alcotest.(check bool) "timestamps ascending" true (List.sort compare ts = ts)

let test_ring_rejects_zero_capacity () =
  match Obs.Ring.create ~capacity:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "capacity 0 must be rejected"

(* ------------------------------------------------------------------ *)
(* Metrics                                                            *)
(* ------------------------------------------------------------------ *)

let test_metrics_basic () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.incr m "c";
  Obs.Metrics.add m "c" 4.0;
  Obs.Metrics.high_water m "g" 10.0;
  Obs.Metrics.high_water m "g" 3.0;
  List.iter (fun v -> Obs.Metrics.observe m "h" v) [ 1.0; 10.0; 100.0; 1000.0 ];
  let s = Obs.Metrics.snapshot m in
  (match s.Obs.Metrics.counters with
   | [ c ] ->
     Alcotest.(check string) "counter name" "c" c.Obs.Metrics.c_name;
     Alcotest.(check (float 0.0)) "counter total" 5.0 c.Obs.Metrics.total;
     Alcotest.(check int) "counter events" 2 c.Obs.Metrics.events
   | l -> Alcotest.failf "expected one counter, got %d" (List.length l));
  (match s.Obs.Metrics.gauges with
   | [ g ] -> Alcotest.(check (float 0.0)) "gauge keeps peak" 10.0 g.Obs.Metrics.peak
   | _ -> Alcotest.fail "expected one gauge");
  match s.Obs.Metrics.histograms with
  | [ h ] ->
    Alcotest.(check int) "histo count" 4 h.Obs.Metrics.count;
    Alcotest.(check (float 0.0)) "histo sum" 1111.0 h.Obs.Metrics.sum;
    Alcotest.(check (float 0.0)) "histo min" 1.0 h.Obs.Metrics.min_v;
    Alcotest.(check (float 0.0)) "histo max" 1000.0 h.Obs.Metrics.max_v;
    let p100 = Obs.Metrics.quantile h 1.0 in
    Alcotest.(check bool) "p100 clamps to max" true (p100 = 1000.0);
    let p25 = Obs.Metrics.quantile h 0.25 in
    Alcotest.(check bool) "p25 is near the low end" true (p25 <= 2.0)
  | _ -> Alcotest.fail "expected one histogram"

(* ------------------------------------------------------------------ *)
(* Session + span nesting                                             *)
(* ------------------------------------------------------------------ *)

let test_session_single () =
  let _, _s = Obs.Trace.with_session (fun () -> ()) in
  Alcotest.(check bool) "off after with_session" false (Obs.Trace.is_on ());
  let s = Obs.Trace.start () in
  (match Obs.Trace.start () with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "nested start must be rejected");
  (match Obs.Trace.stop () with
   | Some s' -> Alcotest.(check bool) "stop returns the session" true (s == s')
   | None -> Alcotest.fail "stop lost the session");
  Alcotest.(check bool) "stopped_ns recorded" true (s.Obs.Trace.stopped_ns <> None)

let find_span name events =
  List.find_opt
    (fun (e : Obs.Event.t) -> e.Obs.Event.phase = Obs.Event.Span && e.Obs.Event.name = name)
    events

let test_span_nesting () =
  let (), session =
    Obs.Trace.with_session (fun () ->
        Obs.Trace.with_span ~track:"f" "outer" (fun () ->
            ignore (Sys.opaque_identity (Array.make 64 0));
            Obs.Trace.with_span ~track:"f" "inner" (fun () ->
                ignore (Sys.opaque_identity (Array.make 64 0)))))
  in
  let events = Obs.Ring.to_list session.Obs.Trace.ring in
  match find_span "outer" events, find_span "inner" events with
  | Some outer, Some inner ->
    let o0 = outer.Obs.Event.ts_ns and o1 = outer.Obs.Event.ts_ns +. outer.Obs.Event.dur_ns in
    let i0 = inner.Obs.Event.ts_ns and i1 = inner.Obs.Event.ts_ns +. inner.Obs.Event.dur_ns in
    Alcotest.(check bool) "inner starts within outer" true (i0 >= o0);
    Alcotest.(check bool) "inner ends within outer" true (i1 <= o1);
    Alcotest.(check bool) "durations non-negative" true
      (outer.Obs.Event.dur_ns >= 0.0 && inner.Obs.Event.dur_ns >= 0.0)
  | _ -> Alcotest.fail "outer/inner spans missing from the ring"

let test_emit_off_is_noop () =
  Alcotest.(check bool) "tracing off" false (Obs.Trace.is_on ());
  (* None of these may raise or leak anywhere observable. *)
  Obs.Trace.instant ~track:"x" "nothing";
  Obs.Trace.span ~track:"x" ~name:"nothing" ~ts_ns:0.0 ~dur_ns:1.0 ();
  Obs.Trace.incr_metric "nothing";
  Obs.Trace.observe_ns "nothing" 1.0;
  let (), session = Obs.Trace.with_session (fun () -> ()) in
  Alcotest.(check int) "prior emissions did not land in a later session" 0
    (Obs.Ring.length session.Obs.Trace.ring)

(* ------------------------------------------------------------------ *)
(* JSON                                                               *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let v =
    Obs.Json.Obj
      [
        "s", Obs.Json.Str "a\"b\\c\nd\te";
        "n", Obs.Json.Num 42.0;
        "f", Obs.Json.Num 1.5;
        "b", Obs.Json.Bool true;
        "z", Obs.Json.Null;
        "l", Obs.Json.Arr [ Obs.Json.Num 1.0; Obs.Json.Str "x"; Obs.Json.Obj [] ];
      ]
  in
  match Obs.Json.of_string (Obs.Json.to_string v) with
  | Ok v' -> Alcotest.(check bool) "roundtrip" true (v = v')
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Obs.Json.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted invalid JSON %S" s)
    [ "{"; "[1,]"; "{\"a\":}"; "\"unterminated"; "{} trailing"; "" ]

(* ------------------------------------------------------------------ *)
(* End-to-end: cgsim instrumentation                                  *)
(* ------------------------------------------------------------------ *)

let pass_kernel =
  Cgsim.Kernel.define ~realm:Cgsim.Kernel.Aie ~name:"obs_pass"
    [ Cgsim.Kernel.in_port "in" Cgsim.Dtype.I32; Cgsim.Kernel.out_port "out" Cgsim.Dtype.I32 ]
    (fun b ->
      let i = Cgsim.Kernel.rd b 0 and o = Cgsim.Kernel.wr b 0 in
      while true do
        Cgsim.Port.put o (Cgsim.Port.get i)
      done)

let pipe_graph () =
  Cgsim.Builder.make ~name:"obspipe" ~inputs:[ "x", Cgsim.Dtype.I32 ] (fun b conns ->
      let mid = Cgsim.Builder.net b Cgsim.Dtype.I32 in
      let out = Cgsim.Builder.net b Cgsim.Dtype.I32 in
      ignore (Cgsim.Builder.add_kernel b pass_kernel [ List.hd conns; mid ]);
      ignore (Cgsim.Builder.add_kernel b pass_kernel [ mid; out ]);
      [ out ])

let traced_cgsim_run ?(n = 500) ?(queue_capacity = 8) () =
  Obs.Trace.with_session (fun () ->
      let sink, contents = Cgsim.Io.int_buffer () in
      let stats =
        Cgsim.Runtime.execute_exn
          ~config:Cgsim.Run_config.(with_queue_capacity queue_capacity default)
          (pipe_graph ())
          ~sources:[ Cgsim.Io.of_int_array Cgsim.Dtype.I32 (Array.init n (fun i -> i)) ]
          ~sinks:[ sink ]
      in
      stats, contents ())

let test_cgsim_occupancy_bounded () =
  let (stats, out), session = traced_cgsim_run () in
  Alcotest.(check int) "all data through" 500 (Array.length out);
  Alcotest.(check bool) "fibers completed" true (stats.Cgsim.Sched.completed > 0);
  let snap = Obs.Metrics.snapshot session.Obs.Trace.metrics in
  let occupancy_gauges =
    List.filter
      (fun (g : Obs.Metrics.gauge_snapshot) ->
        String.length g.Obs.Metrics.g_name >= 19
        && String.sub g.Obs.Metrics.g_name 0 19 = "queue.occupancy_hw:")
      snap.Obs.Metrics.gauges
  in
  Alcotest.(check bool) "occupancy gauges recorded" true (occupancy_gauges <> []);
  List.iter
    (fun (g : Obs.Metrics.gauge_snapshot) ->
      if g.Obs.Metrics.peak > 8.0 then
        Alcotest.failf "%s exceeded capacity: %f" g.Obs.Metrics.g_name g.Obs.Metrics.peak)
    occupancy_gauges

let test_cgsim_slices_match_stats () =
  let (stats, _), session = traced_cgsim_run () in
  let slice_sum = ref 0.0 and slice_count = ref 0 in
  Obs.Ring.iter session.Obs.Trace.ring (fun e ->
      if e.Obs.Event.phase = Obs.Event.Span && String.equal e.Obs.Event.name "slice" then begin
        slice_sum := !slice_sum +. e.Obs.Event.dur_ns;
        incr slice_count
      end);
  Alcotest.(check int) "one span per scheduler slice" stats.Cgsim.Sched.slices !slice_count;
  (* Same clock, same measurements: the trace must agree with the
     scheduler's own kernel-time accounting. *)
  let diff = Float.abs (!slice_sum -. stats.Cgsim.Sched.kernel_ns) in
  if diff > 1e-6 *. Float.max 1.0 stats.Cgsim.Sched.kernel_ns then
    Alcotest.failf "slice spans sum to %f ns but stats.kernel_ns is %f" !slice_sum
      stats.Cgsim.Sched.kernel_ns;
  Alcotest.(check bool) "kernel fraction consistent" true
    (Cgsim.Sched.kernel_fraction stats >= 0.0 && Cgsim.Sched.kernel_fraction stats <= 1.0)

let test_cgsim_blocked_time_recorded () =
  (* capacity 1 between two pass stages forces producer/consumer blocking *)
  let (_, _), session = traced_cgsim_run ~queue_capacity:1 () in
  let snap = Obs.Metrics.snapshot session.Obs.Trace.metrics in
  let blocked =
    List.filter
      (fun (h : Obs.Metrics.histo_snapshot) ->
        String.length h.Obs.Metrics.h_name >= 18
        && (String.sub h.Obs.Metrics.h_name 0 18 = "queue.blocked_put:"
           || String.sub h.Obs.Metrics.h_name 0 18 = "queue.blocked_get:"))
      snap.Obs.Metrics.histograms
  in
  Alcotest.(check bool) "blocked-time histograms present" true (blocked <> []);
  let parks =
    List.exists
      (fun (c : Obs.Metrics.counter_snapshot) ->
        c.Obs.Metrics.c_name = "sched.parks" && c.Obs.Metrics.total > 0.0)
      snap.Obs.Metrics.counters
  in
  Alcotest.(check bool) "parks counted" true parks

let test_cgsim_port_counters () =
  (* The runtime's per-port counters on a real run: bitonic's one kernel
     reads every element fed in and writes every element collected. *)
  let h = Apps.Harness.bitonic in
  let reps = 4 in
  let fed = Array.length (Apps.Bitonic.input_floats ~reps) in
  let collected, session =
    Obs.Trace.with_session (fun () ->
        let sinks, contents = h.Apps.Harness.make_sinks () in
        ignore
          (Cgsim.Runtime.execute_exn (h.Apps.Harness.graph ())
             ~sources:(h.Apps.Harness.sources ~reps) ~sinks);
        List.length (contents ()))
  in
  Alcotest.(check int) "every element fed is collected" fed collected;
  let total prefix =
    List.fold_left
      (fun acc (c : Obs.Metrics.counter_snapshot) ->
        let name = c.Obs.Metrics.c_name in
        if String.starts_with ~prefix name then acc +. c.Obs.Metrics.total else acc)
      0.0 (Obs.Metrics.snapshot session.Obs.Trace.metrics).Obs.Metrics.counters
  in
  Alcotest.(check (float 0.0)) "port.get total = elements fed" (float_of_int fed)
    (total "port.get:");
  Alcotest.(check (float 0.0)) "port.put total = elements collected" (float_of_int collected)
    (total "port.put:")

(* ------------------------------------------------------------------ *)
(* End-to-end: Chrome export parses back                              *)
(* ------------------------------------------------------------------ *)

let test_chrome_export_well_formed () =
  let (_, _), session = traced_cgsim_run () in
  let text = Obs.Export.chrome_json session in
  match Obs.Json.of_string text with
  | Error e -> Alcotest.failf "exported trace is not valid JSON: %s" e
  | Ok doc ->
    let events =
      match Option.bind (Obs.Json.member "traceEvents" doc) Obs.Json.to_list with
      | Some l -> l
      | None -> Alcotest.fail "no traceEvents array"
    in
    Alcotest.(check bool) "has events" true (List.length events > 10);
    let get_str k e = Option.bind (Obs.Json.member k e) Obs.Json.to_str in
    let get_num k e = Option.bind (Obs.Json.member k e) Obs.Json.to_float in
    let phases = List.filter_map (get_str "ph") events in
    List.iter
      (fun ph ->
        if not (List.mem ph [ "X"; "i"; "C"; "M" ]) then Alcotest.failf "unexpected ph %S" ph)
      phases;
    Alcotest.(check bool) "has slice spans" true
      (List.exists
         (fun e -> get_str "ph" e = Some "X" && get_str "cat" e = Some "sched")
         events);
    Alcotest.(check bool) "has queue events" true
      (List.exists (fun e -> get_str "cat" e = Some "queue") events);
    Alcotest.(check bool) "has thread metadata" true
      (List.exists (fun e -> get_str "name" e = Some "thread_name") events);
    (* Every non-metadata event needs a timestamp; spans need dur >= 0. *)
    List.iter
      (fun e ->
        match get_str "ph" e with
        | Some "M" -> ()
        | Some "X" ->
          (match get_num "ts" e, get_num "dur" e with
           | Some ts, Some dur when ts >= 0.0 && dur >= 0.0 -> ()
           | _ -> Alcotest.fail "span without valid ts/dur")
        | Some _ ->
          if get_num "ts" e = None then Alcotest.fail "event without ts"
        | None -> Alcotest.fail "event without ph")
      events

let test_csv_and_summary () =
  let (_, _), session = traced_cgsim_run () in
  let csv = Obs.Export.csv session in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check bool) "csv has header + rows" true (List.length lines > 2);
  Alcotest.(check string) "csv header"
    "ts_ns,dur_ns,phase,pid,track,cat,name,arg_key,arg_val" (List.hd lines);
  let summary = Obs.Export.summary session in
  Alcotest.(check bool) "summary mentions session" true
    (String.length summary > 0
    && String.sub summary 0 11 = "obs session")

(* ------------------------------------------------------------------ *)
(* HDR histogram: advertised accuracy, checked against exact ranks     *)
(* ------------------------------------------------------------------ *)

(* The exact rank statistic Hdr.quantile approximates: with the same
   rank convention (ceil (q*n), clamped to [1,n]). *)
let exact_quantile values q =
  let sorted = List.sort compare values in
  let n = List.length sorted in
  let rank = max 1 (min n (int_of_float (ceil (q *. float_of_int n)))) in
  List.nth sorted (rank - 1)

let positive_values =
  (* Spans the layout: exact integer range, several octaves, big values. *)
  QCheck.(list_of_size Gen.(int_range 1 200) (oneof [ float_range 0.0 500.0; float_range 0.0 5e9 ]))

let test_hdr_quantile_error_bound =
  QCheck.Test.make ~count:200 ~name:"Hdr.quantile within advertised relative error"
    positive_values (fun values ->
      QCheck.assume (values <> []);
      let h = Obs.Hdr.create () in
      List.iter (Obs.Hdr.record h) values;
      List.for_all
        (fun q ->
          let exact = exact_quantile values q in
          let got = Obs.Hdr.quantile h q in
          (* One-sided bucket upper bound: never below the exact value
             (minus the 0.5 ns record-time rounding), above it by at
             most rel_error plus 1 ns of rounding. *)
          got >= exact -. 0.5 -. 1e-9 && got -. exact <= (exact *. Obs.Hdr.rel_error) +. 1.0)
        [ 0.0; 0.25; 0.5; 0.9; 0.99; 0.999; 1.0 ])

let test_hdr_merge_commutes =
  QCheck.Test.make ~count:100 ~name:"Hdr.merge commutes and matches recording everything"
    (QCheck.pair positive_values positive_values) (fun (xs, ys) ->
      let record vs =
        let h = Obs.Hdr.create () in
        List.iter (Obs.Hdr.record h) vs;
        h
      in
      let ab = Obs.Hdr.merge (record xs) (record ys) in
      let ba = Obs.Hdr.merge (record ys) (record xs) in
      let all = record (xs @ ys) in
      Obs.Hdr.cumulative ab = Obs.Hdr.cumulative ba
      && Obs.Hdr.cumulative ab = Obs.Hdr.cumulative all
      && Obs.Hdr.count ab = List.length xs + List.length ys
      && List.for_all
           (fun q -> Obs.Hdr.quantile ab q = Obs.Hdr.quantile ba q)
           [ 0.5; 0.99; 0.999 ])

let test_hdr_basics () =
  let h = Obs.Hdr.create () in
  Alcotest.(check (float 0.0)) "empty quantile" 0.0 (Obs.Hdr.quantile h 0.5);
  (* Below sub_count the layout is exact: one integer per bucket. *)
  for i = 0 to 100 do
    Obs.Hdr.record h (float_of_int i)
  done;
  Alcotest.(check (float 0.0)) "exact small-range median" 50.0 (Obs.Hdr.quantile h 0.5);
  Alcotest.(check (float 0.0)) "p100 is max" 100.0 (Obs.Hdr.quantile h 1.0);
  Alcotest.(check int) "count" 101 (Obs.Hdr.count h);
  (* NaN and negatives clamp to zero instead of corrupting the layout. *)
  Obs.Hdr.record h Float.nan;
  Obs.Hdr.record h (-5.0);
  Alcotest.(check int) "hostile inputs still counted" 103 (Obs.Hdr.count h);
  Alcotest.(check (float 0.0)) "clamped to zero" 0.0 (Obs.Hdr.min_value h)

(* ------------------------------------------------------------------ *)
(* Flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

let test_flight_wraparound () =
  Obs.Flight.clear ();
  let n = Obs.Flight.capacity + 50 in
  for i = 1 to n do
    Obs.Flight.note Obs.Flight.Note ~arg:i "w"
  done;
  Alcotest.(check int) "noted counts everything" n (Obs.Flight.noted ());
  let snap = Obs.Flight.snapshot () in
  Alcotest.(check int) "window capped at capacity" Obs.Flight.capacity (List.length snap);
  let args = List.map (fun (e : Obs.Flight.entry) -> e.Obs.Flight.fl_arg) snap in
  Alcotest.(check (float 0.0)) "oldest retained is n-capacity+1"
    (float_of_int (n - Obs.Flight.capacity + 1))
    (List.hd args);
  Alcotest.(check (float 0.0)) "newest retained is n" (float_of_int n) (List.nth args (Obs.Flight.capacity - 1));
  Alcotest.(check bool) "chronological" true (List.sort compare args = args);
  Obs.Flight.clear ();
  Alcotest.(check int) "clear resets" 0 (List.length (Obs.Flight.snapshot ()))

let test_flight_disabled () =
  Obs.Flight.clear ();
  Obs.Flight.set_enabled false;
  Obs.Flight.note Obs.Flight.Note "invisible";
  Obs.Flight.set_enabled true;
  Alcotest.(check int) "disabled notes dropped" 0 (List.length (Obs.Flight.snapshot ()));
  Obs.Flight.note Obs.Flight.Note "visible";
  Alcotest.(check int) "re-enabled notes land" 1 (List.length (Obs.Flight.snapshot ()));
  Obs.Flight.clear ()

let fail_kernel =
  Cgsim.Kernel.define ~realm:Cgsim.Kernel.Aie ~name:"obs_fail"
    [ Cgsim.Kernel.in_port "in" Cgsim.Dtype.I32; Cgsim.Kernel.out_port "out" Cgsim.Dtype.I32 ]
    (fun b ->
      let i = Cgsim.Kernel.rd b 0 in
      ignore (Cgsim.Port.get i);
      ignore (Cgsim.Kernel.wr b 0);
      failwith "obs_fail: boom")

let fail_graph () =
  Cgsim.Builder.make ~name:"obsfail" ~inputs:[ "x", Cgsim.Dtype.I32 ] (fun b conns ->
      let out = Cgsim.Builder.net b Cgsim.Dtype.I32 in
      ignore (Cgsim.Builder.add_kernel b fail_kernel [ List.hd conns; out ]);
      [ out ])

(* The tentpole property: failure outcomes carry recent-history context
   with tracing OFF — the flight recorder runs unconditionally. *)
let test_flight_snapshot_on_failure () =
  Alcotest.(check bool) "tracing off" false (Obs.Trace.is_on ());
  let sink, _ = Cgsim.Io.int_buffer () in
  match
    Cgsim.Runtime.execute (fail_graph ())
      ~sources:[ Cgsim.Io.of_int_array Cgsim.Dtype.I32 (Array.init 16 (fun i -> i)) ]
      ~sinks:[ sink ]
  with
  | Cgsim.Runtime.Kernel_failed f ->
    Alcotest.(check bool) "flight snapshot non-empty" true (f.Cgsim.Runtime.f_flight <> []);
    Alcotest.(check bool) "records the body raise" true
      (List.exists
         (fun (e : Obs.Flight.entry) -> e.Obs.Flight.fl_kind = Obs.Flight.Body_raise)
         f.Cgsim.Runtime.f_flight);
    Alcotest.(check bool) "renders" true
      (String.length (Obs.Flight.render f.Cgsim.Runtime.f_flight) > 0)
  | o -> Alcotest.failf "expected Kernel_failed, got %a" Cgsim.Runtime.pp_outcome o

let test_flight_snapshot_on_deadline () =
  Alcotest.(check bool) "tracing off" false (Obs.Trace.is_on ());
  let sink, _ = Cgsim.Io.int_buffer () in
  match
    Cgsim.Runtime.execute
      ~config:Cgsim.Run_config.(with_max_steps 3 default)
      (pipe_graph ())
      ~sources:[ Cgsim.Io.of_int_array Cgsim.Dtype.I32 (Array.init 500 (fun i -> i)) ]
      ~sinks:[ sink ]
  with
  | Cgsim.Runtime.Deadline_exceeded p ->
    Alcotest.(check bool) "flight snapshot non-empty" true (p.Cgsim.Runtime.p_flight <> []);
    Alcotest.(check bool) "records scheduler slices" true
      (List.exists
         (fun (e : Obs.Flight.entry) -> e.Obs.Flight.fl_kind = Obs.Flight.Slice)
         p.Cgsim.Runtime.p_flight)
  | o -> Alcotest.failf "expected Deadline_exceeded, got %a" Cgsim.Runtime.pp_outcome o

(* ------------------------------------------------------------------ *)
(* Prometheus exposition                                               *)
(* ------------------------------------------------------------------ *)

let test_prom_roundtrip () =
  let m = Obs.Metrics.create () in
  Obs.Metrics.incr m "port.get:k0.in";
  Obs.Metrics.add m "port.get:k0.in" 41.0;
  Obs.Metrics.incr m "sched.parks";
  Obs.Metrics.high_water m "queue.occupancy_hw:g/net0" 7.0;
  List.iter (fun v -> Obs.Metrics.observe m "kernel.self_ns:k0" v) [ 10.0; 200.0; 3000.0 ];
  List.iter (fun v -> Obs.Metrics.observe m "pool.request" v) [ 1e6; 2e6 ];
  let text = Obs.Prom.of_snapshot (Obs.Metrics.snapshot m) in
  (match Obs.Prom.validate text with
   | Ok () -> ()
   | Error e -> Alcotest.failf "exposition rejected by own validator: %s\n%s" e text);
  let contains needle =
    let nl = String.length needle and tl = String.length text in
    let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      if not (contains needle) then Alcotest.failf "exposition missing %S:\n%s" needle text)
    [
      "# TYPE cgsim_port_get_total counter";
      "cgsim_port_get_total{id=\"k0.in\"} 42";
      "cgsim_sched_parks_total 1";
      "# TYPE cgsim_queue_occupancy_hw gauge";
      "# TYPE cgsim_kernel_self_ns histogram";
      "cgsim_kernel_self_ns_count{id=\"k0\"} 3";
      "cgsim_pool_request_bucket{le=\"+Inf\"} 2";
      "cgsim_pool_request_count 2";
    ]

let test_prom_validate_rejects () =
  List.iter
    (fun (label, text) ->
      match Obs.Prom.validate text with
      | Error _ -> ()
      | Ok () -> Alcotest.failf "validator accepted %s" label)
    [
      "sample without TYPE", "cgsim_x_total 1\n";
      "bad type", "# TYPE cgsim_x rate\ncgsim_x 1\n";
      ( "buckets out of order",
        "# TYPE h histogram\nh_bucket{le=\"10\"} 2\nh_bucket{le=\"5\"} 1\nh_bucket{le=\"+Inf\"} \
         3\nh_sum 1\nh_count 3\n" );
      ( "non-cumulative buckets",
        "# TYPE h histogram\nh_bucket{le=\"5\"} 3\nh_bucket{le=\"10\"} 1\nh_bucket{le=\"+Inf\"} \
         3\nh_sum 1\nh_count 3\n" );
      ( "inf bucket disagrees with count",
        "# TYPE h histogram\nh_bucket{le=\"5\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n"
      );
      "no +Inf bucket", "# TYPE h histogram\nh_bucket{le=\"5\"} 1\nh_sum 1\nh_count 1\n";
      "missing sum", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\nh_count 1\n";
      "bad label syntax", "# TYPE g gauge\ng{id=unquoted} 1\n";
      "bad value", "# TYPE g gauge\ng{id=\"x\"} one\n";
      "stray comment", "# random noise\n";
    ]

let test_prom_of_real_session () =
  let (_, _), session = traced_cgsim_run () in
  let text = Obs.Prom.of_snapshot (Obs.Metrics.snapshot session.Obs.Trace.metrics) in
  match Obs.Prom.validate text with
  | Ok () -> ()
  | Error e -> Alcotest.failf "session exposition invalid: %s" e

(* ------------------------------------------------------------------ *)
(* Per-kernel profiler                                                 *)
(* ------------------------------------------------------------------ *)

let test_profile_rows () =
  let (_, _), session = traced_cgsim_run () in
  let snap = Obs.Metrics.snapshot session.Obs.Trace.metrics in
  let rows = Obs.Profile.rows snap in
  Alcotest.(check bool) "profiles every fiber" true (List.length rows >= 2);
  let total_share = List.fold_left (fun a (r : Obs.Profile.row) -> a +. r.Obs.Profile.share) 0.0 rows in
  Alcotest.(check bool) "shares sum to 1" true (Float.abs (total_share -. 1.0) < 1e-9);
  let sorted =
    List.for_all2
      (fun (a : Obs.Profile.row) (b : Obs.Profile.row) -> a.Obs.Profile.self_ns >= b.Obs.Profile.self_ns)
      (List.filteri (fun i _ -> i < List.length rows - 1) rows)
      (List.tl rows)
  in
  Alcotest.(check bool) "sorted by self time" true sorted;
  let folded = Obs.Profile.collapsed snap in
  List.iter
    (fun line ->
      if line <> "" then
        match String.rindex_opt line ' ' with
        | None -> Alcotest.failf "collapsed line without count: %S" line
        | Some i ->
          let v = String.sub line (i + 1) (String.length line - i - 1) in
          (match float_of_string_opt v with
           | Some f when f >= 0.0 -> ()
           | _ -> Alcotest.failf "collapsed count not a number: %S" line);
          if not (String.length line > 6 && String.sub line 0 6 = "cgsim;") then
            Alcotest.failf "collapsed frame without root: %S" line)
    (String.split_on_char '\n' folded)

(* ------------------------------------------------------------------ *)
(* End-to-end: x86sim instrumentation                                 *)
(* ------------------------------------------------------------------ *)

let test_x86sim_thread_spans () =
  let (stats, out), session =
    Obs.Trace.with_session (fun () ->
        let sink, contents = Cgsim.Io.int_buffer () in
        let stats =
          Cgsim.Runtime.stats_exn
            (X86sim.Sim.run
               ~config:Cgsim.Run_config.(with_queue_capacity 4 default)
               (pipe_graph ())
               ~sources:[ Cgsim.Io.of_int_array Cgsim.Dtype.I32 (Array.init 200 (fun i -> i)) ]
               ~sinks:[ sink ])
        in
        stats, contents ())
  in
  Alcotest.(check int) "all data through" 200 (Array.length out);
  let thread_spans = ref 0 in
  Obs.Ring.iter session.Obs.Trace.ring (fun e ->
      if e.Obs.Event.phase = Obs.Event.Span && String.equal e.Obs.Event.cat "thread" then
        incr thread_spans);
  Alcotest.(check int) "one lifetime span per OS thread" stats.Cgsim.Sched.spawned !thread_spans

let () =
  Alcotest.run "obs"
    [
      "clock", [ Alcotest.test_case "monotone" `Quick test_clock_monotone ];
      ( "ring",
        [
          Alcotest.test_case "fill" `Quick test_ring_fill;
          Alcotest.test_case "wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "zero capacity" `Quick test_ring_rejects_zero_capacity;
        ] );
      "metrics", [ Alcotest.test_case "counters/gauges/histograms" `Quick test_metrics_basic ];
      ( "session",
        [
          Alcotest.test_case "single active session" `Quick test_session_single;
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "off is no-op" `Quick test_emit_off_is_noop;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
        ] );
      ( "cgsim",
        [
          Alcotest.test_case "occupancy bounded by capacity" `Quick test_cgsim_occupancy_bounded;
          Alcotest.test_case "slice spans match stats" `Quick test_cgsim_slices_match_stats;
          Alcotest.test_case "blocked time recorded" `Quick test_cgsim_blocked_time_recorded;
          Alcotest.test_case "port counters match traffic" `Quick test_cgsim_port_counters;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome JSON parses back" `Quick test_chrome_export_well_formed;
          Alcotest.test_case "csv and summary" `Quick test_csv_and_summary;
        ] );
      "x86sim", [ Alcotest.test_case "thread spans" `Quick test_x86sim_thread_spans ];
      ( "hdr",
        Alcotest.test_case "basics and hostile inputs" `Quick test_hdr_basics
        :: List.map
             (QCheck_alcotest.to_alcotest ~long:false)
             [ test_hdr_quantile_error_bound; test_hdr_merge_commutes ] );
      ( "flight",
        [
          Alcotest.test_case "wraparound" `Quick test_flight_wraparound;
          Alcotest.test_case "kill switch" `Quick test_flight_disabled;
          Alcotest.test_case "snapshot on kernel failure (tracing off)" `Quick
            test_flight_snapshot_on_failure;
          Alcotest.test_case "snapshot on deadline (tracing off)" `Quick
            test_flight_snapshot_on_deadline;
        ] );
      ( "prom",
        [
          Alcotest.test_case "snapshot renders and validates" `Quick test_prom_roundtrip;
          Alcotest.test_case "validator rejects malformed text" `Quick test_prom_validate_rejects;
          Alcotest.test_case "real session exposition valid" `Quick test_prom_of_real_session;
        ] );
      "profile", [ Alcotest.test_case "rows, shares and collapsed stacks" `Quick test_profile_rows ];
    ]
