(* Unit and property tests for the cgsim core library. *)

let dt = Alcotest.testable Cgsim.Dtype.pp Cgsim.Dtype.equal

(* ------------------------------------------------------------------ *)
(* Dtype                                                              *)
(* ------------------------------------------------------------------ *)

let test_dtype_sizes () =
  let open Cgsim.Dtype in
  Alcotest.(check int) "f32" 4 (size_bytes F32);
  Alcotest.(check int) "i16" 2 (size_bytes I16);
  Alcotest.(check int) "v16f32" 64 (size_bytes (Vector (F32, 16)));
  Alcotest.(check int) "struct" 12 (size_bytes (Struct [ "a", F32; "b", I32; "c", U16; "d", I16 ]));
  Alcotest.(check int) "lanes" 16 (scalar_count (Vector (F32, 16)))

let test_dtype_spelling () =
  let open Cgsim.Dtype in
  Alcotest.(check (option dt)) "float" (Some F32) (of_cpp_spelling "float");
  Alcotest.(check (option dt)) "int16_t" (Some I16) (of_cpp_spelling "int16_t");
  Alcotest.(check (option dt)) "v16float" (Some (Vector (F32, 16))) (of_cpp_spelling "v16float");
  Alcotest.(check (option dt)) "v8int32" (Some (Vector (I32, 8))) (of_cpp_spelling "v8int32");
  Alcotest.(check (option dt)) "garbage" None (of_cpp_spelling "quux");
  Alcotest.(check (option dt)) "v0float" None (of_cpp_spelling "v0float");
  Alcotest.(check string) "roundtrip v16f32" "v16float" (cpp_spelling (Vector (F32, 16)));
  Alcotest.(check string) "roundtrip i16" "int16_t" (cpp_spelling I16)

(* ------------------------------------------------------------------ *)
(* Value                                                              *)
(* ------------------------------------------------------------------ *)

let test_value_conforms () =
  let open Cgsim in
  Alcotest.(check bool) "f32 ok" true (Value.conforms Dtype.F32 (Value.Float 1.5));
  Alcotest.(check bool) "i16 ok" true (Value.conforms Dtype.I16 (Value.Int 32767));
  Alcotest.(check bool) "i16 overflow" false (Value.conforms Dtype.I16 (Value.Int 32768));
  Alcotest.(check bool) "u8 negative" false (Value.conforms Dtype.U8 (Value.Int (-1)));
  let vec = Value.Vec [| Value.Float 0.0; Value.Float 1.0 |] in
  Alcotest.(check bool) "vector ok" true (Value.conforms (Dtype.Vector (Dtype.F32, 2)) vec);
  Alcotest.(check bool) "vector wrong lanes" false
    (Value.conforms (Dtype.Vector (Dtype.F32, 3)) vec);
  let st = Dtype.Struct [ "x", Dtype.F32; "y", Dtype.I32 ] in
  Alcotest.(check bool) "struct ok" true
    (Value.conforms st (Value.Rec [ "x", Value.Float 1.0; "y", Value.Int 2 ]));
  Alcotest.(check bool) "struct field order matters" false
    (Value.conforms st (Value.Rec [ "y", Value.Int 2; "x", Value.Float 1.0 ]))

let test_value_int_ops () =
  let open Cgsim in
  Alcotest.(check int) "clamp high" 32767 (Value.clamp_int Dtype.I16 100000);
  Alcotest.(check int) "clamp low" (-32768) (Value.clamp_int Dtype.I16 (-100000));
  Alcotest.(check int) "wrap i16" (-32768) (Value.wrap_int Dtype.I16 32768);
  Alcotest.(check int) "wrap u8" 1 (Value.wrap_int Dtype.U8 257);
  Alcotest.(check int) "zero int" 0 (Value.to_int (Value.zero Dtype.I32))

(* ------------------------------------------------------------------ *)
(* Settings                                                           *)
(* ------------------------------------------------------------------ *)

let test_settings_merge () =
  let open Cgsim.Settings in
  let ok = function Ok s -> s | Error e -> Alcotest.failf "unexpected merge error: %s" e in
  let m = ok (merge (window 8192) (with_beat 8 default)) in
  Alcotest.(check bool) "window+beat" true (equal m (with_beat 8 (window 8192)));
  (match merge (window 8192) (window 4096) with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "conflicting windows must not merge");
  (match merge stream rtp with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "stream vs rtp must not merge");
  Alcotest.(check bool) "wildcard" true (equal (ok (merge default stream)) stream)

let test_settings_validate () =
  let open Cgsim.Settings in
  (match validate ~elem_bytes:4 (window 8192) with
   | Ok () -> ()
   | Error e -> Alcotest.failf "8192/4 window should validate: %s" e);
  (match validate ~elem_bytes:3 (window 8192) with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "non-multiple window must fail");
  (match validate ~elem_bytes:4 (with_beat 5 stream) with
   | Error _ -> ()
   | Ok () -> Alcotest.fail "beat 5 must fail");
  Alcotest.(check int) "window depth = 2 windows" 4096
    (resolved_depth ~elem_bytes:4 (window 8192));
  Alcotest.(check int) "stream default depth" default_stream_depth
    (resolved_depth ~elem_bytes:4 stream)

let settings_gen =
  let open QCheck.Gen in
  let transport =
    frequency
      [
        2, return None;
        2, return (Some Cgsim.Settings.Stream);
        1, map (fun i -> Some (Cgsim.Settings.Window (4 * (1 + i)))) (int_bound 8);
        1, return (Some Cgsim.Settings.Rtp);
      ]
  in
  let beat = frequency [ 2, return None; 1, oneofl [ Some 4; Some 8; Some 16 ] ] in
  let depth = frequency [ 2, return None; 1, map (fun i -> Some (1 + i)) (int_bound 64) ] in
  map
    (fun (transport, (beat_bytes, depth)) -> { Cgsim.Settings.transport; beat_bytes; depth })
    (pair transport (pair beat depth))

let settings_arb =
  QCheck.make settings_gen ~print:(fun s -> Format.asprintf "%a" Cgsim.Settings.pp s)

let prop_merge_commutative =
  QCheck.Test.make ~name:"Settings.merge is commutative" ~count:500
    (QCheck.pair settings_arb settings_arb)
    (fun (a, b) ->
      let open Cgsim.Settings in
      match merge a b, merge b a with
      | Ok x, Ok y -> equal x y
      | Error _, Error _ -> true
      | Ok _, Error _ | Error _, Ok _ -> false)

let prop_merge_associative =
  QCheck.Test.make ~name:"Settings.merge is associative" ~count:500
    (QCheck.triple settings_arb settings_arb settings_arb)
    (fun (a, b, c) ->
      let open Cgsim.Settings in
      let left = Result.bind (merge a b) (fun ab -> merge ab c) in
      let right = Result.bind (merge b c) (fun bc -> merge a bc) in
      match left, right with
      | Ok x, Ok y -> equal x y
      | Error _, Error _ -> true
      | Ok _, Error _ | Error _, Ok _ -> false)

let prop_merge_idempotent =
  QCheck.Test.make ~name:"Settings.merge is idempotent" ~count:500 settings_arb (fun a ->
      let open Cgsim.Settings in
      match merge a a with
      | Ok x -> equal x a
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Attr                                                               *)
(* ------------------------------------------------------------------ *)

let test_attr_merge () =
  let open Cgsim.Attr in
  let merged = merge [ s "plio_name" "a"; i "plio_width" 64 ] [ s "plio_name" "b" ] in
  Alcotest.(check (option string)) "override" (Some "b") (find_string "plio_name" merged);
  Alcotest.(check (option int)) "kept" (Some 64) (find_int "plio_width" merged);
  Alcotest.(check int) "no duplicates" 2 (List.length merged);
  Alcotest.(check (option int)) "wrong kind" None (find_int "plio_name" merged)

(* ------------------------------------------------------------------ *)
(* Sched                                                              *)
(* ------------------------------------------------------------------ *)

let test_sched_roundrobin () =
  let s = Cgsim.Sched.create () in
  let log = ref [] in
  let fiber name =
    for i = 1 to 3 do
      log := Printf.sprintf "%s%d" name i :: !log;
      Cgsim.Sched.yield ()
    done
  in
  Cgsim.Sched.spawn s ~name:"a" (fun () -> fiber "a");
  Cgsim.Sched.spawn s ~name:"b" (fun () -> fiber "b");
  let stats = Cgsim.Sched.run s in
  Alcotest.(check int) "completed" 2 stats.Cgsim.Sched.completed;
  Alcotest.(check (list string)) "interleaving"
    [ "a1"; "b1"; "a2"; "b2"; "a3"; "b3" ]
    (List.rev !log)

let test_sched_park_wake () =
  let s = Cgsim.Sched.create () in
  let slot = ref None in
  let got = ref (-1) in
  Cgsim.Sched.spawn s ~name:"consumer" (fun () ->
      Cgsim.Sched.park (fun w -> slot := Some w);
      got := 42);
  Cgsim.Sched.spawn s ~name:"producer" (fun () ->
      match !slot with
      | Some w -> Cgsim.Sched.wake_batch [ w ]
      | None -> Alcotest.fail "consumer should have parked first");
  let stats = Cgsim.Sched.run s in
  Alcotest.(check int) "both completed" 2 stats.Cgsim.Sched.completed;
  Alcotest.(check int) "consumer resumed" 42 !got

let test_sched_stall_cancels () =
  let s = Cgsim.Sched.create () in
  let cleaned = ref false in
  Cgsim.Sched.spawn s ~name:"stuck" (fun () ->
      Fun.protect
        ~finally:(fun () -> cleaned := true)
        (fun () -> Cgsim.Sched.park (fun _ -> ())));
  let stats = Cgsim.Sched.run s in
  Alcotest.(check int) "cancelled" 1 stats.Cgsim.Sched.cancelled;
  Alcotest.(check bool) "cleanup ran" true !cleaned

let test_sched_failure_recorded () =
  let s = Cgsim.Sched.create () in
  Cgsim.Sched.spawn s ~name:"boom" (fun () -> failwith "kernel bug");
  let stats = Cgsim.Sched.run s in
  match stats.Cgsim.Sched.failed with
  | [ ("boom", Failure msg) ] when msg = "kernel bug" -> ()
  | _ -> Alcotest.fail "failure should be recorded with fiber name"

let test_sched_stale_waker () =
  let s = Cgsim.Sched.create () in
  let first = ref None in
  let hits = ref 0 in
  Cgsim.Sched.spawn s ~name:"sleeper" (fun () ->
      Cgsim.Sched.park (fun w -> first := Some w);
      incr hits;
      (* Park again; waking the stale first waker must not resume this. *)
      Cgsim.Sched.park (fun _ -> ()));
  Cgsim.Sched.spawn s ~name:"waker" (fun () ->
      match !first with
      | Some w ->
        Cgsim.Sched.wake_batch [ w ];
        Cgsim.Sched.yield ();
        Cgsim.Sched.wake_batch [ w ] (* stale: sleeper re-parked under a new generation *)
      | None -> Alcotest.fail "sleeper should have parked");
  let stats = Cgsim.Sched.run s in
  Alcotest.(check int) "woken exactly once" 1 !hits;
  Alcotest.(check int) "sleeper cancelled at stall" 1 stats.Cgsim.Sched.cancelled

let test_sched_spawn_during_run () =
  let s = Cgsim.Sched.create () in
  let seen = ref [] in
  Cgsim.Sched.spawn s ~name:"parent" (fun () ->
      seen := "parent" :: !seen;
      Cgsim.Sched.spawn s ~name:"child" (fun () -> seen := "child" :: !seen));
  let stats = Cgsim.Sched.run s in
  Alcotest.(check int) "both ran" 2 stats.Cgsim.Sched.completed;
  Alcotest.(check (list string)) "order" [ "parent"; "child" ] (List.rev !seen)

(* A slice allocates nothing of the scheduler's own.  The effect round
   trip itself does: [perform] makes a continuation and the scheduler
   keeps it in a [Ready] cell until it resumes it.  The same round trip
   is measured bare, one fiber under a handler that keeps each
   continuation in an option, and the scheduler may add under one word
   per slice on top.  Tracing is off; the flight recorder is on. *)
type _ Effect.t += Bare_yield : unit Effect.t

let test_sched_slices_allocate_nothing () =
  let n = 10_000 in
  let s = Cgsim.Sched.create () in
  let body () =
    for _ = 1 to n do
      Cgsim.Sched.yield ()
    done
  in
  Cgsim.Sched.spawn s ~name:"a" body;
  Cgsim.Sched.spawn s ~name:"b" body;
  let before = Gc.minor_words () in
  let stats = Cgsim.Sched.run s in
  let sched_words = Gc.minor_words () -. before in
  let slices = stats.Cgsim.Sched.slices in
  Alcotest.(check int) "one slice per yield, plus each fiber's last" ((2 * n) + 2) slices;
  let kept = ref None in
  let on_yield : ((unit, unit) Effect.Deep.continuation -> unit) option =
    Some (fun k -> kept := Some k)
  in
  let handler =
    {
      Effect.Deep.retc = (fun () -> ());
      exnc = raise;
      effc =
        (fun (type a) (e : a Effect.t) ->
          match e with
          | Bare_yield -> (on_yield : ((a, unit) Effect.Deep.continuation -> unit) option)
          | _ -> None);
    }
  in
  let before = Gc.minor_words () in
  Effect.Deep.match_with
    (fun () ->
      for _ = 1 to 2 * n do
        Effect.perform Bare_yield
      done)
    () handler;
  let rec resume () =
    match !kept with
    | Some k ->
      kept := None;
      Effect.Deep.continue k ();
      resume ()
    | None -> ()
  in
  resume ();
  let bare_words = Gc.minor_words () -. before in
  let added = (sched_words /. float_of_int slices) -. (bare_words /. float_of_int (2 * n)) in
  if added >= 1.0 then
    Alcotest.failf "a slice allocates %.2f words beyond the bare round trip (%.0f words, %d slices)"
      added sched_words slices

(* ------------------------------------------------------------------ *)
(* Bqueue                                                             *)
(* ------------------------------------------------------------------ *)

let run_fibers fibers =
  let s = Cgsim.Sched.create () in
  List.iter (fun (name, fn) -> Cgsim.Sched.spawn s ~name fn) fibers;
  Cgsim.Sched.run s

let test_bqueue_fifo () =
  let q = Cgsim.Bqueue.create ~name:"q" ~dtype:Cgsim.Dtype.I32 ~capacity:4 () in
  let p = Cgsim.Bqueue.add_producer q in
  let c = Cgsim.Bqueue.add_consumer q in
  let got = ref [] in
  let stats =
    run_fibers
      [
        ( "producer",
          fun () ->
            for i = 1 to 100 do
              Cgsim.Bqueue.put p (Cgsim.Value.Int i)
            done;
            Cgsim.Bqueue.producer_done p );
        ( "consumer",
          fun () ->
            let rec loop () =
              got := Cgsim.Value.to_int (Cgsim.Bqueue.get c) :: !got;
              loop ()
            in
            loop () );
      ]
  in
  Alcotest.(check int) "all fibers done" 2 stats.Cgsim.Sched.completed;
  Alcotest.(check (list int)) "order" (List.init 100 (fun i -> i + 1)) (List.rev !got)

let test_bqueue_broadcast () =
  let q = Cgsim.Bqueue.create ~name:"q" ~dtype:Cgsim.Dtype.I32 ~capacity:2 () in
  let p = Cgsim.Bqueue.add_producer q in
  let c1 = Cgsim.Bqueue.add_consumer q in
  let c2 = Cgsim.Bqueue.add_consumer q in
  let got1 = ref [] and got2 = ref [] in
  let consume c acc () =
    let rec loop () =
      acc := Cgsim.Value.to_int (Cgsim.Bqueue.get c) :: !acc;
      loop ()
    in
    loop ()
  in
  let _ =
    run_fibers
      [
        ( "producer",
          fun () ->
            for i = 1 to 50 do
              Cgsim.Bqueue.put p (Cgsim.Value.Int i)
            done;
            Cgsim.Bqueue.producer_done p );
        "c1", consume c1 got1;
        "c2", consume c2 got2;
      ]
  in
  let expect = List.init 50 (fun i -> i + 1) in
  Alcotest.(check (list int)) "c1 complete copy" expect (List.rev !got1);
  Alcotest.(check (list int)) "c2 complete copy" expect (List.rev !got2)

let test_bqueue_backpressure () =
  (* Capacity 1 forces strict ping-pong between producer and consumer. *)
  let q = Cgsim.Bqueue.create ~name:"q" ~dtype:Cgsim.Dtype.I32 ~capacity:1 () in
  let p = Cgsim.Bqueue.add_producer q in
  let c = Cgsim.Bqueue.add_consumer q in
  let max_in_flight = ref 0 in
  let _ =
    run_fibers
      [
        ( "producer",
          fun () ->
            for i = 1 to 20 do
              Cgsim.Bqueue.put p (Cgsim.Value.Int i);
              max_in_flight := max !max_in_flight (Cgsim.Bqueue.occupancy q)
            done;
            Cgsim.Bqueue.producer_done p );
        ( "consumer",
          fun () ->
            let rec loop () =
              ignore (Cgsim.Bqueue.get c);
              loop ()
            in
            loop () );
      ]
  in
  Alcotest.(check bool) "bounded" true (!max_in_flight <= 1)

let test_bqueue_multiproducer () =
  let q = Cgsim.Bqueue.create ~name:"q" ~dtype:Cgsim.Dtype.I32 ~capacity:8 () in
  let p1 = Cgsim.Bqueue.add_producer q in
  let p2 = Cgsim.Bqueue.add_producer q in
  let c = Cgsim.Bqueue.add_consumer q in
  let got = ref [] in
  let produce p base () =
    for i = 1 to 25 do
      Cgsim.Bqueue.put p (Cgsim.Value.Int (base + i))
    done;
    Cgsim.Bqueue.producer_done p
  in
  let _ =
    run_fibers
      [
        "p1", produce p1 0;
        "p2", produce p2 100;
        ( "consumer",
          fun () ->
            let rec loop () =
              got := Cgsim.Value.to_int (Cgsim.Bqueue.get c) :: !got;
              loop ()
            in
            loop () );
      ]
  in
  let all = List.rev !got in
  Alcotest.(check int) "everything arrived" 50 (List.length all);
  (* Per-producer FIFO: the subsequence from each producer is ordered. *)
  let sub pred = List.filter pred all in
  let sorted l = List.sort compare l in
  Alcotest.(check (list int)) "p1 order kept" (sorted (sub (fun x -> x <= 25)))
    (sub (fun x -> x <= 25));
  Alcotest.(check (list int)) "p2 order kept" (sorted (sub (fun x -> x > 25)))
    (sub (fun x -> x > 25))

let test_bqueue_close_drains () =
  let q = Cgsim.Bqueue.create ~name:"q" ~dtype:Cgsim.Dtype.I32 ~capacity:8 () in
  let p = Cgsim.Bqueue.add_producer q in
  let c = Cgsim.Bqueue.add_consumer q in
  let got = ref [] in
  let stats =
    run_fibers
      [
        ( "producer",
          fun () ->
            Cgsim.Bqueue.put p (Cgsim.Value.Int 7);
            Cgsim.Bqueue.put p (Cgsim.Value.Int 8);
            Cgsim.Bqueue.producer_done p );
        ( "consumer",
          fun () ->
            let rec loop () =
              got := Cgsim.Value.to_int (Cgsim.Bqueue.get c) :: !got;
              loop ()
            in
            loop () );
      ]
  in
  (* Consumer terminates via End_of_stream, counted as completed. *)
  Alcotest.(check int) "completed" 2 stats.Cgsim.Sched.completed;
  Alcotest.(check (list int)) "drained before close" [ 7; 8 ] (List.rev !got)

let test_bqueue_dtype_check () =
  let q = Cgsim.Bqueue.create ~name:"q" ~dtype:Cgsim.Dtype.F32 ~capacity:2 () in
  let p = Cgsim.Bqueue.add_producer q in
  let stats = run_fibers [ ("bad", fun () -> Cgsim.Bqueue.put p (Cgsim.Value.Int 1)) ] in
  match stats.Cgsim.Sched.failed with
  | [ ("bad", Invalid_argument _) ] -> ()
  | _ -> Alcotest.fail "dtype mismatch should fail the producing fiber"

let prop_bqueue_broadcast_random =
  QCheck.Test.make ~name:"Bqueue broadcast delivers identical complete copies" ~count:50
    QCheck.(pair (int_range 1 6) (list_of_size (QCheck.Gen.int_range 0 60) small_int))
    (fun (cap, items) ->
      let q = Cgsim.Bqueue.create ~name:"q" ~dtype:Cgsim.Dtype.I32 ~capacity:cap () in
      let p = Cgsim.Bqueue.add_producer q in
      let consumers = List.init 3 (fun _ -> Cgsim.Bqueue.add_consumer q) in
      let results = List.map (fun _ -> ref []) consumers in
      let fibers =
        ( "producer",
          fun () ->
            List.iter (fun i -> Cgsim.Bqueue.put p (Cgsim.Value.Int i)) items;
            Cgsim.Bqueue.producer_done p )
        :: List.map2
             (fun c acc ->
               ( "consumer",
                 fun () ->
                   let rec loop () =
                     acc := Cgsim.Value.to_int (Cgsim.Bqueue.get c) :: !acc;
                     loop ()
                   in
                   loop () ))
             consumers results
      in
      ignore (run_fibers fibers);
      List.for_all (fun acc -> List.rev !acc = items) results)

(* ------------------------------------------------------------------ *)
(* Bqueue block transfers                                             *)
(* ------------------------------------------------------------------ *)

let ints lo hi = Array.init (hi - lo + 1) (fun i -> Cgsim.Value.Int (lo + i))

(* Value blocks through the one block write, read and drain. *)
let put_values p vs = Cgsim.Bqueue.write Cgsim.Ring.values p vs 0 (Array.length vs)

let get_values c n =
  let out = Array.make n (Cgsim.Value.Int 0) in
  Cgsim.Bqueue.read Cgsim.Ring.values c out 0 n;
  out

let get_some c ~max =
  let out = Array.make max (Cgsim.Value.Int 0) in
  Array.sub out 0 (Cgsim.Bqueue.read_upto Cgsim.Ring.values c out 0 max)

let test_bqueue_block_roundtrip () =
  (* Value block writes and reads move the same stream an element loop would. *)
  let q = Cgsim.Bqueue.create ~name:"q" ~dtype:Cgsim.Dtype.I32 ~capacity:8 () in
  let p = Cgsim.Bqueue.add_producer q in
  let c = Cgsim.Bqueue.add_consumer q in
  let got = ref [] in
  let stats =
    run_fibers
      [
        ( "producer",
          fun () ->
            put_values p (ints 1 40);
            put_values p [||];
            put_values p (ints 41 100);
            Cgsim.Bqueue.producer_done p );
        ( "consumer",
          fun () ->
            let rec loop () =
              let vs = get_values c 10 in
              Array.iter (fun v -> got := Cgsim.Value.to_int v :: !got) vs;
              loop ()
            in
            loop () );
      ]
  in
  Alcotest.(check int) "all fibers done" 2 stats.Cgsim.Sched.completed;
  Alcotest.(check (list int)) "order" (List.init 100 (fun i -> i + 1)) (List.rev !got)

let test_bqueue_block_broadcast_mixed () =
  (* Broadcast with consumers at different cursors: one drains in blocks
     of 7, one element-at-a-time; both must see identical complete
     copies through a tiny ring. *)
  let q = Cgsim.Bqueue.create ~name:"q" ~dtype:Cgsim.Dtype.I32 ~capacity:3 () in
  let p = Cgsim.Bqueue.add_producer q in
  let cb = Cgsim.Bqueue.add_consumer q in
  let ce = Cgsim.Bqueue.add_consumer q in
  let got_b = ref [] and got_e = ref [] in
  let _ =
    run_fibers
      [
        ( "producer",
          fun () ->
            put_values p (ints 1 70);
            Cgsim.Bqueue.producer_done p );
        ( "block-consumer",
          fun () ->
            let rec loop () =
              Array.iter
                (fun v -> got_b := Cgsim.Value.to_int v :: !got_b)
                (get_values cb 7);
              loop ()
            in
            loop () );
        ( "elem-consumer",
          fun () ->
            let rec loop () =
              got_e := Cgsim.Value.to_int (Cgsim.Bqueue.get ce) :: !got_e;
              loop ()
            in
            loop () );
      ]
  in
  let expect = List.init 70 (fun i -> i + 1) in
  Alcotest.(check (list int)) "block consumer copy" expect (List.rev !got_b);
  Alcotest.(check (list int)) "element consumer copy" expect (List.rev !got_e)

let test_bqueue_block_larger_than_capacity () =
  (* A single block far larger than the ring must stream through. *)
  let q = Cgsim.Bqueue.create ~name:"q" ~dtype:Cgsim.Dtype.I32 ~capacity:4 () in
  let p = Cgsim.Bqueue.add_producer q in
  let c = Cgsim.Bqueue.add_consumer q in
  let got = ref [||] in
  let stats =
    run_fibers
      [
        ( "producer",
          fun () ->
            put_values p (ints 1 64);
            Cgsim.Bqueue.producer_done p );
        ("consumer", fun () -> got := get_values c 64);
      ]
  in
  Alcotest.(check int) "no deadlock" 2 stats.Cgsim.Sched.completed;
  Alcotest.(check (list int)) "content"
    (List.init 64 (fun i -> i + 1))
    (Array.to_list (Array.map Cgsim.Value.to_int !got))

let test_bqueue_block_eos_midblock () =
  (* End_of_stream arriving mid-block: the elements consumed before the
     close stay consumed, then the block read raises. *)
  let q = Cgsim.Bqueue.create ~name:"q" ~dtype:Cgsim.Dtype.I32 ~capacity:8 () in
  let p = Cgsim.Bqueue.add_producer q in
  let c = Cgsim.Bqueue.add_consumer q in
  let raised = ref false in
  let drained = ref (-1) in
  let _ =
    run_fibers
      [
        ( "producer",
          fun () ->
            put_values p (ints 1 5);
            Cgsim.Bqueue.producer_done p );
        ( "consumer",
          fun () ->
            (try ignore (get_values c 8)
             with Cgsim.Sched.End_of_stream -> raised := true);
            drained := Cgsim.Bqueue.occupancy q );
      ]
  in
  Alcotest.(check bool) "raised" true !raised;
  Alcotest.(check int) "partial block was consumed" 0 !drained

let test_bqueue_get_some_bounds () =
  (* The drain returns between 1 and max immediately-available elements
     and raises End_of_stream once closed and drained. *)
  let q = Cgsim.Bqueue.create ~name:"q" ~dtype:Cgsim.Dtype.I32 ~capacity:16 () in
  let p = Cgsim.Bqueue.add_producer q in
  let c = Cgsim.Bqueue.add_consumer q in
  let sizes = ref [] in
  let total = ref 0 in
  let _ =
    run_fibers
      [
        ( "producer",
          fun () ->
            put_values p (ints 1 10);
            Cgsim.Bqueue.producer_done p );
        ( "consumer",
          fun () ->
            let rec loop () =
              let vs = get_some c ~max:4 in
              sizes := Array.length vs :: !sizes;
              total := !total + Array.length vs;
              loop ()
            in
            loop () );
      ]
  in
  Alcotest.(check int) "total" 10 !total;
  List.iter
    (fun n -> Alcotest.(check bool) "1 <= n <= max" true (n >= 1 && n <= 4))
    !sizes

let test_value_compile_check_matches_conforms () =
  let open Cgsim in
  let dtypes =
    [
      Dtype.F32;
      Dtype.F64;
      Dtype.I8;
      Dtype.I16;
      Dtype.I32;
      Dtype.I64;
      Dtype.U8;
      Dtype.U16;
      Dtype.U32;
      Dtype.Vector (Dtype.F32, 2);
      Dtype.Vector (Dtype.U8, 4);
      Dtype.Struct [ "x", Dtype.F32; "y", Dtype.I16 ];
      Dtype.Struct [ "pix", Dtype.Vector (Dtype.U8, 4); "xf", Dtype.U16 ];
    ]
  in
  let values =
    [
      Value.Float 1.5;
      Value.Int 0;
      Value.Int 200;
      Value.Int (-1);
      Value.Int 32768;
      Value.Int 70000;
      Value.Vec [| Value.Float 0.0; Value.Float 1.0 |];
      Value.Vec [| Value.Int 1; Value.Int 2; Value.Int 3; Value.Int 4 |];
      Value.Vec [| Value.Int 255; Value.Int 256; Value.Int 0; Value.Int 9 |];
      Value.Rec [ "x", Value.Float 1.0; "y", Value.Int 2 ];
      Value.Rec [ "y", Value.Int 2; "x", Value.Float 1.0 ];
      Value.Rec [ "pix", Value.Vec (Array.make 4 (Value.Int 7)); "xf", Value.Int 9 ];
    ]
  in
  List.iter
    (fun d ->
      let compiled = Value.compile_check d in
      List.iter
        (fun v ->
          Alcotest.(check bool)
            (Format.asprintf "compile_check %a" Dtype.pp d)
            (Value.conforms d v) (compiled v))
        values)
    dtypes

let test_value_equal_vec () =
  let open Cgsim in
  let v a = Value.Vec (Array.map (fun i -> Value.Int i) a) in
  Alcotest.(check bool) "equal" true (Value.equal (v [| 1; 2; 3 |]) (v [| 1; 2; 3 |]));
  Alcotest.(check bool) "length differs" false (Value.equal (v [| 1; 2 |]) (v [| 1; 2; 3 |]));
  Alcotest.(check bool) "first element differs" false
    (Value.equal (v [| 9; 2; 3 |]) (v [| 1; 2; 3 |]));
  Alcotest.(check bool) "last element differs" false
    (Value.equal (v [| 1; 2; 9 |]) (v [| 1; 2; 3 |]));
  Alcotest.(check bool) "empty" true (Value.equal (v [||]) (v [||]))

let test_sched_wake_batch () =
  let s = Cgsim.Sched.create () in
  let wakers = ref [] in
  let resumed = ref 0 in
  for i = 1 to 3 do
    Cgsim.Sched.spawn s ~name:(Printf.sprintf "sleeper%d" i) (fun () ->
        Cgsim.Sched.park (fun w -> wakers := w :: !wakers);
        incr resumed)
  done;
  Cgsim.Sched.spawn s ~name:"waker" (fun () ->
      Alcotest.(check int) "all parked" 3 (List.length !wakers);
      (* Duplicate entries must be skipped as stale. *)
      Cgsim.Sched.wake_batch (!wakers @ !wakers);
      (* The woken sleepers are queued ahead of the yielding waker. *)
      Cgsim.Sched.yield ();
      Alcotest.(check int) "all resumed after one yield" 3 !resumed);
  let stats = Cgsim.Sched.run s in
  Alcotest.(check int) "all resumed" 3 !resumed;
  Alcotest.(check int) "completed" 4 stats.Cgsim.Sched.completed

(* ------------------------------------------------------------------ *)
(* Builder / Serialized / Runtime round trip                          *)
(* ------------------------------------------------------------------ *)

let scale_kernel =
  Cgsim.Kernel.define ~realm:Cgsim.Kernel.Aie ~name:"test_scale"
    [
      Cgsim.Kernel.in_port "in" Cgsim.Dtype.F32;
      Cgsim.Kernel.out_port "out" Cgsim.Dtype.F32;
    ]
    (fun b ->
      let i = Cgsim.Kernel.rd b 0 and o = Cgsim.Kernel.wr b 0 in
      while true do
        Cgsim.Port.put_f32 o (2.0 *. Cgsim.Port.get_f32 i)
      done)

let add_kernel =
  Cgsim.Kernel.define ~realm:Cgsim.Kernel.Aie ~name:"test_add"
    [
      Cgsim.Kernel.in_port "a" Cgsim.Dtype.F32;
      Cgsim.Kernel.in_port "b" Cgsim.Dtype.F32;
      Cgsim.Kernel.out_port "sum" Cgsim.Dtype.F32;
    ]
    (fun b ->
      let a = Cgsim.Kernel.rd b 0 and bb = Cgsim.Kernel.rd b 1 and o = Cgsim.Kernel.wr b 0 in
      while true do
        let x = Cgsim.Port.get_f32 a in
        let y = Cgsim.Port.get_f32 bb in
        Cgsim.Port.put_f32 o (x +. y)
      done)

let diamond_graph () =
  (* in -> scale -> (broadcast) -> two scales -> add -> out *)
  Cgsim.Builder.make ~name:"diamond" ~inputs:[ "x", Cgsim.Dtype.F32 ] (fun b conns ->
      let x = List.hd conns in
      let mid = Cgsim.Builder.net b Cgsim.Dtype.F32 in
      let l = Cgsim.Builder.net b Cgsim.Dtype.F32 in
      let r = Cgsim.Builder.net b Cgsim.Dtype.F32 in
      let out = Cgsim.Builder.net b Cgsim.Dtype.F32 in
      ignore (Cgsim.Builder.add_kernel b scale_kernel [ x; mid ]);
      ignore (Cgsim.Builder.add_kernel b scale_kernel [ mid; l ]);
      ignore (Cgsim.Builder.add_kernel b scale_kernel [ mid; r ]);
      ignore (Cgsim.Builder.add_kernel b add_kernel [ l; r; out ]);
      [ out ])

let test_builder_valid () =
  let g = diamond_graph () in
  match Cgsim.Serialized.validate_diags g with
  | [] -> ()
  | diags ->
    Alcotest.failf "diamond should validate: %s"
      (String.concat "; " (List.map Cgsim.Diagnostic.render diags))

let test_builder_broadcast_recorded () =
  let g = diamond_graph () in
  (* Net 1 is "mid": one writer, two readers. *)
  let mid = Cgsim.Serialized.net g 1 in
  Alcotest.(check int) "writers" 1 (List.length mid.Cgsim.Serialized.writers);
  Alcotest.(check int) "readers" 2 (List.length mid.Cgsim.Serialized.readers)

let mentions needle msg =
  let nl = String.length needle and hl = String.length msg in
  let rec at i = i + nl <= hl && (String.sub msg i nl = needle || at (i + 1)) in
  at 0

let test_builder_dtype_mismatch () =
  match
    Cgsim.Builder.make ~name:"bad" ~inputs:[ "x", Cgsim.Dtype.I32 ] (fun b conns ->
        let x = List.hd conns in
        let y = Cgsim.Builder.net b Cgsim.Dtype.F32 in
        ignore (Cgsim.Builder.add_kernel b scale_kernel [ x; y ]);
        [ y ])
  with
  | exception Cgsim.Builder.Construction_error _ -> ()
  | _ -> Alcotest.fail "connecting i32 connector to f32 port must fail"

let test_builder_arity_mismatch () =
  match
    Cgsim.Builder.make ~name:"bad" ~inputs:[ "x", Cgsim.Dtype.F32 ] (fun b conns ->
        ignore (Cgsim.Builder.add_kernel b add_kernel conns);
        conns)
  with
  | exception Cgsim.Builder.Construction_error _ -> ()
  | _ -> Alcotest.fail "wrong connector count must fail"

let test_builder_dangling () =
  match
    Cgsim.Builder.make ~name:"bad" ~inputs:[] (fun b _ ->
        let orphan = Cgsim.Builder.net b Cgsim.Dtype.F32 in
        let out = Cgsim.Builder.net b Cgsim.Dtype.F32 in
        ignore (Cgsim.Builder.add_kernel b scale_kernel [ orphan; out ]);
        [ out ])
  with
  | exception Cgsim.Builder.Construction_error _ -> ()
  | _ -> Alcotest.fail "kernel reading an unwritten connector must fail at freeze"

(* A window of 6 bytes cannot hold a whole number of 4-byte f32
   elements: freeze refuses the merged settings with CG-E004. *)
let test_builder_bad_window () =
  let odd_window =
    Cgsim.Kernel.define ~realm:Cgsim.Kernel.Aie ~name:"odd_window"
      [
        Cgsim.Kernel.in_port ~settings:(Cgsim.Settings.window 6) "in" Cgsim.Dtype.F32;
        Cgsim.Kernel.out_port "out" Cgsim.Dtype.F32;
      ]
      (fun _ -> ())
  in
  match
    Cgsim.Builder.make ~name:"bad_window" ~inputs:[ "x", Cgsim.Dtype.F32 ] (fun b conns ->
        let out = Cgsim.Builder.net b Cgsim.Dtype.F32 in
        ignore (Cgsim.Builder.add_kernel b odd_window [ List.hd conns; out ]);
        [ out ])
  with
  | exception Cgsim.Builder.Construction_error msg ->
    Alcotest.(check bool) ("names the code and the input: " ^ msg) true
      (mentions "CG-E004" msg && mentions "input \"x\"" msg)
  | _ -> Alcotest.fail "a window that splits an element must fail at freeze"

(* A window-8 port and a window-16 port on one net cannot merge: freeze
   refuses the graph with a CG-E004 that names the net, both ports and
   the net's source span. *)
let test_builder_settings_conflict () =
  let windowed name dir bytes =
    Cgsim.Kernel.define ~realm:Cgsim.Kernel.Aie ~name
      (match dir with
       | `Out ->
         [
           Cgsim.Kernel.in_port "in" Cgsim.Dtype.F32;
           Cgsim.Kernel.out_port ~settings:(Cgsim.Settings.window bytes) "out" Cgsim.Dtype.F32;
         ]
       | `In ->
         [
           Cgsim.Kernel.in_port ~settings:(Cgsim.Settings.window bytes) "in" Cgsim.Dtype.F32;
           Cgsim.Kernel.out_port "out" Cgsim.Dtype.F32;
         ])
      (fun _ -> ())
  in
  let w8 = windowed "w8" `Out 8 and w16 = windowed "w16" `In 16 in
  let span = Cgsim.Srcspan.make ~file:"join.cgc" ~line:4 ~col:5 () in
  match
    Cgsim.Builder.make ~name:"join" ~inputs:[ "x", Cgsim.Dtype.F32 ] (fun b conns ->
        let mid = Cgsim.Builder.net ~src:span b Cgsim.Dtype.F32 in
        let out = Cgsim.Builder.net b Cgsim.Dtype.F32 in
        ignore (Cgsim.Builder.add_kernel b w8 [ List.hd conns; mid ]);
        ignore (Cgsim.Builder.add_kernel b w16 [ mid; out ]);
        [ out ])
  with
  | exception Cgsim.Builder.Construction_error msg ->
    List.iter
      (fun needle ->
        Alcotest.(check bool) ("names " ^ needle ^ ": " ^ msg) true (mentions needle msg))
      [
        "join.cgc:4:5: error[CG-E004]";
        "net1 (w8_0.out, w16_0.in)";
        "window<8> vs window<16> (ports w8_0.out and w16_0.in)";
      ]
  | _ -> Alcotest.fail "a window-8 and a window-16 port on one net must fail at freeze"

(* A kernel may read a connector that is also a global output, whether
   [output] is declared before or after the read: both orders build one
   graph, and both simulators run it alike. *)
let test_builder_read_after_output () =
  let build ~output_first =
    let b = Cgsim.Builder.create ~name:"tap_mid" in
    let x = Cgsim.Builder.input b ~name:"x" Cgsim.Dtype.F32 in
    let mid = Cgsim.Builder.net b Cgsim.Dtype.F32 in
    let y = Cgsim.Builder.net b Cgsim.Dtype.F32 in
    ignore (Cgsim.Builder.add_kernel b scale_kernel [ x; mid ]);
    if output_first then Cgsim.Builder.output b ~name:"mid" mid;
    ignore (Cgsim.Builder.add_kernel b scale_kernel [ mid; y ]);
    if not output_first then Cgsim.Builder.output b ~name:"mid" mid;
    Cgsim.Builder.output b ~name:"y" y;
    Cgsim.Builder.freeze b
  in
  let first = build ~output_first:true and after = build ~output_first:false in
  Alcotest.(check bool) "one topology" true (Cgsim.Serialized.equal_topology first after);
  let run sim g =
    let mid, mid_contents = Cgsim.Io.f32_buffer () in
    let y, y_contents = Cgsim.Io.f32_buffer () in
    let sources = [ Cgsim.Io.of_f32_array [| 1.0; 2.0; 3.0 |] ] and sinks = [ mid; y ] in
    (match sim with
     | `Cgsim -> ignore (Cgsim.Runtime.execute_exn g ~sources ~sinks)
     | `X86sim -> ignore (Cgsim.Runtime.stats_exn (X86sim.Sim.run g ~sources ~sinks)));
    mid_contents (), y_contents ()
  in
  List.iter
    (fun (what, sim, g) ->
      let mid, y = run sim g in
      Alcotest.(check (array (float 0.))) (what ^ ": mid") [| 2.0; 4.0; 6.0 |] mid;
      Alcotest.(check (array (float 0.))) (what ^ ": y") [| 4.0; 8.0; 12.0 |] y)
    [
      "cgsim, output first", `Cgsim, first;
      "cgsim, output after", `Cgsim, after;
      "x86sim, output first", `X86sim, first;
      "x86sim, output after", `X86sim, after;
    ]

let test_builder_cross_builder_conn () =
  let b1 = Cgsim.Builder.create ~name:"g1" in
  let b2 = Cgsim.Builder.create ~name:"g2" in
  let c1 = Cgsim.Builder.net b1 Cgsim.Dtype.F32 in
  match Cgsim.Builder.attach_attributes b2 c1 [] with
  | exception Cgsim.Builder.Construction_error _ -> ()
  | () -> Alcotest.fail "foreign connector must be rejected"

let test_runtime_diamond () =
  let g = diamond_graph () in
  let sink, contents = Cgsim.Io.f32_buffer () in
  let input = Cgsim.Io.of_f32_array [| 1.0; 2.0; 3.0 |] in
  let _ = Cgsim.Runtime.execute_exn g ~sources:[ input ] ~sinks:[ sink ] in
  (* x -> 2x -> (4x, 4x) -> 8x *)
  Alcotest.(check (array (float 1e-6))) "diamond output" [| 8.0; 16.0; 24.0 |] (contents ())

let test_runtime_io_count_mismatch () =
  let g = diamond_graph () in
  match Cgsim.Runtime.execute_exn g ~sources:[] ~sinks:[ Cgsim.Io.null () ] with
  | exception Cgsim.Runtime.Runtime_error _ -> ()
  | _ -> Alcotest.fail "source count mismatch must fail"

(* A scale-by-[factor] kernel named [dup]: each call is a new definition. *)
let dup_kernel factor =
  Cgsim.Kernel.define ~realm:Cgsim.Kernel.Aie ~name:"dup"
    [ Cgsim.Kernel.in_port "in" Cgsim.Dtype.F32; Cgsim.Kernel.out_port "out" Cgsim.Dtype.F32 ]
    (fun b ->
      let i = Cgsim.Kernel.rd b 0 and o = Cgsim.Kernel.wr b 0 in
      while true do
        Cgsim.Port.put_f32 o (factor *. Cgsim.Port.get_f32 i)
      done)

let dup_chain ~name kernels =
  Cgsim.Builder.make ~name ~inputs:[ "x", Cgsim.Dtype.F32 ] (fun b conns ->
      [
        List.fold_left
          (fun src k ->
            let dst = Cgsim.Builder.net b Cgsim.Dtype.F32 in
            ignore (Cgsim.Builder.add_kernel b k [ src; dst ]);
            dst)
          (List.hd conns) kernels;
      ])

(* One name, one definition, per graph: generated code has one class per
   kernel name, so freeze refuses a graph that holds two. *)
let test_builder_one_definition_per_name () =
  match dup_chain ~name:"two_dups" [ dup_kernel 2.0; dup_kernel 3.0 ] with
  | exception Cgsim.Builder.Construction_error msg ->
    Alcotest.(check bool) ("names both instances: " ^ msg) true
      (mentions "CG-E007" msg && mentions "dup_0" msg && mentions "dup_1" msg)
  | _ -> Alcotest.fail "freeze must reject two kernels under one name"

(* Kernels belong to a graph, not to the process: two graphs in one
   process each hold a different kernel named [dup], and each runs its
   own under both simulators. *)
let test_runtime_kernels_per_graph () =
  let doubling = dup_chain ~name:"doubling" [ dup_kernel 2.0 ] in
  let tripling = dup_chain ~name:"tripling" [ dup_kernel 3.0 ] in
  let input = [| 1.0; 2.0; 5.0 |] in
  List.iter
    (fun (g, expected) ->
      let what = g.Cgsim.Serialized.gname in
      let sink, contents = Cgsim.Io.f32_buffer () in
      ignore
        (Cgsim.Runtime.execute_exn g ~sources:[ Cgsim.Io.of_f32_array input ] ~sinks:[ sink ]);
      Alcotest.(check (array (float 0.))) (what ^ " under cgsim") expected (contents ());
      let sink, contents = Cgsim.Io.f32_buffer () in
      ignore
        (Cgsim.Runtime.stats_exn
           (X86sim.Sim.run g ~sources:[ Cgsim.Io.of_f32_array input ] ~sinks:[ sink ]));
      Alcotest.(check (array (float 0.))) (what ^ " under x86sim") expected (contents ()))
    [ doubling, [| 2.0; 4.0; 10.0 |]; tripling, [| 3.0; 6.0; 15.0 |] ]

type Cgsim.Kernel.context += Tag of string

(* (port name, context read) per element, appended by [context_probe]
   from whichever fiber or domain runs it. *)
let context_log = ref []

let context_log_lock = Mutex.create ()

(* Reads its binding's context once per element, yielding between the
   read and the write so two instances interleave under cgsim. *)
let context_probe =
  Cgsim.Kernel.define ~realm:Cgsim.Kernel.Noextract ~name:"context_probe"
    [ Cgsim.Kernel.in_port "in" Cgsim.Dtype.I32; Cgsim.Kernel.out_port "out" Cgsim.Dtype.I32 ]
    (fun b ->
      let i = Cgsim.Kernel.rd b 0 and o = Cgsim.Kernel.wr b 0 in
      let read () =
        match b.Cgsim.Kernel.context with
        | Tag t -> t
        | Cgsim.Kernel.No_context -> "none"
        | _ -> "other"
      in
      while true do
        let x = Cgsim.Port.get_int i in
        Mutex.protect context_log_lock (fun () ->
            context_log := (i.Cgsim.Port.r_name, read ()) :: !context_log);
        Cgsim.Sched.yield ();
        Cgsim.Port.put_int o x
      done)

(* Two instances bound with different contexts each read their own on
   every element, across yields that interleave them; x86sim binds
   every kernel with [No_context]. *)
let test_runtime_kernel_contexts () =
  let g =
    Cgsim.Builder.make ~name:"contexts" ~inputs:[ "x", Cgsim.Dtype.I32 ] (fun b conns ->
        let mid = Cgsim.Builder.net b Cgsim.Dtype.I32 and out = Cgsim.Builder.net b Cgsim.Dtype.I32 in
        ignore (Cgsim.Builder.add_kernel b ~inst:"ka" context_probe [ List.hd conns; mid ]);
        ignore (Cgsim.Builder.add_kernel b ~inst:"kb" context_probe [ mid; out ]);
        [ out ])
  in
  let input = [| 1; 2; 3 |] in
  let run_log f =
    context_log := [];
    let sink, contents = Cgsim.Io.int_buffer () in
    f ~sources:[ Cgsim.Io.of_int_array Cgsim.Dtype.I32 input ] ~sinks:[ sink ];
    Alcotest.(check (array int)) "passed through" input (contents ());
    List.rev !context_log
  in
  let context (inst : Cgsim.Serialized.kernel_inst) =
    Tag (if inst.Cgsim.Serialized.inst_name = "ka" then "x" else "y")
  in
  let ctx = Cgsim.Runtime.instantiate ~context g in
  let each tag_a tag_b =
    List.init 3 (fun _ -> "ka.in", tag_a) @ List.init 3 (fun _ -> "kb.in", tag_b)
  in
  let log = run_log (fun ~sources ~sinks -> ignore (Cgsim.Runtime.run_exn ctx ~sources ~sinks)) in
  Alcotest.(check (list (pair string string))) "cgsim: each kernel its own context"
    (each "x" "y") (List.sort compare log);
  let positions port =
    List.filter_map (fun (i, (p, _)) -> if p = port then Some i else None)
      (List.mapi (fun i e -> i, e) log)
  in
  Alcotest.(check bool) "cgsim: kb reads before ka's last read" true
    (List.hd (positions "kb.in") < List.hd (List.rev (positions "ka.in")));
  Alcotest.(check (list (pair string string))) "x86sim: no context"
    (each "none" "none")
    (List.sort compare
       (run_log (fun ~sources ~sinks ->
            ignore (Cgsim.Runtime.stats_exn (X86sim.Sim.run g ~sources ~sinks)))))

let test_runtime_single_shot () =
  let g = diamond_graph () in
  let t = Cgsim.Runtime.instantiate g in
  let _ =
    Cgsim.Runtime.run t ~sources:[ Cgsim.Io.of_f32_array [| 1.0 |] ] ~sinks:[ Cgsim.Io.null () ]
  in
  match
    Cgsim.Runtime.run t ~sources:[ Cgsim.Io.of_f32_array [| 1.0 |] ] ~sinks:[ Cgsim.Io.null () ]
  with
  | exception Cgsim.Runtime.Runtime_error _ -> ()
  | _ -> Alcotest.fail "contexts are single-shot"

let test_runtime_rtp () =
  (* Runtime-parameter source delivers exactly one scalar. *)
  let gain_kernel =
    Cgsim.Kernel.define ~realm:Cgsim.Kernel.Aie ~name:"test_gain"
      [
        Cgsim.Kernel.in_port "gain" Cgsim.Dtype.F32 ~settings:Cgsim.Settings.rtp;
        Cgsim.Kernel.in_port "in" Cgsim.Dtype.F32;
        Cgsim.Kernel.out_port "out" Cgsim.Dtype.F32;
      ]
      (fun b ->
        let gain = Cgsim.Port.get_f32 (Cgsim.Kernel.rd b 0) in
        let i = Cgsim.Kernel.rd b 1 and o = Cgsim.Kernel.wr b 0 in
        while true do
          Cgsim.Port.put_f32 o (gain *. Cgsim.Port.get_f32 i)
        done)
  in
  let g =
    Cgsim.Builder.make ~name:"rtp_graph"
      ~inputs:[ "gain", Cgsim.Dtype.F32; "x", Cgsim.Dtype.F32 ]
      (fun b conns ->
        match conns with
        | [ gain; x ] ->
          let out = Cgsim.Builder.net b Cgsim.Dtype.F32 in
          ignore (Cgsim.Builder.add_kernel b gain_kernel [ gain; x; out ]);
          [ out ]
        | _ -> assert false)
  in
  let sink, contents = Cgsim.Io.f32_buffer () in
  let _ =
    Cgsim.Runtime.execute_exn g
      ~sources:[ Cgsim.Io.rtp (Cgsim.Value.Float 3.0); Cgsim.Io.of_f32_array [| 1.0; 2.0 |] ]
      ~sinks:[ sink ]
  in
  Alcotest.(check (array (float 1e-6))) "rtp applied" [| 3.0; 6.0 |] (contents ())

let prop_pipeline_random =
  (* A random-length chain of scale kernels doubles each element n times. *)
  QCheck.Test.make ~name:"runtime: random scale chains compute 2^n * x" ~count:25
    QCheck.(pair (int_range 1 6) (list_of_size (QCheck.Gen.int_range 0 20) (int_range (-100) 100)))
    (fun (depth, xs) ->
      let g =
        Cgsim.Builder.make ~name:"chain" ~inputs:[ "x", Cgsim.Dtype.F32 ] (fun b conns ->
            let rec build prev = function
              | 0 -> prev
              | n ->
                let next = Cgsim.Builder.net b Cgsim.Dtype.F32 in
                ignore (Cgsim.Builder.add_kernel b scale_kernel [ prev; next ]);
                build next (n - 1)
            in
            [ build (List.hd conns) depth ])
      in
      let sink, contents = Cgsim.Io.f32_buffer () in
      let input = Cgsim.Io.of_f32_array (Array.of_list (List.map float_of_int xs)) in
      let _ = Cgsim.Runtime.execute_exn g ~sources:[ input ] ~sinks:[ sink ] in
      let expect = List.map (fun x -> float_of_int x *. (2.0 ** float_of_int depth)) xs in
      contents () = Array.of_list expect)

let test_serialized_topology_equal () =
  let a = diamond_graph () in
  let b = diamond_graph () in
  Alcotest.(check bool) "same construction, same topology" true
    (Cgsim.Serialized.equal_topology a b);
  let c =
    Cgsim.Builder.make ~name:"other" ~inputs:[ "x", Cgsim.Dtype.F32 ] (fun b conns ->
        let out = Cgsim.Builder.net b Cgsim.Dtype.F32 in
        ignore (Cgsim.Builder.add_kernel b scale_kernel [ List.hd conns; out ]);
        [ out ])
  in
  Alcotest.(check bool) "different graphs differ" false (Cgsim.Serialized.equal_topology a c)

let test_profile_fraction () =
  (* The Section 5.2 claim: cooperative scheduling keeps sync overhead
     negligible, i.e. the kernel fraction dominates. *)
  let busy =
    Cgsim.Kernel.define ~realm:Cgsim.Kernel.Aie ~name:"test_busy"
      [ Cgsim.Kernel.in_port "in" Cgsim.Dtype.F32; Cgsim.Kernel.out_port "out" Cgsim.Dtype.F32 ]
      (fun b ->
        let i = Cgsim.Kernel.rd b 0 and o = Cgsim.Kernel.wr b 0 in
        while true do
          let x = Cgsim.Port.get_f32 i in
          let acc = ref x in
          for _ = 1 to 5000 do
            acc := !acc *. 1.0000001 +. 0.5
          done;
          Cgsim.Port.put_f32 o !acc
        done)
  in
  let g =
    Cgsim.Builder.make ~name:"busy_graph" ~inputs:[ "x", Cgsim.Dtype.F32 ] (fun b conns ->
        let out = Cgsim.Builder.net b Cgsim.Dtype.F32 in
        ignore (Cgsim.Builder.add_kernel b busy [ List.hd conns; out ]);
        [ out ])
  in
  let sink = Cgsim.Io.null () in
  let input = Cgsim.Io.of_f32_array (Array.init 500 float_of_int) in
  let stats = Cgsim.Runtime.execute_exn g ~sources:[ input ] ~sinks:[ sink ] in
  Alcotest.(check bool) "kernel fraction > 0.9" true (Cgsim.Sched.kernel_fraction stats > 0.9)

(* ------------------------------------------------------------------ *)
(* Graph_text codec                                                   *)
(* ------------------------------------------------------------------ *)

(* [cgx dump] prints graphs with Graph_text; this pins its output. *)
let test_graph_text_diamond_golden () =
  Alcotest.(check string) "diamond dump"
    {|cgsim-graph 1
graph diamond
kernel test_scale_0 test_scale aie
  port in in f32
  port out out f32
  nets 0 1
kernel test_scale_1 test_scale aie
  port in in f32
  port out out f32
  nets 1 2
kernel test_scale_2 test_scale aie
  port in in f32
  port out out f32
  nets 1 3
kernel test_add_0 test_add aie
  port a in f32
  port b in f32
  port sum out f32
  nets 2 3 4
net 0 f32
  reader 0.0
  input x
net 1 f32
  writer 0.1
  reader 1.0
  reader 2.0
net 2 f32
  writer 1.1
  reader 3.0
net 3 f32
  writer 2.1
  reader 3.1
net 4 f32
  writer 3.2
  output out0
inputs 0
outputs 4
|}
    (Cgsim.Graph_text.to_string (diamond_graph ()))

let test_graph_text_dtype_spellings () =
  List.iter
    (fun (t, spelled) ->
      Alcotest.(check string) spelled spelled (Cgsim.Graph_text.dtype_to_string t))
    [
      Cgsim.Dtype.F32, "f32";
      Cgsim.Dtype.U32, "u32";
      Cgsim.Dtype.Vector (Cgsim.Dtype.F32, 16), "v16f32";
      ( Cgsim.Dtype.Struct
          [ "pix", Cgsim.Dtype.Vector (Cgsim.Dtype.U8, 4); "xf", Cgsim.Dtype.U16; "yf", Cgsim.Dtype.U16 ],
        "{pix:v4u8;xf:u16;yf:u16}" );
      Cgsim.Dtype.Struct [ "a", Cgsim.Dtype.Struct [ "b", Cgsim.Dtype.F64 ] ], "{a:{b:f64}}";
    ]

let test_io_rtp_sink () =
  let g = diamond_graph () in
  let sink, last = Cgsim.Io.rtp_sink () in
  let _ =
    Cgsim.Runtime.execute_exn g ~sources:[ Cgsim.Io.of_f32_array [| 1.0; 2.0 |] ] ~sinks:[ sink ]
  in
  match last () with
  | Some (Cgsim.Value.Float f) -> Alcotest.(check (float 1e-6)) "last value" 16.0 f
  | _ -> Alcotest.fail "rtp sink should hold the final scalar"

(* ------------------------------------------------------------------ *)
(* Queue transfers, wiring verification, Pool                         *)
(* ------------------------------------------------------------------ *)

(* Push 0..n-1 through a 1:1 capacity-8 queue with a mix of element and
   block operations on both sides: block writes larger than half the ring
   exercise chunking, reads alternate get / drain / block read. *)
let test_bqueue_mixed_transfer () =
  let n = 200 in
  let q = Cgsim.Bqueue.create ~name:"xfer" ~dtype:Cgsim.Dtype.I32 ~capacity:8 () in
  let p = Cgsim.Bqueue.add_producer q in
  let c = Cgsim.Bqueue.add_consumer q in
  let got = ref [] in
  let s = Cgsim.Sched.create () in
  Cgsim.Sched.spawn s ~name:"producer" (fun () ->
      let i = ref 0 in
      while !i < n do
        if !i mod 3 = 0 && n - !i >= 7 then begin
          put_values p (Array.init 7 (fun k -> Cgsim.Value.Int (!i + k)));
          i := !i + 7
        end
        else begin
          Cgsim.Bqueue.put p (Cgsim.Value.Int !i);
          incr i
        end
      done;
      Cgsim.Bqueue.producer_done p);
  Cgsim.Sched.spawn s ~name:"consumer" (fun () ->
      let step = ref 0 in
      let rec loop () =
        (match !step mod 3 with
         | 0 -> got := Cgsim.Value.to_int (Cgsim.Bqueue.get c) :: !got
         | 1 ->
           Array.iter
             (fun v -> got := Cgsim.Value.to_int v :: !got)
             (get_some c ~max:5)
         | _ ->
           if Cgsim.Bqueue.occupancy q >= 2 then
             Array.iter
               (fun v -> got := Cgsim.Value.to_int v :: !got)
               (get_values c 2)
           else got := Cgsim.Value.to_int (Cgsim.Bqueue.get c) :: !got);
        incr step;
        loop ()
      in
      loop ());
  ignore (Cgsim.Sched.run s);
  Alcotest.(check (list int)) "0..n-1 in order" (List.init n Fun.id) (List.rev !got)

let test_runtime_diamond_closed_form () =
  (* The diamond mixes 1:1 edges with a broadcast net; over a stream
     longer than the default queue depth it must deliver exactly
     x -> 8x (all values are exact in f32). *)
  let sink, contents = Cgsim.Io.f32_buffer () in
  let input = Array.init 256 float_of_int in
  let _ =
    Cgsim.Runtime.execute_exn (diamond_graph ())
      ~sources:[ Cgsim.Io.of_f32_array input ] ~sinks:[ sink ]
  in
  Alcotest.(check (array (float 0.0))) "diamond closed form"
    (Array.map (fun x -> 8.0 *. x) input) (contents ())

(* ------------------------------------------------------------------ *)
(* Compile: pre-flight lint, and rate-matched chains                  *)
(* ------------------------------------------------------------------ *)

let rated_body_ran = ref false

let rated_scale =
  Cgsim.Kernel.define ~realm:Cgsim.Kernel.Aie ~name:"test_rated_scale" ~pure:true
    ~rates:[ "in", 1; "out", 1 ]
    [
      Cgsim.Kernel.in_port "in" Cgsim.Dtype.F32;
      Cgsim.Kernel.out_port "out" Cgsim.Dtype.F32;
    ]
    (fun b ->
      rated_body_ran := true;
      let i = Cgsim.Kernel.rd b 0 and o = Cgsim.Kernel.wr b 0 in
      while true do
        Cgsim.Port.put_f32 o (2.0 *. Cgsim.Port.get_f32 i)
      done)

(* 2:1 decimator: on one branch of a diamond it makes the graph
   unbalanceable. *)
let rated_decim =
  Cgsim.Kernel.define ~realm:Cgsim.Kernel.Aie ~name:"test_rated_decim" ~pure:true
    ~rates:[ "in", 2; "out", 1 ]
    [
      Cgsim.Kernel.in_port "in" Cgsim.Dtype.F32;
      Cgsim.Kernel.out_port "out" Cgsim.Dtype.F32;
    ]
    (fun b ->
      rated_body_ran := true;
      let i = Cgsim.Kernel.rd b 0 and o = Cgsim.Kernel.wr b 0 in
      while true do
        let v = Cgsim.Port.get_f32 i in
        ignore (Cgsim.Port.get_f32 i);
        Cgsim.Port.put_f32 o v
      done)

let rated_add =
  Cgsim.Kernel.define ~realm:Cgsim.Kernel.Aie ~name:"test_rated_add" ~pure:true
    ~rates:[ "a", 1; "b", 1; "sum", 1 ]
    [
      Cgsim.Kernel.in_port "a" Cgsim.Dtype.F32;
      Cgsim.Kernel.in_port "b" Cgsim.Dtype.F32;
      Cgsim.Kernel.out_port "sum" Cgsim.Dtype.F32;
    ]
    (fun b ->
      rated_body_ran := true;
      let a = Cgsim.Kernel.rd b 0 and bb = Cgsim.Kernel.rd b 1 and o = Cgsim.Kernel.wr b 0 in
      while true do
        let x = Cgsim.Port.get_f32 a in
        Cgsim.Port.put_f32 o (x +. Cgsim.Port.get_f32 bb)
      done)

(* Multiply each element of a [rate]-wide window by [factor].  Kernels
   are interned per (rate, factor): a chain that repeats a factor holds
   one definition under its name, as a graph must (CG-E007). *)
let rated_scale_cache : (int * int, Cgsim.Kernel.t) Hashtbl.t = Hashtbl.create 16

let window_scale ~rate ~factor =
  match Hashtbl.find_opt rated_scale_cache (rate, factor) with
  | Some k -> k
  | None ->
    let k =
      Cgsim.Kernel.define ~realm:Cgsim.Kernel.Aie
        ~name:(Printf.sprintf "test_window_scale_r%d_f%d" rate factor)
        ~pure:true ~rates:[ "in", rate; "out", rate ]
        [ Cgsim.Kernel.in_port "in" Cgsim.Dtype.F32; Cgsim.Kernel.out_port "out" Cgsim.Dtype.F32 ]
        (fun b ->
          let i = Cgsim.Kernel.rd b 0 and o = Cgsim.Kernel.wr b 0 in
          let f = float_of_int factor in
          let w = Array.make rate 0.0 in
          while true do
            Cgsim.Port.get_window_f32 i w;
            for j = 0 to rate - 1 do
              w.(j) <- w.(j) *. f
            done;
            Cgsim.Port.put_window_f32 o w
          done)
    in
    Hashtbl.add rated_scale_cache (rate, factor) k;
    k

(* Closed form of a scale chain: the source rounds its input to f32 and
   every stage rounds its product back to f32 on the way into the ring. *)
let expected_scaled factors input =
  Array.map
    (fun x ->
      List.fold_left
        (fun acc f -> Cgsim.Value.round_f32 (acc *. float_of_int f))
        (Cgsim.Value.round_f32 x) factors)
    input

(* A random rate-matched chain in -> scale f0 -> ... -> scale fn -> out:
   2-5 kernels sharing one window rate (1, 2, 4 or 8), 1-8 windows of
   input.  The runtime's output must equal the closed form bit for bit. *)
let prop_rate_matched_chains =
  let gen =
    QCheck.Gen.(
      let* factors = list_size (int_range 2 5) (int_range 1 4) in
      let* rate = map (fun e -> 1 lsl e) (int_range 0 3) in
      let* windows = int_range 1 8 in
      let+ input = array_size (return (rate * windows)) (float_range (-100.0) 100.0) in
      factors, rate, input)
  in
  QCheck.Test.make ~count:25 ~name:"runtime: random rate-matched chains match the closed form"
    (QCheck.make gen)
    (fun (factors, rate, input) ->
      let g =
        Cgsim.Builder.make
          ~name:(Printf.sprintf "rated_chain_r%d_n%d" rate (List.length factors))
          ~inputs:[ "x", Cgsim.Dtype.F32 ]
          (fun b conns ->
            let last =
              List.fold_left
                (fun src factor ->
                  let dst = Cgsim.Builder.net b Cgsim.Dtype.F32 in
                  ignore (Cgsim.Builder.add_kernel b (window_scale ~rate ~factor) [ src; dst ]);
                  dst)
                (List.hd conns) factors
            in
            [ last ])
      in
      let sink, contents = Cgsim.Io.f32_buffer () in
      ignore
        (Cgsim.Runtime.execute_exn g ~sources:[ Cgsim.Io.of_f32_array input ] ~sinks:[ sink ]);
      let out = contents () in
      let expected = expected_scaled factors input in
      Array.length out = Array.length expected && Array.for_all2 Float.equal out expected)

let test_compile_lint_error_refuses () =
  (* m is broadcast to a 2:1 decimator and a 1:1 scale that meet again
     at a 1:1 add: no repetition vector balances both paths. *)
  let g =
    Cgsim.Builder.make ~name:"rated_unbalanced" ~inputs:[ "x", Cgsim.Dtype.F32 ]
      (fun b conns ->
        let m = Cgsim.Builder.net b Cgsim.Dtype.F32 in
        let l = Cgsim.Builder.net b Cgsim.Dtype.F32 in
        let r = Cgsim.Builder.net b Cgsim.Dtype.F32 in
        let out = Cgsim.Builder.net b Cgsim.Dtype.F32 in
        ignore (Cgsim.Builder.add_kernel b rated_scale [ List.hd conns; m ]);
        ignore (Cgsim.Builder.add_kernel b rated_decim [ m; l ]);
        ignore (Cgsim.Builder.add_kernel b rated_scale [ m; r ]);
        ignore (Cgsim.Builder.add_kernel b rated_add [ l; r; out ]);
        [ out ])
  in
  rated_body_ran := false;
  (match
     Cgsim.Runtime.execute ~config:Cgsim.Run_config.(with_lint `Error default) g
       ~sources:[ Cgsim.Io.of_f32_array (Array.make 8 1.0) ]
       ~sinks:[ Cgsim.Io.null () ]
   with
   | exception Cgsim.Runtime.Runtime_error msg ->
     let nl = String.length "CG-E101" in
     let rec at i =
       i + nl <= String.length msg && (String.sub msg i nl = "CG-E101" || at (i + 1))
     in
     Alcotest.(check bool) ("names the imbalance: " ^ msg) true (at 0)
   | _ -> Alcotest.fail "an unbalanced graph must be refused at lint `Error");
  Alcotest.(check bool) "no kernel body ran" false !rated_body_ran

(* Both simulators compile through Runtime.compile, so both refuse a
   miswired graph, with one message naming [needles]. *)
let refused_by_both what g ~sources ~sinks needles =
  let msg =
    match Cgsim.Runtime.execute_exn g ~sources:(sources ()) ~sinks:(sinks ()) with
    | exception Cgsim.Runtime.Runtime_error msg -> msg
    | _ -> Alcotest.failf "cgsim must refuse the %s graph before running" what
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (what ^ " names " ^ needle ^ ": " ^ msg) true (mentions needle msg))
    needles;
  match X86sim.Sim.run g ~sources:(sources ()) ~sinks:(sinks ()) with
  | exception Cgsim.Runtime.Runtime_error x86 ->
    Alcotest.(check string) (what ^ " under x86sim") msg x86
  | _ -> Alcotest.failf "x86sim must refuse the %s graph before running" what

let leaky_base () =
  Cgsim.Builder.make ~name:"leaky" ~inputs:[ "x", Cgsim.Dtype.F32 ] (fun b conns ->
      let out = Cgsim.Builder.net b Cgsim.Dtype.F32 in
      ignore (Cgsim.Builder.add_kernel b scale_kernel [ List.hd conns; out ]);
      [ out ])

let test_runtime_missing_consumer () =
  (* Hand-build a graph whose kernel output net has neither readers nor a
     global output: structurally valid, but every element written would
     sit unretired forever.  The wiring check must name the port. *)
  let g = leaky_base () in
  let leaky_net (n : Cgsim.Serialized.net) =
    if n.Cgsim.Serialized.global_output = None then n
    else { n with Cgsim.Serialized.global_output = None }
  in
  let g =
    { g with Cgsim.Serialized.nets = Array.map leaky_net g.Cgsim.Serialized.nets;
             output_order = [||] }
  in
  refused_by_both "consumer-less" g
    ~sources:(fun () -> [ Cgsim.Io.of_f32_array [| 1.0 |] ])
    ~sinks:(fun () -> [])
    [ "CG-E008"; "test_scale_0.out" ]

let test_runtime_missing_producer () =
  (* A global output net that no kernel writes: its sink would wait for
     a close that never comes.  Builder.freeze refuses it... *)
  (match
     Cgsim.Builder.make ~name:"ghostly" ~inputs:[ "x", Cgsim.Dtype.F32 ] (fun b conns ->
         let out = Cgsim.Builder.net b Cgsim.Dtype.F32 in
         ignore (Cgsim.Builder.add_kernel b scale_kernel [ List.hd conns; out ]);
         let ghost = Cgsim.Builder.net b Cgsim.Dtype.F32 in
         Cgsim.Builder.output b ~name:"ghost" ghost;
         [ out ])
   with
   | exception Cgsim.Builder.Construction_error msg ->
     Alcotest.(check bool) ("freeze names the code and the output: " ^ msg) true
       (mentions "CG-E005" msg && mentions "output \"ghost\"" msg)
   | _ -> Alcotest.fail "freeze must refuse an output nothing writes");
  (* ...and so does compile, for the same graph assembled by hand. *)
  let g = leaky_base () in
  let id = Array.length g.Cgsim.Serialized.nets in
  let ghost =
    {
      (g.Cgsim.Serialized.nets.(id - 1)) with
      Cgsim.Serialized.net_id = id;
      writers = [];
      readers = [];
      global_input = None;
      global_output = Some "ghost";
    }
  in
  let g =
    {
      g with
      Cgsim.Serialized.nets = Array.append g.Cgsim.Serialized.nets [| ghost |];
      output_order = Array.append g.Cgsim.Serialized.output_order [| id |];
    }
  in
  refused_by_both "producer-less" g
    ~sources:(fun () -> [ Cgsim.Io.of_f32_array [| 1.0 |] ])
    ~sinks:(fun () -> [ Cgsim.Io.null (); Cgsim.Io.null () ])
    [ "CG-E005"; Printf.sprintf "output \"ghost\" (net%d)" id ]

(* A kernel port bound, by its [port_nets], to a net that does not list
   it: the runtimes would wire the port to the net while the analyses,
   which read the nets' lists, would not see it.  The net keeps another
   reader, so nothing else about the graph is wrong. *)
let test_unlisted_port () =
  let g =
    Cgsim.Builder.make ~name:"unlisted" ~inputs:[ "x", Cgsim.Dtype.F32 ] (fun b conns ->
        let mid = Cgsim.Builder.net b Cgsim.Dtype.F32 in
        ignore (Cgsim.Builder.add_kernel b scale_kernel [ List.hd conns; mid ]);
        let y0 = Cgsim.Builder.net b Cgsim.Dtype.F32 in
        let y1 = Cgsim.Builder.net b Cgsim.Dtype.F32 in
        ignore (Cgsim.Builder.add_kernel b scale_kernel [ mid; y0 ]);
        ignore (Cgsim.Builder.add_kernel b scale_kernel [ mid; y1 ]);
        [ y0; y1 ])
  in
  let k1 = g.Cgsim.Serialized.kernels.(1) in
  Alcotest.(check string) "second instance" "test_scale_1" k1.Cgsim.Serialized.inst_name;
  let mid = k1.Cgsim.Serialized.port_nets.(0) in
  let drop (n : Cgsim.Serialized.net) =
    if n.Cgsim.Serialized.net_id <> mid then n
    else
      {
        n with
        Cgsim.Serialized.readers =
          List.filter
            (fun (ep : Cgsim.Serialized.endpoint) -> ep.Cgsim.Serialized.kernel_idx <> 1)
            n.Cgsim.Serialized.readers;
      }
  in
  let g = { g with Cgsim.Serialized.nets = Array.map drop g.Cgsim.Serialized.nets } in
  (match Cgsim.Serialized.validate_diags g with
   | [ d ] ->
     Alcotest.(check string) "code" "CG-E003" d.Cgsim.Diagnostic.code;
     Alcotest.(check (list string)) "kernel" [ "test_scale_1" ] d.Cgsim.Diagnostic.kernels;
     Alcotest.(check (list int)) "net" [ mid ] d.Cgsim.Diagnostic.net_ids;
     Alcotest.(check bool) ("names the port: " ^ d.Cgsim.Diagnostic.message) true
       (mentions "port in" d.Cgsim.Diagnostic.message)
   | ds ->
     Alcotest.failf "expected one CG-E003, got %d: %s" (List.length ds)
       (String.concat "; " (List.map Cgsim.Diagnostic.render ds)));
  refused_by_both "unlisted-port" g
    ~sources:(fun () -> [ Cgsim.Io.of_f32_array [| 1.0 |] ])
    ~sinks:(fun () -> [ Cgsim.Io.null (); Cgsim.Io.null () ])
    [ "CG-E003"; "test_scale_1 port in" ]

let pool_io_for_request contents r =
  let sink, c = Cgsim.Io.f32_buffer () in
  contents.(r) <- c;
  let input = Array.init 8 (fun i -> float_of_int ((r * 8) + i)) in
  [ Cgsim.Io.of_f32_array input ], [ sink ]

let pool_expected r = Array.init 8 (fun i -> 8.0 *. float_of_int ((r * 8) + i))

let test_pool_single_domain_matches_sequential () =
  let requests = 5 in
  let contents = Array.make requests (fun () -> [||]) in
  let stats =
    Cgsim.Pool.run ~domains:1 ~requests ~io:(pool_io_for_request contents) (diamond_graph ())
  in
  Array.iter
    (fun (res : Cgsim.Pool.request_result) ->
      (match res.Cgsim.Pool.outcome with
       | Cgsim.Runtime.Completed _ -> ()
       | o ->
         Alcotest.failf "request %d failed: %a" res.Cgsim.Pool.req_id Cgsim.Runtime.pp_outcome o);
      Alcotest.(check int) "ran on domain 0" 0 res.Cgsim.Pool.domain)
    stats.Cgsim.Pool.results;
  (* Outputs equal what a sequential loop over Runtime.execute yields. *)
  for r = 0 to requests - 1 do
    let sink, seq = Cgsim.Io.f32_buffer () in
    let input = Array.init 8 (fun i -> float_of_int ((r * 8) + i)) in
    let _ =
      Cgsim.Runtime.execute_exn (diamond_graph ())
        ~sources:[ Cgsim.Io.of_f32_array input ] ~sinks:[ sink ]
    in
    Alcotest.(check (array (float 0.0)))
      (Printf.sprintf "request %d matches sequential" r)
      (seq ()) (contents.(r) ())
  done

let test_pool_more_requests_than_domains () =
  let requests = 17 and domains = 4 in
  let contents = Array.make requests (fun () -> [||]) in
  let stats =
    Cgsim.Pool.run ~domains ~requests ~io:(pool_io_for_request contents) (diamond_graph ())
  in
  Alcotest.(check int) "all results present" requests (Array.length stats.Cgsim.Pool.results);
  Array.iteri
    (fun r (res : Cgsim.Pool.request_result) ->
      Alcotest.(check int) "indexed by request id" r res.Cgsim.Pool.req_id;
      (match res.Cgsim.Pool.outcome with
       | Cgsim.Runtime.Completed _ -> ()
       | o -> Alcotest.failf "request %d failed: %a" r Cgsim.Runtime.pp_outcome o);
      Alcotest.(check bool) "domain in range" true
        (res.Cgsim.Pool.domain >= 0 && res.Cgsim.Pool.domain < domains);
      Alcotest.(check (array (float 0.0)))
        (Printf.sprintf "request %d output" r)
        (pool_expected r) (contents.(r) ()))
    stats.Cgsim.Pool.results

let test_pool_captures_failures () =
  (* A bad request (wrong source count) is reported in its slot; the
     others still complete. *)
  let requests = 4 in
  let contents = Array.make requests (fun () -> [||]) in
  let io r =
    if r = 2 then [], [ Cgsim.Io.null () ] else pool_io_for_request contents r
  in
  let stats = Cgsim.Pool.run ~domains:2 ~requests ~io (diamond_graph ()) in
  Array.iteri
    (fun r (res : Cgsim.Pool.request_result) ->
      match res.Cgsim.Pool.outcome, r with
      | Cgsim.Runtime.Kernel_failed _, 2 -> ()
      | Cgsim.Runtime.Completed _, 2 -> Alcotest.fail "request 2 must fail (no sources)"
      | Cgsim.Runtime.Completed _, _ ->
        Alcotest.(check (array (float 0.0))) "good request" (pool_expected r)
          (contents.(r) ())
      | o, _ -> Alcotest.failf "request %d should succeed: %a" r Cgsim.Runtime.pp_outcome o)
    stats.Cgsim.Pool.results

let test_pool_starts_in_submit_order () =
  (* One slow request must not let the other domain run ahead of the
     queue: with one FIFO, request [r] starts at most [domains - 1]
     places after its submit position, whatever the cost of the
     requests ahead of it. *)
  let requests = 16 and domains = 2 in
  let contents = Array.make requests (fun () -> [||]) in
  let lock = Mutex.create () and started = ref [] in
  (* No request enters its io before request 0 has: the OS may stall the
     domain that took request 0 before it gets there, and that stall
     must not read as the other domain running ahead of the queue. *)
  let zero_started = Atomic.make false in
  let io r =
    if r > 0 then begin
      let give_up = Unix.gettimeofday () +. 5.0 in
      while (not (Atomic.get zero_started)) && Unix.gettimeofday () < give_up do
        Unix.sleepf 1e-4
      done
    end;
    Mutex.protect lock (fun () -> started := r :: !started);
    if r = 0 then begin
      Atomic.set zero_started true;
      Unix.sleepf 0.05
    end;
    pool_io_for_request contents r
  in
  let stats = Cgsim.Pool.run ~domains ~requests ~io (diamond_graph ()) in
  Alcotest.(check int) "all completed" requests stats.Cgsim.Pool.counts.Cgsim.Pool.n_completed;
  let order = Array.of_list (List.rev !started) in
  Alcotest.(check int) "one start per request" requests (Array.length order);
  Array.iteri
    (fun pos r ->
      if pos > r + (domains - 1) then
        Alcotest.failf "request %d started at position %d (start order %s)" r pos
          (String.concat "," (Array.to_list (Array.map string_of_int order))))
    order

(* ------------------------------------------------------------------ *)
(* Aggregate nets as lanes                                             *)
(* ------------------------------------------------------------------ *)

(* A Struct net stores its elements as scalar lanes.  A float lane keeps
   its bits (a NaN payload, -0.0) and an I64 lane its full range through
   element, block and lane transfers, on cgsim's and x86sim's queues and
   through a lane-reading kernel under both simulators.  A misnamed
   field and an out-of-range U8 lane are refused with the dtype message
   and publish nothing. *)

let lane_dtype =
  Cgsim.Dtype.(Struct [ "g", F32; "k", I64; "pix", Vector (U8, 2) ])

let nan_payload = Int64.float_of_bits 0x7ff8_0000_0bad_f00dL

let lane_value g k p0 p1 = Cgsim.Value.(Rec [ "g", Float g; "k", Int k; "pix", Vec [| Int p0; Int p1 |] ])

let lane_values = [| lane_value nan_payload max_int 0 255; lane_value (-0.0) min_int 255 0 |]

(* Floats by their bits, so NaN payloads and -0.0 count. *)
let rec show_bits = function
  | Cgsim.Value.Float f -> Printf.sprintf "%Lx" (Int64.bits_of_float f)
  | Cgsim.Value.Int i -> string_of_int i
  | Cgsim.Value.Vec a -> "[" ^ String.concat ";" (Array.to_list (Array.map show_bits a)) ^ "]"
  | Cgsim.Value.Rec fs ->
    "{" ^ String.concat ";" (List.map (fun (n, v) -> n ^ "=" ^ show_bits v) fs) ^ "}"

(* The buffer sinks against a cons-list model.  Each push reaches the
   sink through Io.emit as one block of its kind, copied out of a ring of
   its own: flat floats from an F64 ring, flat ints from an I64 ring, and
   boxed values through an aggregate outlet (a value push is all ints or
   all floats, one ring's worth).  The sizes straddle the
   accumulator's chunk bounds (16 and 256 elements). *)
type push =
  | Push_floats of float array
  | Push_ints of int array
  | Push_values of Cgsim.Value.t array

let emit_push sink p =
  let module R = Cgsim.Ring in
  let ring_dtype, outlet_dtype, n =
    match p with
    | Push_floats fs -> Cgsim.Dtype.F64, Cgsim.Dtype.F64, Array.length fs
    | Push_ints is -> Cgsim.Dtype.I64, Cgsim.Dtype.I64, Array.length is
    | Push_values vs ->
      let ring_dtype =
        if Array.for_all (function Cgsim.Value.Int _ -> true | _ -> false) vs then Cgsim.Dtype.I64
        else Cgsim.Dtype.F64
      in
      ring_dtype, Cgsim.Dtype.Vector (Cgsim.Dtype.F32, 2), Array.length vs
  in
  let r = R.create ~name:"push" ~dtype:ring_dtype ~capacity:(Int.max 1 n) in
  let c = R.add_cursor r in
  (match p with
   | Push_floats fs -> R.floats.R.copy_in r fs 0 n
   | Push_ints is -> R.ints.R.copy_in r is 0 n
   | Push_values vs -> R.values.R.copy_in r vs 0 n);
  let o = Cgsim.Io.outlet outlet_dtype ~capacity:(Int.max 1 n) sink in
  Cgsim.Io.emit o
    {
      Cgsim.Io.read =
        (fun k b off m ->
          let m = Int.min m n in
          k.R.copy_out r c b off m;
          m);
    }

let model pushes =
  List.concat_map
    (function
      | Push_floats fs -> Array.to_list (Array.map (fun f -> Cgsim.Value.Float f) fs)
      | Push_ints is -> Array.to_list (Array.map (fun i -> Cgsim.Value.Int i) is)
      | Push_values vs -> Array.to_list vs)
    pushes

let gen_pushes =
  let open QCheck.Gen in
  let size = oneof [ oneofl [ 0; 1; 255; 256; 257; 1024 ]; int_bound 300 ] in
  let any_float = map Int64.float_of_bits ui64 in
  let push =
    size >>= fun n ->
    oneof
      [
        map (fun a -> Push_floats a) (array_repeat n any_float);
        map (fun a -> Push_ints a) (array_repeat n int);
        map (fun a -> Push_values a) (array_repeat n (map (fun i -> Cgsim.Value.Int i) int));
        map
          (fun a -> Push_values a)
          (array_repeat n (map (fun f -> Cgsim.Value.Float f) any_float));
      ]
  in
  list_size (int_bound 8) push

let float_bits fs = Array.to_list (Array.map (fun f -> Int64.bits_of_float f) fs)

let outcome f = match f () with v -> Ok v | exception Invalid_argument _ -> Error ()

let prop_buffers_match_model =
  QCheck.Test.make ~name:"buffer sinks read back the cons-list model" ~count:200
    (QCheck.make
       ~print:(fun ps ->
         String.concat " "
           (List.map
              (function
                | Push_floats a -> Printf.sprintf "F%d" (Array.length a)
                | Push_ints a -> Printf.sprintf "I%d" (Array.length a)
                | Push_values a -> Printf.sprintf "V%d" (Array.length a))
              ps))
       gen_pushes)
    (fun pushes ->
      let expected = model pushes in
      let sink, values = Cgsim.Io.buffer () in
      let f32_sink, floats = Cgsim.Io.f32_buffer () in
      let int_sink, ints = Cgsim.Io.int_buffer () in
      List.iter
        (fun p ->
          emit_push sink p;
          emit_push f32_sink p)
        pushes;
      (* A float value is refused as it arrives at the int sink. *)
      let int_outcome =
        outcome (fun () ->
            List.iter (emit_push int_sink) pushes;
            ints ())
      in
      (* Flat floats and ints convert as the typed sinks always did; a
         boxed value goes through Value.to_float / Value.to_int. *)
      let expected_floats =
        List.concat_map
          (function
            | Push_floats fs -> Array.to_list fs
            | Push_ints is -> Array.to_list (Array.map float_of_int is)
            | Push_values vs -> Array.to_list (Array.map Cgsim.Value.to_float vs))
          pushes
      in
      let expected_ints () =
        Array.of_list
          (List.concat_map
             (function
               | Push_floats fs -> Array.to_list (Array.map int_of_float fs)
               | Push_ints is -> Array.to_list is
               | Push_values vs -> Array.to_list (Array.map Cgsim.Value.to_int vs))
             pushes)
      in
      List.map show_bits (values ()) = List.map show_bits expected
      && float_bits (floats ()) = float_bits (Array.of_list expected_floats)
      && int_outcome = outcome expected_ints
      && List.map show_bits (values ()) = List.map show_bits (values ())
      && float_bits (floats ()) = float_bits (floats ())
      && (Result.is_error int_outcome || int_outcome = outcome ints))

let has_substring needle hay =
  let n = String.length needle in
  let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* One queue's endpoints: the element forms and the one block write
   and read, whichever queue they come from. *)
type lane_queue = {
  put : Cgsim.Value.t -> unit;
  get : unit -> Cgsim.Value.t;
  write : 'b. 'b Cgsim.Ring.kind -> 'b -> int -> int -> unit;
  read : 'b. 'b Cgsim.Ring.kind -> 'b -> int -> int -> unit;
}

let refused label what f =
  match f () with
  | () -> Alcotest.failf "%s: %s was accepted" label what
  | exception Invalid_argument msg ->
    if not (has_substring "does not conform to dtype" msg) then
      Alcotest.failf "%s: %s refused with %S" label what msg

(* The queues hold 8 elements.  A block larger than the free space
   streams in several chunks, so it is checked whole before its first
   chunk: a bad last element refuses all of it. *)
let capacity = 8

let lane_roundtrip label q =
  let expect what got =
    Alcotest.(check (list string))
      (label ^ ": " ^ what)
      (List.map show_bits (Array.to_list lane_values))
      (List.map show_bits got)
  in
  let put_values vs = q.write Cgsim.Ring.values vs 0 (Array.length vs) in
  let get_values n =
    let out = Array.make n (Cgsim.Value.Int 0) in
    q.read Cgsim.Ring.values out 0 n;
    Array.to_list out
  in
  Array.iter q.put lane_values;
  expect "element" (List.init 2 (fun _ -> q.get ()));
  put_values lane_values;
  expect "block" (get_values 2);
  put_values lane_values;
  let b = Cgsim.Port.lanes lane_dtype 2 in
  q.read Cgsim.Ring.lanes b 0 2;
  Alcotest.(check (list int64))
    (label ^ ": float lanes keep their bits")
    [ Int64.bits_of_float nan_payload; Int64.bits_of_float (-0.0) ]
    (List.map Int64.bits_of_float (Array.to_list b.floats));
  Alcotest.(check (array int)) (label ^ ": int lanes") [| max_int; 0; 255; min_int; 255; 0 |] b.ints;
  q.write Cgsim.Ring.lanes b 0 2;
  expect "lanes" (get_values 2);
  let refused = refused label in
  let misnamed = Cgsim.Value.(Rec [ "g", Float 1.0; "kk", Int 1; "pix", Vec [| Int 0; Int 0 |] ]) in
  refused "a misnamed field" (fun () -> q.put misnamed);
  refused "a misnamed field in a block" (fun () -> put_values [| lane_values.(0); misnamed |]);
  refused "an out-of-range U8 lane" (fun () -> q.put (lane_value 1.0 1 0 256));
  let wide = { b with Cgsim.Port.ints = Array.copy b.ints } in
  wide.ints.(5) <- 256;
  refused "an out-of-range U8 lane in a lane block" (fun () -> q.write Cgsim.Ring.lanes wide 0 2);
  let long = Cgsim.Port.lanes lane_dtype (capacity + 4) in
  long.ints.(Array.length long.ints - 1) <- 256;
  refused "an out-of-range U8 lane in a lane block larger than the free space" (fun () ->
      q.write Cgsim.Ring.lanes long 0 (capacity + 4));
  (* Nothing was published: the next read returns the next write. *)
  q.put lane_values.(1);
  Alcotest.(check string)
    (label ^ ": a refusal publishes nothing")
    (show_bits lane_values.(1)) (show_bits (q.get ()))

(* The int counterpart of the long lane block above, on a U8 net. *)
let int_block_refusal label q =
  let long = Array.init (capacity + 4) (fun i -> i) in
  long.(capacity + 3) <- 256;
  refused label "an out-of-range U8 int in a block larger than the free space" (fun () ->
      q.write Cgsim.Ring.ints long 0 (capacity + 4));
  q.put (Cgsim.Value.Int 7);
  Alcotest.(check int) (label ^ ": a refusal publishes nothing") 7 (Cgsim.Value.to_int (q.get ()))

(* [on_bqueue dtype f] runs [f] on a Bqueue's endpoints in a fiber, and
   [on_tqueue] on a Tqueue's on the calling thread.  A test that parks
   fails with the fiber unfinished; one that blocks a thread fails with
   [Terminated], as a watchdog poisons the Tqueue after 5 s. *)
let on_bqueue dtype f =
  let q = Cgsim.Bqueue.create ~name:"q" ~dtype ~capacity () in
  let p = Cgsim.Bqueue.add_producer q and c = Cgsim.Bqueue.add_consumer q in
  let outcome = ref (Error (Failure "the cgsim fiber did not finish")) in
  let endpoints =
    {
      put = Cgsim.Bqueue.put p;
      get = (fun () -> Cgsim.Bqueue.get c);
      write = (fun k b off n -> Cgsim.Bqueue.write k p b off n);
      read = (fun k b off n -> Cgsim.Bqueue.read k c b off n);
    }
  in
  ignore (run_fibers [ ("cgsim", fun () -> outcome := try Ok (f endpoints) with e -> Error e) ]);
  match !outcome with Ok () -> () | Error e -> raise e

let on_tqueue dtype f =
  let q = X86sim.Tqueue.create ~name:"q" ~dtype ~capacity () in
  let w = X86sim.Tqueue.waker () in
  let p = X86sim.Tqueue.add_producer ~waker:w q and c = X86sim.Tqueue.add_consumer ~waker:w q in
  let finished = Atomic.make false in
  let watchdog =
    Domain.spawn (fun () ->
        let t_end = Unix.gettimeofday () +. 5.0 in
        while (not (Atomic.get finished)) && Unix.gettimeofday () < t_end do
          Unix.sleepf 0.001
        done;
        if not (Atomic.get finished) then X86sim.Tqueue.poison q)
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set finished true;
      Domain.join watchdog)
    (fun () ->
      f
        {
          put = X86sim.Tqueue.put p;
          get = (fun () -> X86sim.Tqueue.get c);
          write = (fun k b off n -> X86sim.Tqueue.write k p b off n);
          read = (fun k b off n -> X86sim.Tqueue.read k c b off n);
        })

(* A negative offset, a negative count, or a block past the end of the
   4-element buffer raises [Invalid_argument] before anything waits: a
   read on an empty net and a write on a full one would block.  The
   element put after the refused writes is the next one read, so they
   published nothing. *)
let bounds_refused label q kind buf fill marker =
  let bad = [ -1, 1; 0, -1; 2, 3; 0, 5; 4, 1; max_int, 1; 1, max_int ] in
  let raises what off n f =
    match f () with
    | () -> Alcotest.failf "%s: %s at offset %d of %d was accepted" label what off n
    | exception Invalid_argument _ -> ()
  in
  List.iter (fun (off, n) -> raises "a read on an empty net" off n (fun () -> q.read kind buf off n)) bad;
  for _ = 1 to capacity do
    q.put fill
  done;
  List.iter (fun (off, n) -> raises "a write on a full net" off n (fun () -> q.write kind buf off n)) bad;
  for _ = 1 to capacity do
    ignore (q.get ())
  done;
  q.put marker;
  Alcotest.(check string) (label ^ ": a refusal publishes nothing") (show_bits marker) (show_bits (q.get ()))

let test_block_bounds_checked () =
  List.iter
    (fun (label, on_queue) ->
      on_queue Cgsim.Dtype.F32 (fun q ->
          bounds_refused (label ^ " floats") q Cgsim.Ring.floats (Array.make 4 0.0)
            (Cgsim.Value.Float 1.0) (Cgsim.Value.Float 2.0));
      on_queue Cgsim.Dtype.I32 (fun q ->
          bounds_refused (label ^ " ints") q Cgsim.Ring.ints (Array.make 4 0) (Cgsim.Value.Int 1)
            (Cgsim.Value.Int 2));
      on_queue Cgsim.Dtype.I32 (fun q ->
          bounds_refused (label ^ " values") q Cgsim.Ring.values
            (Array.make 4 (Cgsim.Value.Int 0))
            (Cgsim.Value.Int 1) (Cgsim.Value.Int 2));
      on_queue lane_dtype (fun q ->
          bounds_refused (label ^ " lanes") q Cgsim.Ring.lanes (Cgsim.Port.lanes lane_dtype 4)
            lane_values.(0) lane_values.(1)))
    [ "cgsim", (fun d f -> on_bqueue d f); "x86sim", (fun d f -> on_tqueue d f) ]

let lane_pass =
  Cgsim.Kernel.define ~realm:Cgsim.Kernel.Aie ~name:"test_lane_pass"
    [ Cgsim.Kernel.in_port "in" lane_dtype; Cgsim.Kernel.out_port "out" lane_dtype ]
    (fun b ->
      let i = Cgsim.Kernel.rd b 0 and o = Cgsim.Kernel.wr b 0 in
      let buf = Cgsim.Port.lanes lane_dtype 2 in
      while true do
        Cgsim.Port.get_lanes i buf 1 1;
        Cgsim.Port.put_lanes o buf 1 1
      done)

let test_lanes_bit_exact () =
  on_bqueue lane_dtype (lane_roundtrip "cgsim");
  on_tqueue lane_dtype (lane_roundtrip "x86sim");
  on_bqueue Cgsim.Dtype.U8 (int_block_refusal "cgsim ints");
  on_tqueue Cgsim.Dtype.U8 (int_block_refusal "x86sim ints");
  let g () =
    Cgsim.Builder.make ~name:"lane_pass" ~inputs:[ "x", lane_dtype ] (fun b conns ->
        let out = Cgsim.Builder.net b lane_dtype in
        ignore (Cgsim.Builder.add_kernel b lane_pass [ List.hd conns; out ]);
        [ out ])
  in
  let input = Array.concat [ lane_values; lane_values; lane_values ] in
  let expected = List.map show_bits (Array.to_list input) in
  let sink, out = Cgsim.Io.buffer () in
  ignore (Cgsim.Runtime.execute_exn (g ()) ~sources:[ Cgsim.Io.of_array input ] ~sinks:[ sink ]);
  Alcotest.(check (list string)) "cgsim lane kernel" expected (List.map show_bits (out ()));
  let sink, out = Cgsim.Io.buffer () in
  ignore
    (Cgsim.Runtime.stats_exn (X86sim.Sim.run (g ()) ~sources:[ Cgsim.Io.of_array input ] ~sinks:[ sink ]));
  Alcotest.(check (list string)) "x86sim lane kernel" expected (List.map show_bits (out ()))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "cgsim"
    [
      ( "dtype",
        [
          Alcotest.test_case "sizes" `Quick test_dtype_sizes;
          Alcotest.test_case "cpp spellings" `Quick test_dtype_spelling;
        ] );
      ( "value",
        [
          Alcotest.test_case "conformance" `Quick test_value_conforms;
          Alcotest.test_case "int clamp/wrap" `Quick test_value_int_ops;
          Alcotest.test_case "compile_check == conforms" `Quick
            test_value_compile_check_matches_conforms;
          Alcotest.test_case "vec equality" `Quick test_value_equal_vec;
        ] );
      ( "settings",
        [
          Alcotest.test_case "merge" `Quick test_settings_merge;
          Alcotest.test_case "validate" `Quick test_settings_validate;
        ]
        @ qsuite [ prop_merge_commutative; prop_merge_associative; prop_merge_idempotent ] );
      "attr", [ Alcotest.test_case "merge/override" `Quick test_attr_merge ];
      ( "sched",
        [
          Alcotest.test_case "round robin" `Quick test_sched_roundrobin;
          Alcotest.test_case "park/wake" `Quick test_sched_park_wake;
          Alcotest.test_case "stall cancels" `Quick test_sched_stall_cancels;
          Alcotest.test_case "failure recorded" `Quick test_sched_failure_recorded;
          Alcotest.test_case "stale waker ignored" `Quick test_sched_stale_waker;
          Alcotest.test_case "spawn during run" `Quick test_sched_spawn_during_run;
          Alcotest.test_case "wake batch" `Quick test_sched_wake_batch;
          Alcotest.test_case "slices allocate nothing" `Quick test_sched_slices_allocate_nothing;
        ] );
      ( "bqueue",
        [
          Alcotest.test_case "fifo" `Quick test_bqueue_fifo;
          Alcotest.test_case "broadcast" `Quick test_bqueue_broadcast;
          Alcotest.test_case "backpressure" `Quick test_bqueue_backpressure;
          Alcotest.test_case "multi-producer" `Quick test_bqueue_multiproducer;
          Alcotest.test_case "close drains" `Quick test_bqueue_close_drains;
          Alcotest.test_case "dtype check" `Quick test_bqueue_dtype_check;
          Alcotest.test_case "block roundtrip" `Quick test_bqueue_block_roundtrip;
          Alcotest.test_case "block broadcast mixed" `Quick test_bqueue_block_broadcast_mixed;
          Alcotest.test_case "block > capacity" `Quick test_bqueue_block_larger_than_capacity;
          Alcotest.test_case "eos mid-block" `Quick test_bqueue_block_eos_midblock;
          Alcotest.test_case "get_some bounds" `Quick test_bqueue_get_some_bounds;
          Alcotest.test_case "mixed transfer in order" `Quick test_bqueue_mixed_transfer;
          Alcotest.test_case "aggregate lanes bit-exact under cgsim and x86sim" `Quick
            test_lanes_bit_exact;
          Alcotest.test_case "block offsets and counts checked under cgsim and x86sim" `Quick
            test_block_bounds_checked;
        ]
        @ qsuite [ prop_bqueue_broadcast_random ] );
      ( "builder",
        [
          Alcotest.test_case "valid diamond" `Quick test_builder_valid;
          Alcotest.test_case "broadcast recorded" `Quick test_builder_broadcast_recorded;
          Alcotest.test_case "dtype mismatch" `Quick test_builder_dtype_mismatch;
          Alcotest.test_case "arity mismatch" `Quick test_builder_arity_mismatch;
          Alcotest.test_case "dangling connector" `Quick test_builder_dangling;
          Alcotest.test_case "window splits an element" `Quick test_builder_bad_window;
          Alcotest.test_case "settings conflict" `Quick test_builder_settings_conflict;
          Alcotest.test_case "read after output" `Quick test_builder_read_after_output;
          Alcotest.test_case "foreign connector" `Quick test_builder_cross_builder_conn;
          Alcotest.test_case "topology equality" `Quick test_serialized_topology_equal;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "diamond" `Quick test_runtime_diamond;
          Alcotest.test_case "io count mismatch" `Quick test_runtime_io_count_mismatch;
          Alcotest.test_case "freeze rejects two kernels under one name" `Quick
            test_builder_one_definition_per_name;
          Alcotest.test_case "kernels belong to their graph" `Quick test_runtime_kernels_per_graph;
          Alcotest.test_case "single shot" `Quick test_runtime_single_shot;
          Alcotest.test_case "runtime parameter" `Quick test_runtime_rtp;
          Alcotest.test_case "profile fraction" `Quick test_profile_fraction;
          Alcotest.test_case "diamond closed form" `Quick test_runtime_diamond_closed_form;
          Alcotest.test_case "missing consumer" `Quick test_runtime_missing_consumer;
          Alcotest.test_case "missing producer" `Quick test_runtime_missing_producer;
          Alcotest.test_case "port its net does not list" `Quick test_unlisted_port;
        ]
        @ qsuite [ prop_pipeline_random; prop_rate_matched_chains ]
        @ [ Alcotest.test_case "kernel contexts ride the binding" `Quick test_runtime_kernel_contexts ]
      );
      ( "compile",
        [
          Alcotest.test_case "lint Error refuses imbalance" `Quick
            test_compile_lint_error_refuses;
        ] );
      ( "pool",
        [
          Alcotest.test_case "1 domain == sequential" `Quick
            test_pool_single_domain_matches_sequential;
          Alcotest.test_case "requests > domains" `Quick test_pool_more_requests_than_domains;
          Alcotest.test_case "failures captured" `Quick test_pool_captures_failures;
          Alcotest.test_case "starts in submit order" `Quick test_pool_starts_in_submit_order;
        ] );
      ( "graph-text",
        [
          Alcotest.test_case "diamond golden" `Quick test_graph_text_diamond_golden;
          Alcotest.test_case "dtype spellings" `Quick test_graph_text_dtype_spellings;
        ] );
      ( "io",
        Alcotest.test_case "rtp sink" `Quick test_io_rtp_sink
        :: qsuite [ prop_buffers_match_model ] );
    ]
