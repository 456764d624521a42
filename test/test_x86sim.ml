(* Tests for the thread-per-kernel functional simulator and its
   domain-safe broadcast queues. *)

let test_tqueue_spsc () =
  let q = X86sim.Tqueue.create ~name:"q" ~dtype:Cgsim.Dtype.I32 ~capacity:4 () in
  let p = X86sim.Tqueue.add_producer q in
  let c = X86sim.Tqueue.add_consumer q in
  let got = ref [] in
  let producer =
    Domain.spawn (fun () ->
        for i = 1 to 200 do
          X86sim.Tqueue.put p (Cgsim.Value.Int i)
        done;
        X86sim.Tqueue.producer_done p)
  in
  let consumer =
    Domain.spawn (fun () ->
        try
          while true do
            got := Cgsim.Value.to_int (X86sim.Tqueue.get c) :: !got
          done
        with Cgsim.Sched.End_of_stream -> ())
  in
  Domain.join producer;
  Domain.join consumer;
  Alcotest.(check (list int)) "fifo across domains" (List.init 200 (fun i -> i + 1))
    (List.rev !got)

let test_tqueue_broadcast () =
  let q = X86sim.Tqueue.create ~name:"q" ~dtype:Cgsim.Dtype.I32 ~capacity:2 () in
  let p = X86sim.Tqueue.add_producer q in
  let c1 = X86sim.Tqueue.add_consumer q in
  let c2 = X86sim.Tqueue.add_consumer q in
  let drain c acc =
    Domain.spawn (fun () ->
        try
          while true do
            acc := Cgsim.Value.to_int (X86sim.Tqueue.get c) :: !acc
          done
        with Cgsim.Sched.End_of_stream -> ())
  in
  let a1 = ref [] and a2 = ref [] in
  let d1 = drain c1 a1 and d2 = drain c2 a2 in
  for i = 1 to 100 do
    X86sim.Tqueue.put p (Cgsim.Value.Int i)
  done;
  X86sim.Tqueue.producer_done p;
  Domain.join d1;
  Domain.join d2;
  let expect = List.init 100 (fun i -> i + 1) in
  Alcotest.(check (list int)) "c1 complete" expect (List.rev !a1);
  Alcotest.(check (list int)) "c2 complete" expect (List.rev !a2)

let test_tqueue_close_then_get () =
  let q = X86sim.Tqueue.create ~name:"q" ~dtype:Cgsim.Dtype.I32 ~capacity:2 () in
  let p = X86sim.Tqueue.add_producer q in
  let c = X86sim.Tqueue.add_consumer q in
  X86sim.Tqueue.put p (Cgsim.Value.Int 1);
  X86sim.Tqueue.producer_done p;
  Alcotest.(check int) "drains" 1 (Cgsim.Value.to_int (X86sim.Tqueue.get c));
  match X86sim.Tqueue.get c with
  | exception Cgsim.Sched.End_of_stream -> ()
  | _ -> Alcotest.fail "closed+drained queue must raise End_of_stream"

let test_tqueue_put_after_done () =
  let q = X86sim.Tqueue.create ~name:"q" ~dtype:Cgsim.Dtype.I32 ~capacity:2 () in
  let p = X86sim.Tqueue.add_producer q in
  X86sim.Tqueue.producer_done p;
  match X86sim.Tqueue.put p (Cgsim.Value.Int 1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "put after producer_done must be rejected"

let test_tqueue_dtype_checked () =
  let q = X86sim.Tqueue.create ~name:"q" ~dtype:Cgsim.Dtype.F32 ~capacity:2 () in
  let p = X86sim.Tqueue.add_producer q in
  match X86sim.Tqueue.put p (Cgsim.Value.Int 3) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "dtype mismatch must be rejected"

(* Value blocks through the one block write and read. *)
let put_values p vs = X86sim.Tqueue.write Cgsim.Ring.values p vs 0 (Array.length vs)

let get_values c n =
  let out = Array.make n (Cgsim.Value.Int 0) in
  X86sim.Tqueue.read Cgsim.Ring.values c out 0 n;
  out

let test_tqueue_block_concurrent_producers () =
  (* Two domains push blocks through a small ring concurrently; every
     element arrives and each producer's stream stays ordered. *)
  let q = X86sim.Tqueue.create ~name:"q" ~dtype:Cgsim.Dtype.I32 ~capacity:8 () in
  let p1 = X86sim.Tqueue.add_producer q in
  let p2 = X86sim.Tqueue.add_producer q in
  let c = X86sim.Tqueue.add_consumer q in
  let produce p base =
    Domain.spawn (fun () ->
        for b = 0 to 9 do
          put_values p
            (Array.init 20 (fun i -> Cgsim.Value.Int (base + (b * 20) + i)))
        done;
        X86sim.Tqueue.producer_done p)
  in
  let got = ref [] in
  let consumer =
    Domain.spawn (fun () ->
        try
          while true do
            got := Cgsim.Value.to_int (X86sim.Tqueue.get c) :: !got
          done
        with Cgsim.Sched.End_of_stream -> ())
  in
  let d1 = produce p1 0 and d2 = produce p2 1000 in
  Domain.join d1;
  Domain.join d2;
  Domain.join consumer;
  let all = List.rev !got in
  Alcotest.(check int) "everything arrived" 400 (List.length all);
  let stream pred = List.filter pred all in
  Alcotest.(check (list int)) "p1 order kept"
    (List.init 200 (fun i -> i))
    (stream (fun x -> x < 1000));
  Alcotest.(check (list int)) "p2 order kept"
    (List.init 200 (fun i -> 1000 + i))
    (stream (fun x -> x >= 1000))

let test_tqueue_block_larger_than_capacity () =
  let q = X86sim.Tqueue.create ~name:"q" ~dtype:Cgsim.Dtype.I32 ~capacity:4 () in
  let p = X86sim.Tqueue.add_producer q in
  let c = X86sim.Tqueue.add_consumer q in
  let producer =
    Domain.spawn (fun () ->
        put_values p (Array.init 64 (fun i -> Cgsim.Value.Int (i + 1)));
        X86sim.Tqueue.producer_done p)
  in
  let got = get_values c 64 in
  Domain.join producer;
  Alcotest.(check (list int)) "streams through"
    (List.init 64 (fun i -> i + 1))
    (Array.to_list (Array.map Cgsim.Value.to_int got))

let test_tqueue_block_eos_midblock () =
  let q = X86sim.Tqueue.create ~name:"q" ~dtype:Cgsim.Dtype.I32 ~capacity:8 () in
  let p = X86sim.Tqueue.add_producer q in
  let c = X86sim.Tqueue.add_consumer q in
  put_values p (Array.init 5 (fun i -> Cgsim.Value.Int i));
  X86sim.Tqueue.producer_done p;
  (match get_values c 8 with
   | exception Cgsim.Sched.End_of_stream -> ()
   | _ -> Alcotest.fail "closing mid-block must raise End_of_stream");
  match X86sim.Tqueue.get c with
  | exception Cgsim.Sched.End_of_stream -> ()
  | _ -> Alcotest.fail "partial block was consumed: the next get must end the stream"

(* The transfers take the lock without a closure: once warm, a put
   into free space on a Vector net allocates nothing, a get of a ready
   element allocates only the value it builds from the lanes, and lane
   writes and reads allocate nothing at all. *)
let test_tqueue_element_ops_allocate_nothing () =
  let dtype = Cgsim.Dtype.Vector (Cgsim.Dtype.I16, 2) in
  let q = X86sim.Tqueue.create ~name:"q" ~dtype ~capacity:64 () in
  let w = X86sim.Tqueue.waker () in
  let p = X86sim.Tqueue.add_producer ~waker:w q and c = X86sim.Tqueue.add_consumer ~waker:w q in
  let v = Cgsim.Value.Vec [| Cgsim.Value.Int 1; Cgsim.Value.Int 2 |] in
  let lanes = Cgsim.Port.lanes dtype 1 in
  X86sim.Tqueue.put p v;
  let value_words = float_of_int (Obj.reachable_words (Obj.repr (X86sim.Tqueue.get c))) in
  X86sim.Tqueue.write Cgsim.Ring.lanes p lanes 0 1;
  X86sim.Tqueue.read Cgsim.Ring.lanes c lanes 0 1;
  let w0 = Gc.minor_words () in
  for _ = 1 to 32 do
    X86sim.Tqueue.put p v
  done;
  let w1 = Gc.minor_words () in
  for _ = 1 to 32 do
    ignore (Sys.opaque_identity (X86sim.Tqueue.get c))
  done;
  let w2 = Gc.minor_words () in
  for _ = 1 to 32 do
    X86sim.Tqueue.write Cgsim.Ring.lanes p lanes 0 1;
    X86sim.Tqueue.read Cgsim.Ring.lanes c lanes 0 1
  done;
  let w3 = Gc.minor_words () in
  Alcotest.(check (float 0.)) "put allocates nothing" 0. (w1 -. w0);
  Alcotest.(check (float 0.)) "get allocates only its value" (32. *. value_words) (w2 -. w1);
  Alcotest.(check (float 0.)) "lane put and get allocate nothing" 0. (w3 -. w2)

let test_sim_io_count_mismatch () =
  let g = Apps.Bitonic.graph () in
  match X86sim.Sim.run g ~sources:[] ~sinks:[ Cgsim.Io.null () ] with
  | exception Cgsim.Runtime.Runtime_error _ -> ()
  | _ -> Alcotest.fail "source count mismatch must be rejected"

let contains needle hay =
  let n = String.length needle in
  let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let scale_kernel =
  Cgsim.Kernel.define ~realm:Cgsim.Kernel.Aie ~name:"test_x86_scale"
    [ Cgsim.Kernel.in_port "in" Cgsim.Dtype.F32; Cgsim.Kernel.out_port "out" Cgsim.Dtype.F32 ]
    (fun b ->
      let i = Cgsim.Kernel.rd b 0 and o = Cgsim.Kernel.wr b 0 in
      while true do
        Cgsim.Port.put_f32 o (2.0 *. Cgsim.Port.get_f32 i)
      done)

(* x86sim compiles through Cgsim.Runtime.compile, so both simulators
   refuse a graph whose two instances hold different definitions under
   one name, a graph that fails validation, a net nothing writes and a
   net nothing reads, with the same message. *)
let test_sim_refuses_like_cgsim () =
  let g = Apps.Bitonic.graph () in
  let twice =
    Cgsim.Builder.make ~name:"twice" ~inputs:[ "x", Cgsim.Dtype.F32 ] (fun b conns ->
        let mid = Cgsim.Builder.net b Cgsim.Dtype.F32 in
        let out = Cgsim.Builder.net b Cgsim.Dtype.F32 in
        ignore (Cgsim.Builder.add_kernel b scale_kernel [ List.hd conns; mid ]);
        ignore (Cgsim.Builder.add_kernel b scale_kernel [ mid; out ]);
        [ out ])
  in
  (* The same fields in a second record: equal in every way but identity. *)
  let impostor = { scale_kernel with Cgsim.Kernel.body = scale_kernel.Cgsim.Kernel.body } in
  let two_definitions =
    {
      twice with
      Cgsim.Serialized.kernels =
        Array.mapi
          (fun i (ki : Cgsim.Serialized.kernel_inst) ->
            if i = 1 then { ki with Cgsim.Serialized.kernel = impostor } else ki)
          twice.Cgsim.Serialized.kernels;
    }
  in
  let invalid =
    {
      g with
      Cgsim.Serialized.nets =
        Array.map
          (fun (n : Cgsim.Serialized.net) ->
            if n.Cgsim.Serialized.net_id = 1 then
              { n with Cgsim.Serialized.dtype = Cgsim.Dtype.Struct [ "z", Cgsim.Dtype.U8 ] }
            else n)
          g.Cgsim.Serialized.nets;
    }
  in
  let rewire f = { twice with Cgsim.Serialized.nets = Array.map f twice.Cgsim.Serialized.nets } in
  let unread =
    {
      (rewire (fun n -> { n with Cgsim.Serialized.global_output = None })) with
      Cgsim.Serialized.output_order = [||];
    }
  in
  List.iter
    (fun (what, g, expect) ->
      let cgsim =
        match Cgsim.Runtime.compile g with
        | exception Cgsim.Runtime.Runtime_error msg -> msg
        | _ -> Alcotest.failf "cgsim must refuse the %s graph" what
      in
      Alcotest.(check bool) (what ^ ": " ^ cgsim) true (contains expect cgsim);
      (* The refusal comes before the source and sink counts are checked. *)
      match X86sim.Sim.run g ~sources:[] ~sinks:[] with
      | exception Cgsim.Runtime.Runtime_error msg -> Alcotest.(check string) what cgsim msg
      | _ -> Alcotest.failf "x86sim must refuse the %s graph" what)
    [
      "two-definitions", two_definitions, "CG-E007";
      "invalid", invalid, "cannot instantiate";
      "unwritten", rewire (fun n -> if n.net_id = 1 then { n with writers = [] } else n), "CG-E005";
      "unread", unread, "CG-E008";
    ]

let test_sim_kernel_failure_reported () =
  let boom =
    Cgsim.Kernel.define ~realm:Cgsim.Kernel.Aie ~name:"x86_boom"
      [ Cgsim.Kernel.in_port "in" Cgsim.Dtype.F32; Cgsim.Kernel.out_port "out" Cgsim.Dtype.F32 ]
      (fun b ->
        ignore (Cgsim.Port.get (Cgsim.Kernel.rd b 0));
        failwith "deliberate")
  in
  let g =
    Cgsim.Builder.make ~name:"boom_graph" ~inputs:[ "x", Cgsim.Dtype.F32 ] (fun b conns ->
        let out = Cgsim.Builder.net b Cgsim.Dtype.F32 in
        ignore (Cgsim.Builder.add_kernel b boom [ List.hd conns; out ]);
        [ out ])
  in
  match
    Cgsim.Runtime.stats_exn
      (X86sim.Sim.run g ~sources:[ Cgsim.Io.of_f32_array [| 1.0; 2.0 |] ]
         ~sinks:[ Cgsim.Io.null () ])
  with
  | exception Cgsim.Runtime.Runtime_error _ -> ()
  | _ -> Alcotest.fail "kernel failures must be re-raised after the join"

let test_sim_thread_count () =
  (* farrow: one domain per kernel; its 2 sources and 1 sink ride them. *)
  let h = Apps.Harness.farrow in
  let sinks, _ = h.Apps.Harness.make_sinks () in
  let stats =
    Cgsim.Runtime.stats_exn
      (X86sim.Sim.run (h.Apps.Harness.graph ()) ~sources:(h.Apps.Harness.sources ~reps:1) ~sinks)
  in
  Alcotest.(check int) "threads" 2 stats.Cgsim.Sched.spawned

let prop_x86sim_random_chain =
  QCheck.Test.make ~name:"x86sim: random chains match cgsim" ~count:10
    QCheck.(pair (int_range 1 4) (list_of_size (QCheck.Gen.int_range 1 32) (int_range (-50) 50)))
    (fun (depth, xs) ->
      let graph () =
        Cgsim.Builder.make ~name:"xchain" ~inputs:[ "x", Cgsim.Dtype.F32 ] (fun b conns ->
            let rec build prev n =
              if n = 0 then prev
              else begin
                let next = Cgsim.Builder.net b Cgsim.Dtype.F32 in
                ignore (Cgsim.Builder.add_kernel b scale_kernel [ prev; next ]);
                build next (n - 1)
              end
            in
            [ build (List.hd conns) depth ])
      in
      let input () = Cgsim.Io.of_f32_array (Array.of_list (List.map float_of_int xs)) in
      let sink1, out1 = Cgsim.Io.f32_buffer () in
      let _ = Cgsim.Runtime.execute_exn (graph ()) ~sources:[ input () ] ~sinks:[ sink1 ] in
      let sink2, out2 = Cgsim.Io.f32_buffer () in
      let _ =
        Cgsim.Runtime.stats_exn (X86sim.Sim.run (graph ()) ~sources:[ input () ] ~sinks:[ sink2 ])
      in
      out1 () = out2 ())

(* ------------------------------------------------------------------ *)
(* Ring model: Bqueue and Tqueue against a list model                  *)
(* ------------------------------------------------------------------ *)

(* Both queues are Cgsim.Netq over a wait policy.  A random program of
   element, block, flat float/int, lane and drain operations over a
   random dtype, capacity and broadcast fan-out must observe exactly
   what a list model predicts, through both instances.  The generator
   only emits an operation that cannot block, so Bqueue runs in one
   fiber and Tqueue on the calling thread; a flat or lane transfer on
   the wrong dtype and an out-of-range int block or int lane must raise
   and leave the queue untouched.  The model knows the lane layout on
   its own (Vector lanes, then Struct fields in order) and does not
   round float lanes. *)

module V = Cgsim.Value
module D = Cgsim.Dtype

type ring_op =
  | Put of V.t
  | Put_block of V.t array
  | Put_floats of float array
  | Put_ints of int array
  | Put_lanes of Cgsim.Port.lanes * int
  | Get of int
  | Get_block of int * int
  | Get_some of int * int
  | Get_floats of int * int
  | Get_floats_into of int * int
  | Get_ints of int * int
  | Get_ints_into of int * int
  | Get_lanes of int * int

type obs =
  | Vals of V.t list
  | Raised

type model = {
  m_dtype : D.t;
  m_cap : int;
  log : V.t array;  (* every element ever published, in order *)
  mutable head : int;
  pos : int array;  (* per-consumer read position *)
}

let ring_dtypes =
  [| D.F32; D.F64; D.I8; D.I16; D.I32; D.I64; D.U8; D.U16; D.U32;
     D.Vector (D.F32, 2); D.Vector (D.I16, 3); D.Vector (D.I64, 2);
     D.Struct [ "pix", D.Vector (D.U8, 4); "g", D.F32; "k", D.I16 ] |]

let is_aggregate d = not (D.is_scalar d)

(* The model's lane layout: int and float lanes per element, and the
   dtype of each int lane, in order. *)
let rec lane_counts = function
  | D.F32 | D.F64 -> 0, 1
  | D.Vector (e, n) ->
    let i, f = lane_counts e in
    i * n, f * n
  | D.Struct fs ->
    List.fold_left
      (fun (i, f) (_, t) ->
        let i', f' = lane_counts t in
        i + i', f + f')
      (0, 0) fs
  | _ -> 1, 0

let rec int_lane_dtypes = function
  | D.F32 | D.F64 -> []
  | D.Vector (e, n) -> List.concat (List.init n (fun _ -> int_lane_dtypes e))
  | D.Struct fs -> List.concat_map (fun (_, t) -> int_lane_dtypes t) fs
  | d -> [ d ]

let to_lanes dtype vs =
  let ints = ref [] and floats = ref [] in
  let rec go d v =
    match d, v with
    | D.Vector (e, _), V.Vec a -> Array.iter (go e) a
    | D.Struct fs, V.Rec fvs -> List.iter2 (fun (_, t) (_, x) -> go t x) fs fvs
    | _, V.Float f -> floats := f :: !floats
    | _, V.Int i -> ints := i :: !ints
    | _ -> invalid_arg "to_lanes"
  in
  Array.iter (go dtype) vs;
  { Cgsim.Port.ints = Array.of_list (List.rev !ints); floats = Array.of_list (List.rev !floats) }

let of_lanes dtype (b : Cgsim.Port.lanes) n =
  let pi = ref 0 and pf = ref 0 in
  let rec go = function
    | D.F32 | D.F64 ->
      incr pf;
      V.Float b.floats.(!pf - 1)
    | D.Vector (e, k) -> V.Vec (Array.init k (fun _ -> go e))
    | D.Struct fs -> V.Rec (List.map (fun (name, t) -> name, go t) fs)
    | _ ->
      incr pi;
      V.Int b.ints.(!pi - 1)
  in
  List.init n (fun _ -> go dtype)

let lane_buffer dtype n =
  let i, f = lane_counts dtype in
  { Cgsim.Port.ints = Array.make (n * i) 0; floats = Array.make (n * f) 0.0 }

let lanes_fit dtype (b : Cgsim.Port.lanes) =
  let bounds = Array.of_list (List.map V.int_range (int_lane_dtypes dtype)) in
  let ni = Array.length bounds in
  let ok = ref true in
  Array.iteri
    (fun i v ->
      match bounds.(i mod ni) with
      | Some (lo, hi) -> if v < lo || v > hi then ok := false
      | None -> ())
    b.ints;
  !ok

let space m = m.m_cap - (m.head - Array.fold_left min m.head m.pos)

let avail m k = m.head - m.pos.(k)

let publish m vs =
  Array.iter
    (fun v ->
      (* Scalar F32 storage holds single precision. *)
      m.log.(m.head) <- (match m.m_dtype, v with D.F32, V.Float f -> V.Float (V.round_f32 f) | _ -> v);
      m.head <- m.head + 1)
    vs;
  Vals []

let take m k n =
  let vs = List.init n (fun i -> m.log.(m.pos.(k) + i)) in
  m.pos.(k) <- m.pos.(k) + n;
  Vals vs

let ints_fit dtype is =
  D.is_integer dtype
  && (match V.int_range dtype with
      | None -> true
      | Some (lo, hi) -> Array.for_all (fun i -> lo <= i && i <= hi) is)

let model_step m = function
  | Put v -> publish m [| v |]
  | Put_block vs -> publish m vs
  | Put_floats fs ->
    if D.is_float m.m_dtype then publish m (Array.map (fun f -> V.Float f) fs) else Raised
  | Put_ints is -> if ints_fit m.m_dtype is then publish m (Array.map (fun i -> V.Int i) is) else Raised
  | Put_lanes (b, n) ->
    if is_aggregate m.m_dtype && lanes_fit m.m_dtype b then
      publish m (Array.of_list (of_lanes m.m_dtype b n))
    else Raised
  | Get k -> take m k 1
  | Get_block (k, n) -> take m k n
  | Get_some (k, mx) -> take m k (min mx (avail m k))
  | Get_floats (k, n) -> if D.is_float m.m_dtype then take m k n else Raised
  | Get_floats_into (k, mx) ->
    if D.is_float m.m_dtype then take m k (min mx (avail m k)) else Raised
  | Get_ints (k, n) -> if D.is_integer m.m_dtype then take m k n else Raised
  | Get_lanes (k, n) -> if is_aggregate m.m_dtype then take m k n else Raised
  | Get_ints_into (k, mx) ->
    if D.is_integer m.m_dtype then take m k (min mx (avail m k)) else Raised

let rec gen_value rng = function
  | D.F32 | D.F64 -> V.Float (Random.State.float rng 2e6 -. 1e6)
  | D.Vector (e, lanes) -> V.Vec (Array.init lanes (fun _ -> gen_value rng e))
  | D.Struct fields -> V.Rec (List.map (fun (n, t) -> n, gen_value rng t) fields)
  | d ->
    (match V.int_range d with
     | Some (lo, hi) -> V.Int (lo + Random.State.full_int rng (hi - lo + 1))
     | None -> V.Int (Random.State.full_int rng (1 lsl 40) - (1 lsl 39)))

(* Draw a program, running the model alongside so every operation is
   non-blocking in the state it will meet; returns the program and the
   model's observations. *)
let gen_program rng dtype cap consumers =
  let m = { m_dtype = dtype; m_cap = cap; log = Array.make 1024 (V.Int 0); head = 0;
            pos = Array.make consumers 0 } in
  let rand n = Random.State.int rng n in
  let flat_ints n =
    let is = Array.init n (fun _ -> match gen_value rng dtype with V.Int i -> i | _ -> rand 100) in
    (* Sometimes one value just outside the dtype's range. *)
    (match V.int_range dtype with
     | Some (_, hi) when n > 0 && rand 3 = 0 -> is.(rand n) <- hi + 1
     | _ -> ());
    is
  in
  let steps = ref [] in
  for _ = 1 to rand 60 do
    let sp = space m and k = rand consumers in
    let av = avail m k in
    let op =
      match rand 10 with
      | 0 when sp > 0 -> Put (gen_value rng dtype)
      | 1 -> Put_block (Array.init (rand (sp + 1)) (fun _ -> gen_value rng dtype))
      | 2 ->
        (* A transfer that raises never waits, so it may exceed the space. *)
        let n = rand (if D.is_float dtype then sp + 1 else cap + 4) in
        Put_floats (Array.init n (fun _ -> Random.State.float rng 2e6 -. 1e6))
      | 3 ->
        let is = flat_ints (rand (cap + 4)) in
        if ints_fit dtype is && Array.length is > sp then Put_ints (Array.sub is 0 sp)
        else Put_ints is
      | 4 when av > 0 -> Get k
      | 5 -> Get_block (k, rand (av + 1))
      | 6 when av > 0 -> Get_some (k, 1 + rand 9)
      | 7 ->
        let floats = rand 2 = 0 and exact = rand 2 = 0 in
        let fits = if floats then D.is_float dtype else D.is_integer dtype in
        if exact then
          let n = rand (if fits then av + 1 else cap + 4) in
          if floats then Get_floats (k, n) else Get_ints (k, n)
        else if fits && av = 0 then Get_block (k, 0)
        else if floats then Get_floats_into (k, 1 + rand 9)
        else Get_ints_into (k, 1 + rand 9)
      | 8 when is_aggregate dtype ->
        let n = rand (sp + 1) in
        let b = to_lanes dtype (Array.init n (fun _ -> gen_value rng dtype)) in
        (* Sometimes one int lane just outside its dtype's range. *)
        let lanes = Array.of_list (int_lane_dtypes dtype) in
        let ni = Array.length lanes in
        (if n > 0 && ni > 0 && rand 3 = 0 then
           let i = rand (n * ni) in
           match V.int_range lanes.(i mod ni) with
           | Some (_, hi) -> b.ints.(i) <- hi + 1
           | None -> ());
        Put_lanes (b, n)
      | 8 -> Put_lanes ({ Cgsim.Port.ints = [||]; floats = [||] }, 0)
      | 9 -> Get_lanes (k, rand (if is_aggregate dtype then av + 1 else cap + 4))
      | _ -> Get_block (k, 0)
    in
    steps := (op, model_step m op) :: !steps
  done;
  List.split (List.rev !steps)

(* Both queues are instances of the one core, so one [Drive] runs the
   program through its exported signature, drains included. *)
module Drive (Q : Cgsim.Netq.S) = struct
  let floats fs = Array.to_list (Array.map (fun f -> V.Float f) fs)
  let ints is = Array.to_list (Array.map (fun i -> V.Int i) is)

  (* [in_context q program] runs the whole program once the queue is
     wired.  The model runs every endpoint on one thread and never
     blocks, so each endpoint may own a waker of its own. *)
  let run ~in_context dtype cap consumers ops =
    let q = Q.create ~name:"model" ~dtype ~capacity:cap () in
    let p = Q.add_producer q in
    let cs = Array.init consumers (fun _ -> Q.add_consumer q) in
    let module R = Cgsim.Ring in
    let upto kind k dst = Array.sub dst 0 (Q.read_upto kind cs.(k) dst 0 (Array.length dst)) in
    let step = function
      | Put v -> Q.put p v; []
      | Put_block vs -> Q.write R.values p vs 0 (Array.length vs); []
      | Put_floats fs -> Q.write R.floats p fs 0 (Array.length fs); []
      | Put_ints is -> Q.write R.ints p is 0 (Array.length is); []
      | Put_lanes (b, n) -> Q.write R.lanes p b 0 n; []
      | Get k -> [ Q.get cs.(k) ]
      | Get_block (k, n) ->
        let dst = Array.make n (V.Int 0) in
        Q.read R.values cs.(k) dst 0 n;
        Array.to_list dst
      | Get_floats (k, n) ->
        let dst = Array.make n 0.0 in
        Q.read R.floats cs.(k) dst 0 n;
        floats dst
      | Get_ints (k, n) ->
        let dst = Array.make n 0 in
        Q.read R.ints cs.(k) dst 0 n;
        ints dst
      | Get_lanes (k, n) ->
        let b = lane_buffer dtype n in
        Q.read R.lanes cs.(k) b 0 n;
        of_lanes dtype b n
      | Get_some (k, max) -> Array.to_list (upto R.values k (Array.make max (V.Int 0)))
      | Get_floats_into (k, len) -> floats (upto R.floats k (Array.make len 0.0))
      | Get_ints_into (k, len) -> ints (upto R.ints k (Array.make len 0))
    in
    in_context q (fun () ->
        List.map
          (fun op -> match step op with vs -> Vals vs | exception Invalid_argument _ -> Raised)
          ops)
end

module Drive_b = Drive (Cgsim.Bqueue)
module Drive_t = Drive (X86sim.Tqueue)

(* Bqueue: one fiber under Sched; a fiber that parked would leave no
   result. *)
let in_fiber _q f =
  let out = ref [] in
  let s = Cgsim.Sched.create () in
  Cgsim.Sched.spawn s ~name:"program" (fun () -> out := f ());
  ignore (Cgsim.Sched.run s);
  !out

(* Tqueue: on the calling thread.  An operation the model says cannot
   block must not: a watchdog poisons the queue after 5 s, so a wrongly
   blocking operation fails the property with [Terminated] instead of
   hanging the suite. *)
let on_thread q f =
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
    f

let obs_equal a b =
  match a, b with
  | Vals x, Vals y -> List.length x = List.length y && List.for_all2 V.equal x y
  | Raised, Raised -> true
  | _ -> false

let prop_ring_model =
  QCheck.Test.make ~name:"Bqueue and Tqueue match a list model" ~count:300
    (* A seed has no meaningful shrink; a failure reports the seed. *)
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let dtype = ring_dtypes.(Random.State.int rng (Array.length ring_dtypes)) in
      let cap = 1 + Random.State.int rng 9 and consumers = 1 + Random.State.int rng 3 in
      let ops, expected = gen_program rng dtype cap consumers in
      let agrees got = List.length got = List.length expected && List.for_all2 obs_equal got expected in
      agrees (Drive_b.run ~in_context:in_fiber dtype cap consumers ops)
      && agrees (Drive_t.run ~in_context:on_thread dtype cap consumers ops))

(* ------------------------------------------------------------------ *)
(* Every source and sink form, under both simulators                   *)
(* ------------------------------------------------------------------ *)

(* A passthrough graph per dtype runs under cgsim and x86sim with every
   source form and every sink form.  Both simulators must agree bit for
   bit: the same outputs when the run completes, the same failing
   endpoint when it does not.  A flat source fits a scalar net of its
   own kind, a typed buffer sink fits any scalar net; everything else
   must fail. *)

let io_dtypes =
  [ D.F32; D.F64; D.I8; D.I16; D.I32; D.I64; D.U8; D.U16; D.U32;
    D.Vector (D.I16, 4); D.Struct [ "re", D.F32; "im", D.F32 ] ]

let pass_kernel dtype =
  Cgsim.Kernel.define ~realm:Cgsim.Kernel.Aie ~name:("test_x86_pass_" ^ D.to_string dtype)
    [ Cgsim.Kernel.in_port "in" dtype; Cgsim.Kernel.out_port "out" dtype ]
    (fun b ->
      let i = Cgsim.Kernel.rd b 0 and o = Cgsim.Kernel.wr b 0 in
      while true do
        Cgsim.Port.put o (Cgsim.Port.get i)
      done)

let pass_graph dtype =
  let kernel = pass_kernel dtype in
  Cgsim.Builder.make ~name:"pass" ~inputs:[ "x", dtype ] (fun b conns ->
      let out = Cgsim.Builder.net b dtype in
      ignore (Cgsim.Builder.add_kernel b kernel [ List.hd conns; out ]);
      [ out ])

type source_form = Flat | Of_array | Of_list | Rtp
type sink_form = Buffer | F32_buffer | Int_buffer | Rtp_sink

let source_form_name = function
  | Flat -> "flat" | Of_array -> "of_array" | Of_list -> "of_list" | Rtp -> "rtp"

let sink_form_name = function
  | Buffer -> "buffer" | F32_buffer -> "f32_buffer" | Int_buffer -> "int_buffer"
  | Rtp_sink -> "rtp_sink"

(* [Flat] is the dtype's own flat form; an aggregate net gets floats. *)
let make_source form dtype (vs : V.t array) =
  match form with
  | Flat when D.is_integer dtype -> Cgsim.Io.of_int_array dtype (Array.map V.to_int vs)
  | Flat when D.is_float dtype -> Cgsim.Io.of_f32_array (Array.map V.to_float vs)
  | Flat -> Cgsim.Io.of_f32_array [| 1.5; 2.5 |]
  | Of_array -> Cgsim.Io.of_array vs
  | Of_list -> Cgsim.Io.of_list (Array.to_list vs)
  | Rtp -> Cgsim.Io.rtp vs.(0)

let make_sink = function
  | Buffer -> Cgsim.Io.buffer ()
  | F32_buffer ->
    let s, get = Cgsim.Io.f32_buffer () in
    s, fun () -> Array.to_list (Array.map (fun f -> V.Float f) (get ()))
  | Int_buffer ->
    let s, get = Cgsim.Io.int_buffer () in
    s, fun () -> Array.to_list (Array.map (fun i -> V.Int i) (get ()))
  | Rtp_sink ->
    let s, get = Cgsim.Io.rtp_sink () in
    s, fun () -> Option.to_list (get ())

type io_result =
  | Output of V.t list
  | Failed of Cgsim.Runtime.failure  (* the fiber or thread that raised *)

(* Both simulators return cgsim's outcome, so one match reads either. *)
let io_result sim outputs = function
  | Cgsim.Runtime.Completed _ -> Output (outputs ())
  | Cgsim.Runtime.Kernel_failed f -> Failed f
  | o -> Alcotest.failf "%s: %a" sim Cgsim.Runtime.pp_outcome o

let run_cgsim g src (snk, contents) =
  io_result "cgsim" contents (Cgsim.Runtime.execute g ~sources:[ src ] ~sinks:[ snk ])

let run_x86sim g src (snk, contents) =
  io_result "x86sim" contents (X86sim.Sim.run g ~sources:[ src ] ~sinks:[ snk ])

let who (f : Cgsim.Runtime.failure) = f.Cgsim.Runtime.f_kernel

(* Both backends record the same failure: who raised, where it was
   built, and what it raised. *)
let check_same_failure what (a : Cgsim.Runtime.failure) (b : Cgsim.Runtime.failure) =
  let open Cgsim.Runtime in
  Alcotest.(check string) (what ^ ": graph") a.f_graph b.f_graph;
  Alcotest.(check string) (what ^ ": culprit") a.f_kernel b.f_kernel;
  Alcotest.(check (option string)) (what ^ ": span")
    (Option.map Cgsim.Srcspan.to_string a.f_src)
    (Option.map Cgsim.Srcspan.to_string b.f_src);
  Alcotest.(check string) (what ^ ": exception") (Printexc.to_string a.f_exn)
    (Printexc.to_string b.f_exn)

let rec bits_equal a b =
  match a, b with
  | V.Float x, V.Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | V.Int x, V.Int y -> x = y
  | V.Vec x, V.Vec y -> Array.length x = Array.length y && Array.for_all2 bits_equal x y
  | V.Rec x, V.Rec y ->
    List.length x = List.length y
    && List.for_all2 (fun (n, v) (m, w) -> String.equal n m && bits_equal v w) x y
  | _ -> false

let test_sim_every_io_form () =
  let rng = Random.State.make [| 27 |] in
  List.iter
    (fun dtype ->
      let g = pass_graph dtype in
      let vs = Array.init 7 (fun _ -> gen_value rng dtype) in
      List.iter
        (fun sf ->
          List.iter
            (fun kf ->
              let what = Printf.sprintf "%s, %s into %s" (D.to_string dtype)
                  (source_form_name sf) (sink_form_name kf) in
              let src () = make_source sf dtype vs in
              let cg = run_cgsim g (src ()) (make_sink kf) in
              let x86 = run_x86sim g (src ()) (make_sink kf) in
              let source_fits = sf <> Flat || D.is_scalar dtype in
              let sink_fits = (kf <> F32_buffer && kf <> Int_buffer) || D.is_scalar dtype in
              let expected_len = if sf = Rtp || kf = Rtp_sink then 1 else Array.length vs in
              (match cg, x86 with
               | Output a, Output b ->
                 if not (source_fits && sink_fits) then Alcotest.failf "%s: both completed" what;
                 Alcotest.(check int) (what ^ ": length") expected_len (List.length a);
                 if not (List.length a = List.length b && List.for_all2 bits_equal a b) then
                   Alcotest.failf "%s: outputs differ" what
               | Failed a, Failed b ->
                 if source_fits && sink_fits then
                   Alcotest.failf "%s: both failed (%s)" what (who a);
                 let expected =
                   if source_fits then Cgsim.Io.sink_name (fst (make_sink kf))
                   else Cgsim.Io.source_name (src ())
                 in
                 Alcotest.(check string) (what ^ ": cgsim culprit") expected (who a);
                 Alcotest.(check string) (what ^ ": x86sim culprit") expected (who b)
               | Output _, Failed t -> Alcotest.failf "%s: only x86sim failed (%s)" what (who t)
               | Failed t, Output _ -> Alcotest.failf "%s: only cgsim failed (%s)" what (who t)))
            [ Buffer; F32_buffer; Int_buffer; Rtp_sink ])
        [ Flat; Of_array; Of_list; Rtp ])
    io_dtypes

(* [f ()] with backtrace recording on, then the caller's setting back. *)
let with_backtraces f =
  let recording = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  Fun.protect ~finally:(fun () -> Printexc.record_backtrace recording) f

(* With backtraces recorded, a failing source keeps its backtrace under
   both simulators. *)
let test_sim_payload_mismatch () =
  let g = pass_graph D.I16 in
  let src () = Cgsim.Io.of_f32_array [| 1.0; 2.0; 3.0 |] in
  let name = Cgsim.Io.source_name (src ()) in
  match
    with_backtraces (fun () ->
        run_cgsim g (src ()) (make_sink Buffer), run_x86sim g (src ()) (make_sink Buffer))
  with
  | Failed a, Failed b ->
    Alcotest.(check string) "cgsim names the source" name (who a);
    Alcotest.(check bool) "a source has no span" true (a.Cgsim.Runtime.f_src = None);
    check_same_failure "F32 payload on an I16 net" a b;
    Alcotest.(check bool) "cgsim records the backtrace" true (a.Cgsim.Runtime.f_backtrace <> "");
    Alcotest.(check bool) "x86sim records the backtrace" true (b.Cgsim.Runtime.f_backtrace <> "")
  | Output _, _ -> Alcotest.fail "cgsim accepted an F32 payload on an I16 net"
  | _, Output _ -> Alcotest.fail "x86sim accepted an F32 payload on an I16 net"

(* A kernel built with a source span fails the same way under both
   backends: same graph, instance, span and exception, and with
   backtraces recorded, a backtrace from each. *)
let test_sim_failure_parity () =
  let boom =
    Cgsim.Kernel.define ~realm:Cgsim.Kernel.Aie ~name:"x86_parity_boom"
      [ Cgsim.Kernel.in_port "in" D.F32; Cgsim.Kernel.out_port "out" D.F32 ]
      (fun b ->
        ignore (Cgsim.Port.get (Cgsim.Kernel.rd b 0));
        failwith "deliberate parity failure")
  in
  let span = Cgsim.Srcspan.make ~file:"parity.cgc" ~line:7 ~col:3 () in
  let g =
    Cgsim.Builder.make ~name:"parity_boom" ~inputs:[ "x", D.F32 ] (fun b conns ->
        let out = Cgsim.Builder.net b D.F32 in
        ignore (Cgsim.Builder.add_kernel b ~src:span boom [ List.hd conns; out ]);
        [ out ])
  in
  let src () = Cgsim.Io.of_f32_array [| 1.0; 2.0; 3.0 |] in
  match
    with_backtraces (fun () ->
        run_cgsim g (src ()) (make_sink Buffer), run_x86sim g (src ()) (make_sink Buffer))
  with
  | Failed a, Failed b ->
    Alcotest.(check string) "cgsim names the instance" "x86_parity_boom_0" (who a);
    Alcotest.(check (option string)) "cgsim keeps the span" (Some "parity.cgc:7:3")
      (Option.map Cgsim.Srcspan.to_string a.Cgsim.Runtime.f_src);
    check_same_failure "boom with a span" a b;
    Alcotest.(check bool) "cgsim records the backtrace" true (a.Cgsim.Runtime.f_backtrace <> "");
    Alcotest.(check bool) "x86sim records the backtrace" true (b.Cgsim.Runtime.f_backtrace <> "")
  | _ -> Alcotest.fail "a raising kernel completed"

(* Global-I/O shapes: x86sim's pull-on-empty readers and push-on-full
   writers against cgsim's pump fibers, bit for bit.  One graph holds
   every shape: the input [x] is read by a 16-element window kernel and
   a scalar kernel, whose output [scaled] is both a global output and
   the input of a downstream kernel; the vector input [v] is a global
   output too, and no kernel touches it; the vector input [w] passes
   through a kernel to the output [w2].  At a queue capacity of 16 the
   faster reader of [x] parks until the slower one retires, and every
   sink net fills and drains many times. *)

let win16_sum_kernel =
  Cgsim.Kernel.define ~realm:Cgsim.Kernel.Aie ~name:"test_x86_win16_sum"
    [ Cgsim.Kernel.in_port "in" D.F32; Cgsim.Kernel.out_port "out" D.F32 ]
    (fun b ->
      let i = Cgsim.Kernel.rd b 0 and o = Cgsim.Kernel.wr b 0 in
      let w = Array.make 16 0.0 in
      while true do
        Cgsim.Port.get_window_f32 i w;
        Cgsim.Port.put_f32 o (Array.fold_left ( +. ) 0.0 w)
      done)

let vec_dtype = D.Vector (D.I16, 4)

let io_shapes_graph () =
  let pass = pass_kernel vec_dtype in
  Cgsim.Builder.make ~name:"io_shapes" ~inputs:[ "x", D.F32; "v", vec_dtype; "w", vec_dtype ]
    (fun b conns ->
      match conns with
      | [ x; v; w ] ->
        let sums = Cgsim.Builder.net b D.F32 in
        let scaled = Cgsim.Builder.net b D.F32 in
        let twice = Cgsim.Builder.net b D.F32 in
        let w2 = Cgsim.Builder.net b vec_dtype in
        ignore (Cgsim.Builder.add_kernel b win16_sum_kernel [ x; sums ]);
        ignore (Cgsim.Builder.add_kernel b scale_kernel [ x; scaled ]);
        ignore (Cgsim.Builder.add_kernel b scale_kernel [ scaled; twice ]);
        ignore (Cgsim.Builder.add_kernel b pass [ w; w2 ]);
        [ sums; scaled; twice; v; w2 ]
      | _ -> assert false)

(* Outputs per sink, or the name of the endpoint that failed the run. *)
let run_io_shapes ~x86 ~v_sink ~w2_sink =
  let rng = Random.State.make [| 28 |] in
  let xs = Array.init 1024 (fun _ -> V.to_float (gen_value rng D.F32)) in
  let vs = Array.init 50 (fun _ -> gen_value rng vec_dtype) in
  let ws = Array.init 50 (fun _ -> gen_value rng vec_dtype) in
  let sinks =
    [ Cgsim.Io.buffer (); Cgsim.Io.buffer (); Cgsim.Io.buffer (); v_sink (); w2_sink () ]
  in
  let sources = [ Cgsim.Io.of_f32_array xs; Cgsim.Io.of_array vs; Cgsim.Io.of_array ws ] in
  let config = Cgsim.Run_config.(with_queue_capacity 16 default) in
  let g = io_shapes_graph () in
  let outputs () = List.concat_map (fun (_, contents) -> contents ()) sinks in
  let sim, run = if x86 then "x86sim", X86sim.Sim.run ~config else "cgsim", Cgsim.Runtime.execute ~config in
  io_result sim outputs (run g ~sources ~sinks:(List.map fst sinks))

let test_sim_io_shapes () =
  let buffer () = Cgsim.Io.buffer () in
  (match
     ( run_io_shapes ~x86:false ~v_sink:buffer ~w2_sink:buffer,
       run_io_shapes ~x86:true ~v_sink:buffer ~w2_sink:buffer )
   with
   | Output a, Output b ->
     Alcotest.(check int) "sums + scaled + twice + v + w2" (64 + 1024 + 1024 + 50 + 50)
       (List.length a);
     if not (List.length a = List.length b && List.for_all2 bits_equal a b) then
       Alcotest.fail "x86sim and cgsim outputs differ"
   | Failed f, _ | _, Failed f -> Alcotest.failf "%s failed" (who f));
  (* An F32 buffer cannot take vectors.  On [v] the sink fails in the
     push after the joins; on [w2] in the kernel's put that finds the
     ring full.  Either way the run fails under the sink's name. *)
  let f32_sink () =
    let s, contents = Cgsim.Io.f32_buffer () in
    s, fun () -> Array.to_list (Array.map (fun f -> V.Float f) (contents ()))
  in
  let name = Cgsim.Io.sink_name (fst (f32_sink ())) in
  List.iter
    (fun (x86, v_sink, w2_sink) ->
      match run_io_shapes ~x86 ~v_sink ~w2_sink with
      | Failed f -> Alcotest.(check string) "the failing sink is named" name (who f)
      | Output _ -> Alcotest.fail "vectors into an F32 buffer completed")
    [ false, f32_sink, buffer; true, f32_sink, buffer; false, buffer, f32_sink;
      true, buffer, f32_sink ]

(* 48 passthrough kernels, each with its own global input and output.
   One domain per kernel is 48 domains; a domain per source and per sink
   as well would be 144, over OCaml 5's cap of 128. *)
let test_sim_many_kernels () =
  let n = 48 in
  let kernel = pass_kernel D.F32 in
  let g =
    Cgsim.Builder.make ~name:"wide"
      ~inputs:(List.init n (fun i -> Printf.sprintf "x%d" i, D.F32))
      (fun b conns ->
        List.map
          (fun conn ->
            let out = Cgsim.Builder.net b D.F32 in
            ignore (Cgsim.Builder.add_kernel b kernel [ conn; out ]);
            out)
          conns)
  in
  let inputs = Array.init n (fun i -> Array.init 100 (fun j -> float_of_int ((i * 1000) + j))) in
  let sinks = List.init n (fun _ -> Cgsim.Io.f32_buffer ()) in
  let stats =
    Cgsim.Runtime.stats_exn
      (X86sim.Sim.run g
         ~sources:(Array.to_list (Array.map Cgsim.Io.of_f32_array inputs))
         ~sinks:(List.map fst sinks))
  in
  Alcotest.(check int) "one domain per kernel" n stats.Cgsim.Sched.spawned;
  List.iteri
    (fun i (_, contents) ->
      Alcotest.(check (array (float 0.))) (Printf.sprintf "output %d" i) inputs.(i) (contents ()))
    sinks

(* Deferred producer wakes must not strand a writer.  P fills X, blocks
   on one element more, then writes Y; Q retires one element of X (too
   few to wake P at once) and blocks on Y, so it must wake P before it
   waits.  In the second round Q retires one element of X while P is
   blocked again, and returns: its body's end must wake P.  The sleeps
   give P time to block on the full ring first. *)
let starve_cap = 8

let starve_p =
  let open Cgsim.Kernel in
  define ~realm:Aie ~name:"test_x86_starve_p"
    [ in_port "in" D.F32; out_port "x" D.F32; out_port "y" D.F32 ]
    (fun b ->
      let i = rd b 0 and x = wr b 0 and y = wr b 1 in
      let pass o = Cgsim.Port.put_f32 o (Cgsim.Port.get_f32 i) in
      for _ = 1 to starve_cap + 1 do pass x done;
      pass y;
      for _ = 1 to starve_cap do pass x done;
      pass y;
      pass x)

let starve_q =
  let open Cgsim.Kernel in
  define ~realm:Aie ~name:"test_x86_starve_q"
    [ in_port "x" D.F32; in_port "y" D.F32; out_port "z" D.F32 ]
    (fun b ->
      let x = rd b 0 and y = rd b 1 and z = wr b 0 in
      let pass r = Cgsim.Port.put_f32 z (Cgsim.Port.get_f32 r) in
      Unix.sleepf 0.02;
      pass x;
      pass y;
      for _ = 1 to starve_cap do pass x done;
      pass y;
      Unix.sleepf 0.02;
      pass x)

let test_sim_deferred_wakes_reach_writer () =
  let g =
    Cgsim.Builder.make ~name:"starve" ~inputs:[ "in", D.F32 ] (fun b conns ->
        let x = Cgsim.Builder.net b D.F32 and y = Cgsim.Builder.net b D.F32 in
        let z = Cgsim.Builder.net b D.F32 in
        ignore (Cgsim.Builder.add_kernel b starve_p [ List.hd conns; x; y ]);
        ignore (Cgsim.Builder.add_kernel b starve_q [ x; y; z ]);
        [ z ])
  in
  let xs = Array.init ((2 * starve_cap) + 4) float_of_int in
  let config = Cgsim.Run_config.(default |> with_queue_capacity starve_cap |> with_deadline_ms 5000.) in
  let cg_sink, cg_out = Cgsim.Io.f32_buffer () in
  (match Cgsim.Runtime.execute ~config g ~sources:[ Cgsim.Io.of_f32_array xs ] ~sinks:[ cg_sink ] with
   | Cgsim.Runtime.Completed _ -> ()
   | o -> Alcotest.failf "cgsim: %s" (Format.asprintf "%a" Cgsim.Runtime.pp_outcome o));
  let x86_sink, x86_out = Cgsim.Io.f32_buffer () in
  (match X86sim.Sim.run ~config g ~sources:[ Cgsim.Io.of_f32_array xs ] ~sinks:[ x86_sink ] with
   | Cgsim.Runtime.Completed _ -> ()
   | o -> Alcotest.failf "x86sim: %a" Cgsim.Runtime.pp_outcome o);
  Alcotest.(check int) "Q passes on both rounds" (starve_cap + 4)
    (Array.length (cg_out ()));
  Alcotest.(check (array (float 0.))) "x86sim == cgsim" (cg_out ()) (x86_out ())

(* x86sim's queues carry cgsim's queue notes: a traced farrow run at a
   tight queue capacity records an occupancy high-water mark and a
   blocked-read histogram for each of the two cascade nets that stage 2
   reads sample by sample. *)
let test_sim_queue_metrics () =
  let h = Apps.Harness.farrow in
  let g = h.Apps.Harness.graph () in
  let config = Cgsim.Run_config.(default |> with_queue_capacity 2 |> with_deadline_ms 20000.) in
  let sinks, _ = h.Apps.Harness.make_sinks () in
  let outcome, session =
    Obs.Trace.with_session (fun () ->
        X86sim.Sim.run ~config g ~sources:(h.Apps.Harness.sources ~reps:4) ~sinks)
  in
  (match outcome with
   | Cgsim.Runtime.Completed _ -> ()
   | o -> Alcotest.failf "farrow under x86sim: %a" Cgsim.Runtime.pp_outcome o);
  let snap = Obs.Metrics.snapshot session.Obs.Trace.metrics in
  let gauges = List.map (fun (m : Obs.Metrics.gauge_snapshot) -> m.g_name) snap.gauges in
  let histos = List.map (fun (m : Obs.Metrics.histo_snapshot) -> m.h_name) snap.histograms in
  let cascade =
    List.filter_map
      (fun (n : Cgsim.Serialized.net) ->
        if Cgsim.Dtype.equal n.dtype Apps.Farrow.cascade_dtype then
          Some (Printf.sprintf "%s/net%d" g.Cgsim.Serialized.gname n.net_id)
        else None)
      (Array.to_list g.Cgsim.Serialized.nets)
  in
  Alcotest.(check int) "two cascade nets" 2 (List.length cascade);
  List.iter
    (fun net ->
      List.iter
        (fun (what, names) ->
          if not (List.mem (what ^ net) names) then Alcotest.failf "no %s%s recorded" what net)
        [ "queue.occupancy_hw:", gauges; "queue.blocked_get:", histos ])
    cascade

let () =
  Alcotest.run "x86sim"
    [
      ( "tqueue",
        [
          Alcotest.test_case "spsc across domains" `Quick test_tqueue_spsc;
          Alcotest.test_case "broadcast" `Quick test_tqueue_broadcast;
          Alcotest.test_case "close then drain" `Quick test_tqueue_close_then_get;
          Alcotest.test_case "put after done" `Quick test_tqueue_put_after_done;
          Alcotest.test_case "dtype checked" `Quick test_tqueue_dtype_checked;
          Alcotest.test_case "block ops, concurrent producers" `Quick
            test_tqueue_block_concurrent_producers;
          Alcotest.test_case "block > capacity" `Quick test_tqueue_block_larger_than_capacity;
          Alcotest.test_case "eos mid-block" `Quick test_tqueue_block_eos_midblock;
          Alcotest.test_case "element ops allocate nothing" `Quick
            test_tqueue_element_ops_allocate_nothing;
        ] );
      "ring-model", [ QCheck_alcotest.to_alcotest prop_ring_model ];
      ( "sim",
        [
          Alcotest.test_case "io count mismatch" `Quick test_sim_io_count_mismatch;
          Alcotest.test_case "kernel failure reported" `Quick test_sim_kernel_failure_reported;
          Alcotest.test_case "thread count" `Quick test_sim_thread_count;
          QCheck_alcotest.to_alcotest prop_x86sim_random_chain;
          Alcotest.test_case "x86sim == cgsim on every source and sink form" `Quick
            test_sim_every_io_form;
          Alcotest.test_case "F32 payload on an I16 net fails naming the source" `Quick
            test_sim_payload_mismatch;
          Alcotest.test_case "x86sim runs 48 independent passthrough kernels" `Quick
            test_sim_many_kernels;
          Alcotest.test_case "x86sim == cgsim on global-I/O shapes" `Quick test_sim_io_shapes;
          Alcotest.test_case "refuses bad graphs like cgsim" `Quick test_sim_refuses_like_cgsim;
          Alcotest.test_case "a deferred wake reaches a blocked writer" `Quick
            test_sim_deferred_wakes_reach_writer;
          Alcotest.test_case "traced farrow records cgsim's queue metrics" `Quick
            test_sim_queue_metrics;
          Alcotest.test_case "a failing kernel is recorded as cgsim records it" `Quick
            test_sim_failure_parity;
        ] );
    ]
