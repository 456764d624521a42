(* Bechamel micro-benchmarks of the framework's moving parts: queue
   transfer, context switch, vector intrinsics, graph construction and
   instantiation, and aiesim's capture and replay phases.  These back the
   design claims in DESIGN.md (cooperative switching is cheap;
   construction cost is front-loaded).

   On top of the bechamel estimates, a manually-timed element-vs-block
   queue transfer on the same queue configuration backs the block
   fast-path claim in docs/PERFORMANCE.md — the block side rides the
   unboxed (bigarray-backed) data plane, so it is a bounds-checked blit.
   A cross-domain row moves the same blocks through x86sim's queue, the
   domain binding of the same queue core.  A three-kernel rate-matched
   chain row gives the per-element cost of
   the runtime's one-fiber-per-kernel execution.  The alloc rows count
   the minor-heap words one warm run allocates per app.  [run ~json:file]
   writes every number as machine-readable JSON (schema
   "cgsim-bench-micro/7") so CI can parse it back and the repo can
   commit a baseline. *)

open Bechamel
open Toolkit

let queue_transfer =
  Test.make ~name:"bqueue: 1k elements producer->consumer"
    (Staged.stage (fun () ->
         let q = Cgsim.Bqueue.create ~name:"bench" ~dtype:Cgsim.Dtype.I32 ~capacity:16 () in
         let p = Cgsim.Bqueue.add_producer q in
         let c = Cgsim.Bqueue.add_consumer q in
         let s = Cgsim.Sched.create () in
         Cgsim.Sched.spawn s ~name:"producer" (fun () ->
             for i = 1 to 1000 do
               Cgsim.Bqueue.put p (Cgsim.Value.Int i)
             done;
             Cgsim.Bqueue.producer_done p);
         Cgsim.Sched.spawn s ~name:"consumer" (fun () ->
             let rec loop () =
               ignore (Cgsim.Bqueue.get c);
               loop ()
             in
             loop ());
         ignore (Cgsim.Sched.run s)))

let context_switch =
  Test.make ~name:"sched: 1k yields across 2 fibers"
    (Staged.stage (fun () ->
         let s = Cgsim.Sched.create () in
         let fiber () =
           for _ = 1 to 500 do
             Cgsim.Sched.yield ()
           done
         in
         Cgsim.Sched.spawn s ~name:"a" fiber;
         Cgsim.Sched.spawn s ~name:"b" fiber;
         ignore (Cgsim.Sched.run s)))

let fpmac_bench =
  let a = Array.make 8 1.5 and b = Array.make 8 0.25 and acc = Array.make 8 0.0 in
  let dst = Array.make 8 0.0 in
  Test.make ~name:"intrinsics: fpmac 8-lane"
    (Staged.stage (fun () -> Aie.Intrinsics.fpmac None ~dst acc a b))

(* iir's op: the scalar is a lane of a caller array. *)
let fpmac_scalar_bench =
  let src = Array.make 8 1.5 and b = Array.make 8 0.25 and acc = Array.make 8 0.0 in
  let dst = Array.make 8 0.0 in
  Test.make ~name:"intrinsics: fpmac_scalar 8-lane"
    (Staged.stage (fun () -> Aie.Intrinsics.fpmac_scalar None ~dst acc src 3 b))

(* The kernel's form: the input is copied into the lanes the sort works
   in, then sorted in place. *)
let sort16_bench =
  let input = Workloads.Signals.random_f32 ~seed:1 16 in
  let v = Array.make 16 0.0 and s = Apps.Bitonic.scratch None in
  Test.make ~name:"bitonic: sort one 16-vector"
    (Staged.stage (fun () ->
         Array.blit input 0 v 0 16;
         Apps.Bitonic.sort_vector s v))

let graph_construction =
  Test.make ~name:"builder: freeze bitonic graph"
    (Staged.stage (fun () -> ignore (Apps.Bitonic.graph ())))

let runtime_instantiation =
  let g = Apps.Bitonic.graph () in
  Test.make ~name:"runtime: instantiate bitonic graph"
    (Staged.stage (fun () -> ignore (Cgsim.Runtime.instantiate g)))

let runtime_reset =
  let compiled = Cgsim.Runtime.compile (Apps.Bitonic.graph ()) in
  let inst = Cgsim.Runtime.new_instance compiled in
  Test.make ~name:"runtime: reset bitonic instance"
    (Staged.stage (fun () -> Cgsim.Runtime.reset inst))

(* aiesim's two phases on one input, so a change to either shows in its
   own row: the functional capture under tracing, and the virtual-time
   replay of one stored capture. *)
let aiesim_reps = 512

let aiesim_capture h deploy =
  let sinks, _ = h.Apps.Harness.make_sinks () in
  Aiesim.Sim.capture deploy ~sources:(h.Apps.Harness.sources ~reps:aiesim_reps) ~sinks

let aiesim_capture_bench =
  let h = Apps.Harness.bitonic in
  let deploy = Aiesim.Deploy.baseline (h.Apps.Harness.graph ()) in
  Test.make
    ~name:(Printf.sprintf "aiesim: capture bitonic %d reps" aiesim_reps)
    (Staged.stage (fun () -> ignore (aiesim_capture h deploy)))

let aiesim_replay_bench =
  let h = Apps.Harness.bitonic in
  let deploy = Aiesim.Deploy.baseline (h.Apps.Harness.graph ()) in
  (* Captured on first use, not when the bench binary starts. *)
  let cap = lazy (aiesim_capture h deploy) in
  Test.make
    ~name:(Printf.sprintf "aiesim: replay bitonic %d reps" aiesim_reps)
    (Staged.stage (fun () -> ignore (Aiesim.Sim.replay deploy (Lazy.force cap))))

let tests =
  [
    queue_transfer;
    context_switch;
    fpmac_bench;
    fpmac_scalar_bench;
    sort16_bench;
    graph_construction;
    runtime_instantiation;
    runtime_reset;
    aiesim_capture_bench;
    aiesim_replay_bench;
  ]

let bechamel_results ~quota =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instance = Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:(Some 1000) () in
  List.concat_map
    (fun test ->
      let results = Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"g" [ test ]) in
      let analyzed = Analyze.all ols instance results in
      Hashtbl.fold
        (fun name ols_result acc ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> (name, est) :: acc
          | _ -> acc)
        analyzed [])
    tests

(* ------------------------------------------------------------------ *)
(* Element-vs-block transfer on one queue configuration                 *)
(* ------------------------------------------------------------------ *)

let transfer_capacity = 4096

let transfer_chunk = 512

(* Move [elements] I32 values through one capacity-[transfer_capacity]
   queue between a producer and a consumer fiber; returns wall ns. *)
let time_element_path ~elements =
  let q =
    Cgsim.Bqueue.create ~name:"xfer-elem" ~dtype:Cgsim.Dtype.I32 ~capacity:transfer_capacity ()
  in
  let p = Cgsim.Bqueue.add_producer q in
  let c = Cgsim.Bqueue.add_consumer q in
  let s = Cgsim.Sched.create () in
  let v = Cgsim.Value.Int 7 in
  Cgsim.Sched.spawn s ~name:"producer" (fun () ->
      for _ = 1 to elements do
        Cgsim.Bqueue.put p v
      done;
      Cgsim.Bqueue.producer_done p);
  Cgsim.Sched.spawn s ~name:"consumer" (fun () ->
      let rec loop () =
        ignore (Cgsim.Bqueue.get c);
        loop ()
      in
      loop ());
  let t0 = Obs.Clock.now_ns () in
  ignore (Cgsim.Sched.run s);
  Obs.Clock.now_ns () -. t0

(* Same traffic, but the producer writes [transfer_chunk]-element flat
   int blocks and the consumer drains with [read_upto] into one
   reused buffer — the unboxed fast path: both sides are bounds-checked
   blits against the bigarray-backed ring, no per-element boxing and no
   per-chunk allocation anywhere. *)
let time_block_path ~elements =
  let q =
    Cgsim.Bqueue.create ~name:"xfer-blk" ~dtype:Cgsim.Dtype.I32 ~capacity:transfer_capacity ()
  in
  let p = Cgsim.Bqueue.add_producer q in
  let c = Cgsim.Bqueue.add_consumer q in
  let s = Cgsim.Sched.create () in
  let block = Array.make transfer_chunk 7 in
  let blocks = elements / transfer_chunk in
  Cgsim.Sched.spawn s ~name:"producer" (fun () ->
      for _ = 1 to blocks do
        Cgsim.Bqueue.write Cgsim.Ring.ints p block 0 transfer_chunk
      done;
      Cgsim.Bqueue.producer_done p);
  Cgsim.Sched.spawn s ~name:"consumer" (fun () ->
      let buf = Array.make transfer_chunk 0 in
      let rec loop () =
        ignore (Cgsim.Bqueue.read_upto Cgsim.Ring.ints c buf 0 transfer_chunk);
        loop ()
      in
      loop ());
  let t0 = Obs.Clock.now_ns () in
  ignore (Cgsim.Sched.run s);
  Obs.Clock.now_ns () -. t0

(* The block traffic of [time_block_path] between two domains through
   x86sim's queue: the calling domain writes the blocks and a consumer
   domain reads each one back whole, so every wait is a condition
   variable's.  The clock starts once the consumer is spawned; the
   element count it read is checked. *)
let time_domain_block_path ~elements =
  let q =
    X86sim.Tqueue.create ~name:"xfer-dom" ~dtype:Cgsim.Dtype.I32 ~capacity:transfer_capacity ()
  in
  let p = X86sim.Tqueue.add_producer q in
  let c = X86sim.Tqueue.add_consumer q in
  let block = Array.make transfer_chunk 7 in
  let blocks = elements / transfer_chunk in
  let consumer =
    Domain.spawn (fun () ->
        let buf = Array.make transfer_chunk 0 in
        let rec loop got =
          match X86sim.Tqueue.read Cgsim.Ring.ints c buf 0 transfer_chunk with
          | () -> loop (got + transfer_chunk)
          | exception Cgsim.Sched.End_of_stream -> got
        in
        loop 0)
  in
  let t0 = Obs.Clock.now_ns () in
  for _ = 1 to blocks do
    X86sim.Tqueue.write Cgsim.Ring.ints p block 0 transfer_chunk
  done;
  X86sim.Tqueue.producer_done p;
  let got = Domain.join consumer in
  let ns = Obs.Clock.now_ns () -. t0 in
  if got <> blocks * transfer_chunk then
    failwith (Printf.sprintf "domain block bench: read %d of %d elements" got (blocks * transfer_chunk));
  ns

let best_of n f =
  let rec go i acc = if i >= n then acc else go (i + 1) (Float.min acc (f ())) in
  go 1 (f ())

type block_comparison = {
  elements : int;
  element_ns_per_elem : float;
  block_ns_per_elem : float;
  speedup : float;
  domain_block_ns_per_elem : float;
}

(* Sized so the block rows time at least ~1 ms per round even in the
   smoke: at a few ns per element, shorter rounds spread by whole ns. *)
let compare_transfer ~smoke =
  let elements = if smoke then 1 lsl 20 else 1 lsl 22 in
  let rounds = if smoke then 2 else 5 in
  let element_ns = best_of rounds (fun () -> time_element_path ~elements) in
  let block_ns = best_of rounds (fun () -> time_block_path ~elements) in
  let domain_ns = best_of rounds (fun () -> time_domain_block_path ~elements) in
  let n = float_of_int elements in
  {
    elements;
    element_ns_per_elem = element_ns /. n;
    block_ns_per_elem = block_ns /. n;
    speedup = element_ns /. block_ns;
    domain_block_ns_per_elem = domain_ns /. n;
  }

type chain_timing = {
  c_kernels : int;
  c_rate : int;
  c_elements : int;
  c_ns_per_elem : float;
}

(* Three rate-matched F32 scale kernels in a line: each hop moves whole
   64-element windows and the per-window arithmetic is a single multiply,
   so queue transfer and fiber hand-off dominate.  Every hop is a Bqueue
   with a scheduler round-trip per window — the per-hop cost any
   compile-time schedule for such a chain has to beat.

   The graph boundary (source and sink) nets get a deep DMA-style
   buffer so the row isolates the inter-kernel hops; the chain-internal
   nets keep the realistic default stream depth. *)
let chain_rate = 64

let chain_boundary_depth = 4096

let chain_scale_kernel ?in_settings ?out_settings name factor =
  Cgsim.Kernel.define ~realm:Cgsim.Kernel.Aie ~name ~pure:true
    ~rates:[ "in", chain_rate; "out", chain_rate ]
    [
      Cgsim.Kernel.in_port ?settings:in_settings "in" Cgsim.Dtype.F32;
      Cgsim.Kernel.out_port ?settings:out_settings "out" Cgsim.Dtype.F32;
    ]
    (fun b ->
      let i = Cgsim.Kernel.rd b 0 and o = Cgsim.Kernel.wr b 0 in
      let w = Array.make chain_rate 0.0 in
      while true do
        Cgsim.Port.get_window_f32 i w;
        for k = 0 to chain_rate - 1 do
          w.(k) <- w.(k) *. factor
        done;
        Cgsim.Port.put_window_f32 o w
      done)

let chain_kernels =
  let deep = Cgsim.Settings.(with_depth chain_boundary_depth default) in
  [
    chain_scale_kernel ~in_settings:deep "micro_scale_a" 2.0;
    chain_scale_kernel "micro_scale_b" 3.0;
    chain_scale_kernel ~out_settings:deep "micro_scale_c" 0.5;
  ]

let chain_graph () =
  match chain_kernels with
  | [ ka; kb; kc ] ->
    Cgsim.Builder.make ~name:"micro_chain" ~inputs:[ "in", Cgsim.Dtype.F32 ]
      (fun b conns ->
        let n1 = Cgsim.Builder.net b Cgsim.Dtype.F32 in
        let n2 = Cgsim.Builder.net b Cgsim.Dtype.F32 in
        let out = Cgsim.Builder.net b Cgsim.Dtype.F32 in
        ignore (Cgsim.Builder.add_kernel b ka [ List.hd conns; n1 ]);
        ignore (Cgsim.Builder.add_kernel b kb [ n1; n2 ]);
        ignore (Cgsim.Builder.add_kernel b kc [ n2; out ]);
        [ out ])
  | _ -> assert false

let time_chain ~elements =
  let g = chain_graph () in
  let input = Array.init elements (fun i -> float_of_int (i land 1023)) in
  let inst = Cgsim.Runtime.new_instance (Cgsim.Runtime.compile g) in
  let sink, _ = Cgsim.Io.f32_buffer () in
  let t0 = Obs.Clock.now_ns () in
  (match Cgsim.Runtime.run inst ~sources:[ Cgsim.Io.of_f32_array input ] ~sinks:[ sink ] with
   | Cgsim.Runtime.Completed _ -> ()
   | o -> Format.kasprintf failwith "chain bench: %a" Cgsim.Runtime.pp_outcome o);
  Obs.Clock.now_ns () -. t0

let time_chain_row ~smoke =
  let elements = if smoke then 65536 else 262144 in
  let rounds = if smoke then 2 else 5 in
  (* Earlier sections (bechamel, block transfer) leave a large live major
     heap; compact so the row starts from the same GC state whatever ran
     before it. *)
  Gc.compact ();
  let ns = best_of rounds (fun () -> time_chain ~elements) in
  {
    c_kernels = 3;
    c_rate = chain_rate;
    c_elements = elements;
    c_ns_per_elem = ns /. float_of_int elements;
  }

type warm_comparison = {
  w_requests : int;
  w_reps : int;
  cold_us_per_req : float;
  warm_us_per_req : float;
  w_speedup : float;
}

(* Serving-shaped requests (bitonic at a small repetition count, where
   setup cost is a large fraction of the request) served cold — a fresh
   instantiation per request, lint included, exactly what a naive server
   does — against warm: compile once, one instance, reset between
   requests.  The per-request saving is what {!Cgsim.Pool}'s warm cache
   banks per attempt. *)
let compare_warm ~smoke =
  let h = Apps.Harness.bitonic in
  let reps = 4 in
  let requests = if smoke then 32 else 256 in
  let run_request inst =
    let sinks, _ = h.Apps.Harness.make_sinks () in
    match Cgsim.Runtime.run inst ~sources:(h.Apps.Harness.sources ~reps) ~sinks with
    | Cgsim.Runtime.Completed _ -> ()
    | o -> Format.kasprintf failwith "warm-serve bench: %a" Cgsim.Runtime.pp_outcome o
  in
  let g = h.Apps.Harness.graph () in
  let cold () =
    let t0 = Obs.Clock.now_ns () in
    for _ = 1 to requests do
      run_request (Cgsim.Runtime.instantiate g)
    done;
    Obs.Clock.now_ns () -. t0
  in
  let warm () =
    let inst = Cgsim.Runtime.new_instance (Cgsim.Runtime.compile g) in
    let t0 = Obs.Clock.now_ns () in
    for _ = 1 to requests do
      Cgsim.Runtime.reset inst;
      run_request inst
    done;
    Obs.Clock.now_ns () -. t0
  in
  let rounds = if smoke then 2 else 5 in
  let cold_ns = best_of rounds cold in
  let warm_ns = best_of rounds warm in
  let n = float_of_int requests in
  {
    w_requests = requests;
    w_reps = reps;
    cold_us_per_req = cold_ns /. n /. 1e3;
    warm_us_per_req = warm_ns /. n /. 1e3;
    w_speedup = cold_ns /. warm_ns;
  }

(* Minor words one warm [Runtime.run] allocates, per app at the request
   sizes of the benchmark's pool_mix workload (bitonic 4 reps, bilinear
   1, farrow 2, iir 1): sources and sinks are built before the measured
   call, and the instance has run once and been reset.  A count, not a
   timing: it repeats exactly from run to run of one build. *)
let alloc_sizes = [ "bitonic", 4; "bilinear", 1; "farrow", 2; "iir", 1 ]

let alloc_words_per_req () =
  List.map
    (fun (name, reps) ->
      let h = Option.get (Apps.Harness.find name) in
      let inst = Cgsim.Runtime.new_instance (Cgsim.Runtime.compile (h.Apps.Harness.graph ())) in
      let run () =
        let sources = h.Apps.Harness.sources ~reps in
        let sinks, _ = h.Apps.Harness.make_sinks () in
        let before = Gc.minor_words () in
        (match Cgsim.Runtime.run inst ~sources ~sinks with
         | Cgsim.Runtime.Completed _ -> ()
         | o -> Format.kasprintf failwith "alloc bench %s: %a" name Cgsim.Runtime.pp_outcome o);
        let words = Gc.minor_words () -. before in
        Cgsim.Runtime.reset inst;
        words
      in
      ignore (run ());
      name, reps, run ())
    alloc_sizes

let json_of_alloc rows =
  Obs.Json.Arr
    (List.map
       (fun (name, reps, words) ->
         Obs.Json.Obj
           [
             "name", Obs.Json.Str ("alloc.words_per_req." ^ name);
             "reps", Obs.Json.Num (float_of_int reps);
             "words", Obs.Json.Num words;
           ])
       rows)

let json_of_warm (w : warm_comparison) =
  Obs.Json.Obj
    [
      "requests", Obs.Json.Num (float_of_int w.w_requests);
      "reps_per_request", Obs.Json.Num (float_of_int w.w_reps);
      "cold_us_per_req", Obs.Json.Num w.cold_us_per_req;
      "warm_us_per_req", Obs.Json.Num w.warm_us_per_req;
      "speedup", Obs.Json.Num w.w_speedup;
    ]

let json_of_chain (c : chain_timing) =
  Obs.Json.Obj
    [
      "kernels", Obs.Json.Num (float_of_int c.c_kernels);
      "rate", Obs.Json.Num (float_of_int c.c_rate);
      "elements", Obs.Json.Num (float_of_int c.c_elements);
      "ns_per_elem", Obs.Json.Num c.c_ns_per_elem;
    ]

let json_of_run ~smoke ~bechamel (cmp : block_comparison) (ch : chain_timing)
    (w : warm_comparison) alloc =
  Obs.Json.Obj
    [
      "schema", Obs.Json.Str "cgsim-bench-micro/7";
      "smoke", Obs.Json.Bool smoke;
      ( "results",
        Obs.Json.Arr
          (List.map
             (fun (name, ns) ->
               Obs.Json.Obj [ "name", Obs.Json.Str name; "ns_per_run", Obs.Json.Num ns ])
             bechamel) );
      ( "block_transfer",
        Obs.Json.Obj
          [
            "elements", Obs.Json.Num (float_of_int cmp.elements);
            "capacity", Obs.Json.Num (float_of_int transfer_capacity);
            "chunk", Obs.Json.Num (float_of_int transfer_chunk);
            "element_ns_per_elem", Obs.Json.Num cmp.element_ns_per_elem;
            "block_ns_per_elem", Obs.Json.Num cmp.block_ns_per_elem;
            "speedup", Obs.Json.Num cmp.speedup;
            "domain_block_ns_per_elem", Obs.Json.Num cmp.domain_block_ns_per_elem;
          ] );
      "chain", json_of_chain ch;
      "warm_serve", json_of_warm w;
      "alloc", json_of_alloc alloc;
    ]

let run ?json ?(smoke = false) () =
  (* Time the chain first: it is the most GC/process-state-sensitive
     row, and the bechamel + transfer sections leave the process
     measurably slower (larger heap, hot allocator) in a way that best-of
     minima do not recover from. *)
  let ch = time_chain_row ~smoke in
  Printf.printf "\n== Micro-benchmarks (bechamel) ==\n%!";
  let quota = if smoke then 0.02 else 0.25 in
  let bechamel = bechamel_results ~quota in
  List.iter (fun (name, est) -> Printf.printf "%-45s %12.1f ns/run\n%!" name est) bechamel;
  Printf.printf "\n== Block-transfer fast path (same queue, cap=%d, chunk=%d) ==\n%!"
    transfer_capacity transfer_chunk;
  let cmp = compare_transfer ~smoke in
  Printf.printf "%-45s %12.2f ns/elem\n" "element path (put/get)" cmp.element_ns_per_elem;
  Printf.printf "%-45s %12.2f ns/elem\n" "block path (write/read_upto, ints)" cmp.block_ns_per_elem;
  Printf.printf "%-45s %12.2fx\n" "speedup" cmp.speedup;
  Printf.printf "%-45s %12.2f ns/elem\n%!" "block path across two domains (Tqueue, ints)"
    cmp.domain_block_ns_per_elem;
  Printf.printf "\n== Chain (%d rate-matched kernels, window=%d) ==\n%!" ch.c_kernels ch.c_rate;
  Printf.printf "%-45s %12.2f ns/elem\n%!" "one fiber + queue per hop" ch.c_ns_per_elem;
  let w = compare_warm ~smoke in
  Printf.printf "\n== Warm serving (bitonic, %d reps/request, %d requests) ==\n%!" w.w_reps
    w.w_requests;
  Printf.printf "%-45s %12.2f us/req\n" "cold (instantiate per request)" w.cold_us_per_req;
  Printf.printf "%-45s %12.2f us/req\n" "warm (compile once, reset between)" w.warm_us_per_req;
  Printf.printf "%-45s %12.2fx\n%!" "speedup" w.w_speedup;
  let alloc = alloc_words_per_req () in
  Printf.printf "\n== Allocation (minor words per warm run) ==\n%!";
  List.iter
    (fun (name, reps, words) ->
      Printf.printf "%-45s %12.0f words\n%!" (Printf.sprintf "alloc.words_per_req.%s (%d reps)" name reps) words)
    alloc;
  match json with
  | None -> ()
  | Some file ->
    let doc = json_of_run ~smoke ~bechamel cmp ch w alloc in
    (try Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc (Obs.Json.to_string doc))
     with Sys_error msg ->
       Printf.eprintf "error: cannot write %s: %s\n" file msg;
       exit 1);
    Printf.printf "wrote micro-benchmark JSON to %s\n%!" file
