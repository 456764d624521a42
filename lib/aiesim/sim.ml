exception Sim_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Sim_error s)) fmt

type kernel_report = {
  k_name : string;
  iterations : int;
  first_mark_cycles : float;
  avg_interval_cycles : float;
  busy_cycles : int;
  marks : float list;
}

type report = {
  label : string;
  total_cycles : float;
  blocks : int;
  ns_per_block : float;
  kernels : kernel_report list;
  capture_stats : Cgsim.Sched.stats;
  trace_events : int;
}

let pp_report ppf r =
  Format.fprintf ppf "@[<v>deploy %s: %.0f cycles total, %d blocks, %.1f ns/block@," r.label
    r.total_cycles r.blocks r.ns_per_block;
  List.iter
    (fun k ->
      Format.fprintf ppf "  %s: %d iters, fill %.0f cyc, interval %.1f cyc (%.1f ns), busy %d cyc@,"
        k.k_name k.iterations k.first_mark_cycles k.avg_interval_cycles
        (Aie.Cfg.cycles_to_ns k.avg_interval_cycles)
        k.busy_cycles)
    r.kernels;
  Format.fprintf ppf "@]"

(* ------------------------------------------------------------------ *)
(* Phase 1: functional capture                                         *)
(* ------------------------------------------------------------------ *)

(* The adapter costs a kernel's port accesses pay: a thunked deploy's,
   on AIE kernels only. *)
let thunk_costs (d : Deploy.t) (inst : Cgsim.Serialized.kernel_inst) =
  match d.Deploy.adapter with
  | Deploy.Thunk costs when inst.kernel.Cgsim.Kernel.realm = Cgsim.Kernel.Aie -> Some costs
  | Deploy.Thunk _ | Deploy.Direct -> None

type capture_result = {
  traces : (string * Aie.Trace.event list) list;  (* per kernel instance *)
  traffic : int array;  (* elements per net *)
  stats : Cgsim.Sched.stats;
  events_total : int;
}

let capture ?(config = Cgsim.Run_config.default) (d : Deploy.t) ~sources ~sinks =
  let g = d.Deploy.graph in
  let net_of inst port_idx = g.Cgsim.Serialized.nets.(inst.Cgsim.Serialized.port_nets.(port_idx)) in
  (* One recorder per kernel instance, found by physical identity: it
     is the kernel's context, and its port taps push into it. *)
  let recorders =
    Array.to_list
      (Array.map
         (fun (inst : Cgsim.Serialized.kernel_inst) -> inst, Aie.Trace.create_recorder ())
         g.kernels)
  in
  let context inst = Aie.Trace.Recorder (List.assq inst recorders) in
  (* Capture tap: one Port_read/Port_write event per element moved, so
     block transfers keep per-element cycle accounting. *)
  let tap (inst : Cgsim.Serialized.kernel_inst) port_idx port =
    let r = List.assq inst recorders in
    let net = net_of inst port_idx in
    let transport = Cgsim.Settings.resolved_transport net.Cgsim.Serialized.settings in
    let bytes = Cgsim.Dtype.size_bytes net.Cgsim.Serialized.dtype in
    let thunked = Option.is_some (thunk_costs d inst) in
    let stream = transport = Cgsim.Settings.Stream in
    let ev =
      match inst.kernel.Cgsim.Kernel.ports.(port_idx).Cgsim.Kernel.dir with
      | Cgsim.Kernel.In -> Aie.Trace.Port_read { port; bytes; transport; thunked }
      | Cgsim.Kernel.Out -> Aie.Trace.Port_write { port; bytes; transport; thunked }
    in
    Some
      {
        Cgsim.Port.no_tap with
        after =
          (fun n ->
            for _ = 1 to n do
              Aie.Trace.push r ev
            done);
        (* An AIE core has no burst buffer behind its stream ports — every
           write is one switch beat.  Advertising zero advisory space makes
           interleave-aware block writers (put_window2) degrade to the
           per-beat order the hardware would emit, so the captured event
           order stays replayable against the switch-FIFO capacities even
           though cgsim's own queues are deep enough to absorb whole-group
           bursts. *)
        hold_space = (fun () -> stream);
      }
  in
  let ctx = Cgsim.Runtime.instantiate ~config ~tap ~context g in
  let stats =
    match Cgsim.Runtime.run ctx ~sources ~sinks with
    | Cgsim.Runtime.Completed stats -> stats
    | o ->
      (* A capture cut short by deadline, cancellation or kernel failure
         has no replayable trace; surface it as a simulator error. *)
      fail "capture of %s did not complete: %a" g.Cgsim.Serialized.gname Cgsim.Runtime.pp_outcome
        o
  in
  let traces =
    List.map
      (fun ((inst : Cgsim.Serialized.kernel_inst), r) -> inst.inst_name, Aie.Trace.events r)
      recorders
  in
  let events_total =
    List.fold_left (fun acc (_, r) -> acc + Aie.Trace.event_count r) 0 recorders
  in
  { traces; traffic = Cgsim.Runtime.net_traffic ctx; stats; events_total }

(* ------------------------------------------------------------------ *)
(* Phase 2: virtual-time replay                                        *)
(* ------------------------------------------------------------------ *)

(* [avail_time]'s answer for a position the write log does not reach yet:
   below every cycle, so [Float.max t not_written = t]. *)
let not_written = Float.neg_infinity

type rstate = {
  mutable cursor : int;  (* cumulative bytes consumed *)
  mutable widx : int;  (* index into the write log for avail lookup *)
}

type chan = {
  capacity : int;  (* bytes *)
  route_cycles : int;
  (* The write log, in write order, [wlen] live entries: entry [i] makes
     cumulative byte position [upto.(i)] visible to readers at cycle
     [avail.(i)]. *)
  mutable avail : floatarray;
  mutable upto : int array;
  mutable wlen : int;
  mutable produced : int;  (* cumulative bytes *)
  mutable last_avail : float;
  mutable last_consume : float;
  mutable readers : rstate array;
  mutable wait_read : proc list;
  mutable wait_write : proc list;
}

and proc = {
  p_name : string;
  prog : Segments.seg array;
  mutable pc : int;  (* index of the head segment *)
  mutable time : float;
  mutable runnable : bool;
  mutable done_ : bool;
  mutable marks : floatarray;  (* iteration timestamps; [n_marks] live *)
  mutable n_marks : int;
  mutable busy : int;
  mutable io_remaining : int;  (* bytes left of the head Rd/Wr; -1 = fresh *)
  mutable was_blocked : bool;  (* head segment blocked at least once *)
  reads : rstate array;  (* by channel id: this process's read cursor *)
}

(* The [reads] entry of a channel the process does not read. *)
let no_reader = { cursor = 0; widx = 0 }

let min_cursor ch =
  let m = ref ch.produced in
  for i = 0 to Array.length ch.readers - 1 do
    m := Int.min !m ch.readers.(i).cursor
  done;
  !m

(* Availability time of cumulative byte position [upto] for reader [r],
   or [not_written]; amortized O(1) via the reader's cached entry index. *)
let avail_time ch r upto =
  while r.widx < ch.wlen && ch.upto.(r.widx) < upto do
    r.widx <- r.widx + 1
  done;
  if r.widx < ch.wlen then Float.Array.get ch.avail r.widx else not_written

let wake_readers ch =
  List.iter (fun p -> p.runnable <- true) ch.wait_read;
  ch.wait_read <- []

let wake_writers ch =
  List.iter (fun p -> p.runnable <- true) ch.wait_write;
  ch.wait_write <- []

let block_read p ch =
  p.runnable <- false;
  ch.wait_read <- p :: ch.wait_read

let push_write ch ~avail bytes =
  let avail = Float.max avail ch.last_avail in
  ch.last_avail <- avail;
  ch.produced <- ch.produced + bytes;
  if ch.wlen = Array.length ch.upto then begin
    let cap = max 16 (2 * ch.wlen) in
    let avail' = Float.Array.make cap 0.0 and upto' = Array.make cap 0 in
    Float.Array.blit ch.avail 0 avail' 0 ch.wlen;
    Array.blit ch.upto 0 upto' 0 ch.wlen;
    ch.avail <- avail';
    ch.upto <- upto'
  end;
  Float.Array.set ch.avail ch.wlen avail;
  ch.upto.(ch.wlen) <- ch.produced;
  ch.wlen <- ch.wlen + 1;
  wake_readers ch

let add_mark p =
  if p.n_marks = Float.Array.length p.marks then begin
    let grown = Float.Array.make (max 16 (2 * p.n_marks)) 0.0 in
    Float.Array.blit p.marks 0 grown 0 p.n_marks;
    p.marks <- grown
  end;
  Float.Array.set p.marks p.n_marks p.time;
  p.n_marks <- p.n_marks + 1

(* The head segment is done: charge its [core] cycles and move on. *)
let finish_io p core =
  p.time <- p.time +. float_of_int core;
  p.busy <- p.busy + core;
  p.io_remaining <- -1;
  p.pc <- p.pc + 1

let reader p chan =
  let r = p.reads.(chan) in
  if r == no_reader then fail "%s: read on channel %d without registration" p.p_name chan;
  r

(* One step of process [p]: execute its head segment if possible.  A
   blocked process is parked on the channel it waits for. *)
let step chans p =
  if p.pc >= Array.length p.prog then begin
    p.done_ <- true;
    p.runnable <- false
  end
  else
    match p.prog.(p.pc) with
    | Segments.Compute c ->
      p.time <- p.time +. float_of_int c;
      p.busy <- p.busy + c;
      p.pc <- p.pc + 1
    | Segments.Mark ->
      add_mark p;
      p.pc <- p.pc + 1
    | Segments.Rtp_in { chan } ->
      let ch = chans.(chan) in
      let r = reader p chan in
      (* RTP values are written before the graph starts; available at
         their write entry time, or 0 if the producer is a source. *)
      let avail = avail_time ch r (r.cursor + 1) in
      if avail <> not_written then begin
        p.time <- Float.max p.time avail +. 1.0;
        r.cursor <- r.cursor + 1;
        p.pc <- p.pc + 1
      end
      else if ch.produced > r.cursor then p.pc <- p.pc + 1
      else block_read p ch
    | (Segments.Rd { chan; bytes; core } | Segments.Win_in { chan; bytes; core }) as seg ->
      let atomic = match seg with Segments.Win_in _ -> true | _ -> false in
      let ch = chans.(chan) in
      let r = reader p chan in
      if p.io_remaining < 0 then p.io_remaining <- bytes;
      (* Window acquires are all-or-nothing (the lock releases only when
         the DMA filled the buffer); stream reads drain incrementally so
         transfers larger than the switch FIFO cannot deadlock. *)
      let available = ch.produced - r.cursor in
      if (atomic && available < p.io_remaining) || available <= 0 then block_read p ch
      else begin
        let take = if atomic then p.io_remaining else Int.min p.io_remaining available in
        let needed = r.cursor + take in
        p.time <- Float.max p.time (avail_time ch r needed);
        r.cursor <- needed;
        p.io_remaining <- p.io_remaining - take;
        ch.last_consume <- Float.max ch.last_consume p.time;
        wake_writers ch;
        if p.io_remaining = 0 then finish_io p core
      end
    | Segments.Wr { chan; bytes; core } | Segments.Win_out { chan; bytes; core } ->
      let ch = chans.(chan) in
      if p.io_remaining < 0 then p.io_remaining <- bytes;
      let space = ch.capacity - (ch.produced - min_cursor ch) in
      if space <= 0 then begin
        p.runnable <- false;
        p.was_blocked <- true;
        ch.wait_write <- p :: ch.wait_write
      end
      else begin
        let put = Int.min p.io_remaining space in
        (* If this write had to wait, the space it uses appeared no
           earlier than the consumer's freeing read. *)
        if p.was_blocked then begin
          p.time <- Float.max p.time ch.last_consume;
          p.was_blocked <- false
        end;
        let transfer =
          float_of_int
            (max 1 ((put + Aie.Cfg.stream_bytes_per_cycle - 1) / Aie.Cfg.stream_bytes_per_cycle))
        in
        push_write ch ~avail:(p.time +. float_of_int ch.route_cycles +. transfer) put;
        p.io_remaining <- p.io_remaining - put;
        if p.io_remaining = 0 then finish_io p core
        else
          (* Larger-than-FIFO burst: the core is stalled at stream rate
             while the FIFO drains. *)
          p.time <- p.time +. transfer
      end

(* Source/sink segment synthesis: PLIO transfers in chunks of at most
   64 B.  PLIO at 625 MHz x 64 bit = 4 B per AIE cycle. *)
let plio_segs io ~elem_bytes ~elems =
  let chunk = max 1 (64 / max 1 elem_bytes) in
  Array.init
    ((elems + chunk - 1) / chunk)
    (fun i ->
      let bytes = Int.min chunk (elems - (i * chunk)) * elem_bytes in
      io ~bytes ~core:(max 1 (bytes / Aie.Cfg.plio_bytes_per_pl_cycle * 2)))

let source_segs ~chan = plio_segs (fun ~bytes ~core -> Segments.Wr { chan; bytes; core })

let sink_segs ~chan = plio_segs (fun ~bytes ~core -> Segments.Rd { chan; bytes; core })

(* Runs the replay engine over every kernel's compiled trace plus the
   global sources and sinks; returns all processes in selection order and
   the kernel processes in graph order. *)
let simulate (d : Deploy.t) (cap : capture_result) =
  let g = d.Deploy.graph in
  (* Compile every kernel trace first: aggregated loop traffic determines
     how much channel buffering the replay needs (pipelined loops stream
     continuously on real hardware; at chunk granularity the FIFO must
     absorb one chunk or compute and transfer would falsely serialize).
     Each instance's ports resolve to their channels once, here. *)
  let kernel_progs =
    Array.map
      (fun (inst : Cgsim.Serialized.kernel_inst) ->
        let env =
          Segments.port_env
            (Array.mapi
               (fun i (spec : Cgsim.Kernel.port_spec) ->
                 inst.inst_name ^ "." ^ spec.Cgsim.Kernel.pname, inst.port_nets.(i))
               inst.kernel.Cgsim.Kernel.ports)
        in
        let events =
          match List.assoc_opt inst.inst_name cap.traces with
          | Some evs -> evs
          | None -> fail "no trace captured for kernel %s" inst.inst_name
        in
        Segments.compile ?thunk:(thunk_costs d inst) ~env events)
      g.kernels
  in
  let max_seg_bytes = Array.make (Array.length g.nets) 0 in
  Array.iter
    (Array.iter (function
      | Segments.Rd { chan; bytes; _ } | Segments.Wr { chan; bytes; _ } ->
        if bytes > max_seg_bytes.(chan) then max_seg_bytes.(chan) <- bytes
      | Segments.Win_in _ | Segments.Win_out _ | Segments.Compute _ | Segments.Rtp_in _
      | Segments.Mark ->
        ()))
    kernel_progs;
  let chans =
    Array.map
      (fun (n : Cgsim.Serialized.net) ->
        let elem = Cgsim.Dtype.size_bytes n.dtype in
        let capacity =
          match Cgsim.Settings.resolved_transport n.settings with
          | Cgsim.Settings.Window w -> max (2 * w) (2 * max_seg_bytes.(n.net_id))
          | Cgsim.Settings.Rtp -> max elem 4
          | Cgsim.Settings.Gmio ->
            (* DDR-backed: effectively unbounded buffering. *)
            max 65536 (2 * max_seg_bytes.(n.net_id))
          | Cgsim.Settings.Stream ->
            let fifo = Aie.Cfg.stream_switch_fifo_words * 4 in
            let base = max fifo (2 * elem) in
            let base = max base (2 * max_seg_bytes.(n.net_id)) in
            (* Shim DMAs buffer global I/O more deeply than switch FIFOs. *)
            if n.global_input <> None || n.global_output <> None then max base 512 else base
        in
        let gmio_latency =
          match Cgsim.Settings.resolved_transport n.settings with
          | Cgsim.Settings.Gmio -> Aie.Cfg.gmio_latency_cycles
          | Cgsim.Settings.Stream | Cgsim.Settings.Window _ | Cgsim.Settings.Rtp -> 0
        in
        {
          capacity;
          route_cycles = gmio_latency + Aie.Array_model.route_latency_cycles (Deploy.net_hops d n);
          avail = Float.Array.create 0;
          upto = [||];
          wlen = 0;
          produced = 0;
          last_avail = 0.0;
          last_consume = 0.0;
          readers = [||];
          wait_read = [];
          wait_write = [];
        })
      g.nets
  in
  let procs = ref [] in
  let new_proc name prog =
    let p =
      {
        p_name = name;
        prog;
        pc = 0;
        time = 0.0;
        runnable = true;
        done_ = false;
        marks = Float.Array.create 0;
        n_marks = 0;
        busy = 0;
        io_remaining = -1;
        was_blocked = false;
        reads = Array.make (Array.length chans) no_reader;
      }
    in
    procs := p :: !procs;
    p
  in
  let register_reader p chan =
    if p.reads.(chan) == no_reader then begin
      let r = { cursor = 0; widx = 0 } in
      p.reads.(chan) <- r;
      chans.(chan).readers <- Array.append [| r |] chans.(chan).readers
    end
  in
  (* Kernel processes from the precompiled traces. *)
  let kernel_procs =
    Array.mapi
      (fun k (inst : Cgsim.Serialized.kernel_inst) ->
        let p = new_proc inst.inst_name kernel_progs.(k) in
        Array.iteri
          (fun i (spec : Cgsim.Kernel.port_spec) ->
            if spec.Cgsim.Kernel.dir = Cgsim.Kernel.In then register_reader p inst.port_nets.(i))
          inst.kernel.Cgsim.Kernel.ports;
        p)
      g.kernels
  in
  (* Source and sink processes on global nets, sized by observed traffic. *)
  Array.iter
    (fun (n : Cgsim.Serialized.net) ->
      let elem_bytes = Cgsim.Dtype.size_bytes n.dtype in
      let elems = cap.traffic.(n.net_id) in
      if n.global_input <> None then
        ignore
          (new_proc
             (Printf.sprintf "plio-in:%s" (Option.value n.global_input ~default:"?"))
             (source_segs ~chan:n.net_id ~elem_bytes ~elems));
      if n.global_output <> None then begin
        let p =
          new_proc
            (Printf.sprintf "plio-out:%s" (Option.value n.global_output ~default:"?"))
            (sink_segs ~chan:n.net_id ~elem_bytes ~elems)
        in
        register_reader p n.net_id
      end)
    g.nets;
  (* Latest-created first: the order the selection scan breaks ties in. *)
  let procs = Array.of_list !procs in
  (* Event loop: always advance the runnable process with the smallest
     local time (earliest-first keeps channel causality); on a tie, the
     one earliest in [procs]. *)
  let running = ref true in
  while !running do
    let next = ref (-1) and best = ref Float.infinity in
    for i = 0 to Array.length procs - 1 do
      let p = procs.(i) in
      if p.runnable && (not p.done_) && (!next < 0 || p.time < !best) then begin
        next := i;
        best := p.time
      end
    done;
    if !next >= 0 then step chans procs.(!next) else running := false
  done;
  if Array.exists (fun p -> not p.done_) procs then begin
    let blocked =
      List.filter_map
        (fun p ->
          if p.done_ then None
          else
            Some
              (Format.asprintf "%s@t=%.0f on [%a] (io_remaining=%d, %d segs left)" p.p_name
                 p.time
                 (fun ppf p ->
                   if p.pc < Array.length p.prog then Segments.pp_seg ppf p.prog.(p.pc)
                   else Format.pp_print_string ppf "-")
                 p p.io_remaining
                 (Array.length p.prog - p.pc)))
        (Array.to_list procs)
    in
    fail "replay deadlock; blocked processes: %s" (String.concat "; " blocked)
  end;
  procs, kernel_procs

let kernel_report p =
  let n = p.n_marks in
  let marks = List.init n (Float.Array.get p.marks) in
  let first_mark_cycles, avg_interval_cycles =
    match n with
    | 0 -> p.time, p.time
    | 1 -> Float.Array.get p.marks 0, Float.Array.get p.marks 0
    | _ ->
      let first = Float.Array.get p.marks 0 and last = Float.Array.get p.marks (n - 1) in
      first, (last -. first) /. float_of_int (n - 1)
  in
  {
    k_name = p.p_name;
    iterations = n;
    first_mark_cycles;
    avg_interval_cycles;
    busy_cycles = p.busy;
    marks;
  }

(* Mirror the replay timeline into the active obs session, on the
   virtual-time pid: cycle timestamps become ns at the modelled clock,
   one track per kernel ("aie:<name>").  Together with the wall-clock
   spans the capture phase already emitted (scheduler slices, queue
   blocked time), one Perfetto view then shows a cgsim run and its
   aiesim replay side by side. *)
let report_to_trace (r : report) =
  if Obs.Trace.is_on () then begin
    let pid = Obs.Event.virtual_pid in
    List.iter
      (fun k ->
        let track = "aie:" ^ k.k_name in
        (match k.marks with
         | [] -> ()
         | first :: _ ->
           Obs.Trace.span ~track ~pid ~cat:"sim" ~name:"fill" ~ts_ns:0.0
             ~dur_ns:(Aie.Cfg.cycles_to_ns first) ());
        let iter_key = "aie.iter_ns:" ^ k.k_name in
        let rec pairs i = function
          | a :: (b :: _ as rest) ->
            let dur = Aie.Cfg.cycles_to_ns (b -. a) in
            Obs.Trace.span ~track ~pid ~cat:"sim"
              ~arg:("iteration", float_of_int i)
              ~name:"iter" ~ts_ns:(Aie.Cfg.cycles_to_ns a) ~dur_ns:dur ();
            Obs.Trace.observe_ns iter_key dur;
            pairs (i + 1) rest
          | _ -> ()
        in
        pairs 0 k.marks;
        Obs.Trace.add_metric ("aie.busy_cycles:" ^ k.k_name) (float_of_int k.busy_cycles))
      r.kernels;
    Obs.Trace.span ~track:"aie:replay" ~pid ~cat:"sim" ~name:("replay " ^ r.label) ~ts_ns:0.0
      ~dur_ns:(Aie.Cfg.cycles_to_ns r.total_cycles) ()
  end

let replay (d : Deploy.t) (cap : capture_result) =
  let procs, kernel_procs = simulate d cap in
  let kernels = Array.to_list (Array.map kernel_report kernel_procs) in
  let total_cycles = Array.fold_left (fun acc p -> Float.max acc p.time) 0.0 procs in
  (* Report per-block time at the output-side kernel: the one whose first
     mark lands latest (deepest in the pipeline). *)
  let reporting =
    List.fold_left
      (fun acc k ->
        match acc with
        | None -> Some k
        | Some b -> if k.first_mark_cycles > b.first_mark_cycles then Some k else acc)
      None
      (List.filter (fun k -> k.iterations > 0) kernels)
  in
  let blocks, ns_per_block =
    match reporting with
    | Some k ->
      (* Kernels mark at the top of their main loop, so a run of N blocks
         records N+1 marks (the last one precedes end-of-stream). *)
      max 1 (k.iterations - 1), Aie.Cfg.cycles_to_ns k.avg_interval_cycles
    | None -> 0, Aie.Cfg.cycles_to_ns total_cycles
  in
  let report =
    {
      label = d.Deploy.label;
      total_cycles;
      blocks;
      ns_per_block;
      kernels;
      capture_stats = cap.stats;
      trace_events = cap.events_total;
    }
  in
  report_to_trace report;
  report

let run ?config d ~sources ~sinks = replay d (capture ?config d ~sources ~sinks)

let relative_throughput_percent ~baseline ~extracted =
  if extracted.ns_per_block <= 0.0 then 0.0
  else 100.0 *. baseline.ns_per_block /. extracted.ns_per_block

let timeline_csv r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "kernel,iteration,start_cycles,start_ns\n";
  List.iter
    (fun k ->
      List.iteri
        (fun i t ->
          Buffer.add_string buf
            (Printf.sprintf "%s,%d,%.1f,%.2f\n" k.k_name i t (Aie.Cfg.cycles_to_ns t)))
        k.marks)
    r.kernels;
  Buffer.contents buf
