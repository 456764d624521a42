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

let transport_of_settings s =
  match Cgsim.Settings.resolved_transport s with
  | Cgsim.Settings.Stream -> Aie.Trace.Stream
  | Cgsim.Settings.Window b -> Aie.Trace.Window b
  | Cgsim.Settings.Rtp -> Aie.Trace.Rtp
  | Cgsim.Settings.Gmio -> Aie.Trace.Gmio

(* The adapter costs a kernel's port accesses pay: a thunked deploy's,
   on AIE kernels only. *)
let thunk_costs (d : Deploy.t) (inst : Cgsim.Serialized.kernel_inst) =
  match d.Deploy.adapter with
  | Deploy.Thunk costs when inst.realm = Cgsim.Kernel.Aie -> Some costs
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
     is the kernel fiber's local, and its port taps push into it. *)
  let recorders =
    Array.to_list
      (Array.map
         (fun (inst : Cgsim.Serialized.kernel_inst) -> inst, Aie.Trace.create_recorder ())
         g.kernels)
  in
  let local inst = Aie.Trace.Recorder (List.assq inst recorders) in
  (* Capture tap: one Port_read/Port_write event per element moved, so
     block transfers keep per-element cycle accounting. *)
  let tap (inst : Cgsim.Serialized.kernel_inst) port_idx port =
    let r = List.assq inst recorders in
    let net = net_of inst port_idx in
    let transport = transport_of_settings net.Cgsim.Serialized.settings in
    let bytes = Cgsim.Dtype.size_bytes net.Cgsim.Serialized.dtype in
    let thunked = Option.is_some (thunk_costs d inst) in
    let stream = transport = Aie.Trace.Stream in
    let ev =
      match inst.ports.(port_idx).Cgsim.Kernel.dir with
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
  let ctx = Cgsim.Runtime.instantiate ~config ~tap ~local g in
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

type wentry = {
  avail : float;  (* cycle at which the bytes are visible to readers *)
  upto : int;  (* cumulative channel bytes including this entry *)
}

type rstate = {
  mutable cursor : int;  (* cumulative bytes consumed *)
  mutable widx : int;  (* index into wentries for avail lookup *)
}

type chan = {
  capacity : int;  (* bytes *)
  route_cycles : int;
  mutable wentries : wentry array;  (* in write order; [wlen] live entries *)
  mutable wlen : int;
  mutable produced : int;  (* cumulative bytes *)
  mutable last_avail : float;
  mutable readers : rstate list;
  mutable last_consume : float;
  mutable wait_read : proc list;
  mutable wait_write : proc list;
}

and proc = {
  p_name : string;
  mutable segs : Segments.seg list;
  mutable time : float;
  mutable runnable : bool;
  mutable done_ : bool;
  mutable marks_rev : float list;
  mutable busy : int;
  mutable io_remaining : int;  (* bytes left of the head Rd/Wr; -1 = fresh *)
  mutable was_blocked : bool;  (* head segment blocked at least once *)
  reads : (int, rstate) Hashtbl.t;  (* chan id -> this proc's read cursor *)
}

let min_cursor ch =
  match ch.readers with
  | [] -> ch.produced
  | r :: rest -> List.fold_left (fun acc r -> min acc r.cursor) r.cursor rest

(* Availability time of cumulative byte position [upto] for reader [r];
   amortized O(1) via the reader's cached entry index. *)
let avail_time ch r upto =
  while r.widx < ch.wlen && ch.wentries.(r.widx).upto < upto do
    r.widx <- r.widx + 1
  done;
  if r.widx < ch.wlen then Some ch.wentries.(r.widx).avail else None

let wake_readers ch =
  List.iter (fun p -> p.runnable <- true) ch.wait_read;
  ch.wait_read <- []

let wake_writers ch =
  List.iter (fun p -> p.runnable <- true) ch.wait_write;
  ch.wait_write <- []

let push_write ch ~avail bytes =
  let avail = Float.max avail ch.last_avail in
  ch.last_avail <- avail;
  ch.produced <- ch.produced + bytes;
  if ch.wlen >= Array.length ch.wentries then begin
    let grown = Array.make (max 16 (2 * Array.length ch.wentries)) { avail = 0.0; upto = 0 } in
    Array.blit ch.wentries 0 grown 0 ch.wlen;
    ch.wentries <- grown
  end;
  ch.wentries.(ch.wlen) <- { avail; upto = ch.produced };
  ch.wlen <- ch.wlen + 1;
  wake_readers ch

(* One step of a process: execute the head segment if possible.  Returns
   [true] when progress was made. *)
let step chans p =
  match p.segs with
  | [] ->
    p.done_ <- true;
    p.runnable <- false;
    true
  | seg :: rest ->
    let finish_seg () = p.segs <- rest in
    (match seg with
     | Segments.Compute c ->
       p.time <- p.time +. float_of_int c;
       p.busy <- p.busy + c;
       finish_seg ();
       true
     | Segments.Mark ->
       p.marks_rev <- p.time :: p.marks_rev;
       finish_seg ();
       true
     | Segments.Rtp_in { chan } ->
       let ch = chans.(chan) in
       let r =
         match Hashtbl.find_opt p.reads chan with
         | Some r -> r
         | None -> fail "%s: rtp read on channel %d without registration" p.p_name chan
       in
       (* RTP values are written before the graph starts; available at
          their write entry time, or 0 if the producer is a source. *)
       (match avail_time ch r (r.cursor + 1) with
        | Some avail ->
          p.time <- Float.max p.time avail +. 1.0;
          r.cursor <- r.cursor + 1;
          (* consume the remaining bytes of the scalar *)
          finish_seg ();
          true
        | None ->
          if ch.produced > r.cursor then (finish_seg (); true)
          else begin
            p.runnable <- false;
            ch.wait_read <- p :: ch.wait_read;
            false
          end)
     | Segments.Rd { chan; bytes; core } | Segments.Win_in { chan; bytes; core } ->
       let atomic = match seg with Segments.Win_in _ -> true | _ -> false in
       let ch = chans.(chan) in
       let r =
         match Hashtbl.find_opt p.reads chan with
         | Some r -> r
         | None -> fail "%s: read on channel %d without registration" p.p_name chan
       in
       if p.io_remaining < 0 then p.io_remaining <- bytes;
       (* Window acquires are all-or-nothing (the lock releases only when
          the DMA filled the buffer); stream reads drain incrementally so
          transfers larger than the switch FIFO cannot deadlock. *)
       let available = ch.produced - r.cursor in
       let want = if atomic then p.io_remaining else min p.io_remaining (max available 0) in
       if (atomic && available < p.io_remaining) || available <= 0 then begin
         p.runnable <- false;
         ch.wait_read <- p :: ch.wait_read;
         false
       end
       else begin
         let take = if atomic then p.io_remaining else want in
         let needed = r.cursor + take in
         (match avail_time ch r needed with
          | Some avail -> p.time <- Float.max p.time avail
          | None -> ());
         r.cursor <- needed;
         p.io_remaining <- p.io_remaining - take;
         ch.last_consume <- Float.max ch.last_consume p.time;
         wake_writers ch;
         if p.io_remaining = 0 then begin
           p.time <- p.time +. float_of_int core;
           p.busy <- p.busy + core;
           p.io_remaining <- -1;
           finish_seg ()
         end;
         true
       end
     | Segments.Wr { chan; bytes; core } | Segments.Win_out { chan; bytes; core } ->
       let ch = chans.(chan) in
       if p.io_remaining < 0 then p.io_remaining <- bytes;
       let space = ch.capacity - (ch.produced - min_cursor ch) in
       if space <= 0 then begin
         p.runnable <- false;
         p.was_blocked <- true;
         ch.wait_write <- p :: ch.wait_write;
         false
       end
       else begin
         let put = min p.io_remaining space in
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
         let avail = p.time +. float_of_int ch.route_cycles +. transfer in
         push_write ch ~avail put;
         p.io_remaining <- p.io_remaining - put;
         if p.io_remaining = 0 then begin
           p.time <- p.time +. float_of_int core;
           p.busy <- p.busy + core;
           p.io_remaining <- -1;
           finish_seg ()
         end
         else
           (* Larger-than-FIFO burst: the core is stalled at stream rate
              while the FIFO drains. *)
           p.time <- p.time +. transfer;
         true
       end)

(* Source/sink segment synthesis: chunked PLIO transfers. *)

let chunked_total ~elem_bytes ~elems =
  let chunk_elems = max 1 (64 / max 1 elem_bytes) in
  let rec build remaining acc =
    if remaining <= 0 then List.rev acc
    else begin
      let n = min chunk_elems remaining in
      build (remaining - n) (n :: acc)
    end
  in
  build elems []

let source_segs ~chan ~elem_bytes ~elems =
  List.map
    (fun n ->
      let bytes = n * elem_bytes in
      (* PLIO at 625 MHz x 64 bit = 4 B per AIE cycle. *)
      Segments.Wr { chan; bytes; core = max 1 (bytes / Aie.Cfg.plio_bytes_per_pl_cycle * 2) })
    (chunked_total ~elem_bytes ~elems)

let sink_segs ~chan ~elem_bytes ~elems =
  List.map
    (fun n ->
      let bytes = n * elem_bytes in
      Segments.Rd { chan; bytes; core = max 1 (bytes / Aie.Cfg.plio_bytes_per_pl_cycle * 2) })
    (chunked_total ~elem_bytes ~elems)

let replay (d : Deploy.t) (cap : capture_result) =
  let g = d.Deploy.graph in
  (* Compile every kernel trace first: aggregated loop traffic determines
     how much channel buffering the replay needs (pipelined loops stream
     continuously on real hardware; at chunk granularity the FIFO must
     absorb one chunk or compute and transfer would falsely serialize). *)
  let kernel_segs =
    Array.to_list
      (Array.map
         (fun (inst : Cgsim.Serialized.kernel_inst) ->
           let chan_of_port port =
             let rec find i =
               if i >= Array.length inst.ports then fail "unknown port %s in trace" port
               else if
                 String.equal port
                   (Printf.sprintf "%s.%s" inst.inst_name inst.ports.(i).Cgsim.Kernel.pname)
               then inst.port_nets.(i)
               else find (i + 1)
             in
             find 0
           in
           let events =
             match List.assoc_opt inst.inst_name cap.traces with
             | Some evs -> evs
             | None -> fail "no trace captured for kernel %s" inst.inst_name
           in
           inst, Segments.compile ?thunk:(thunk_costs d inst) ~env:{ Segments.chan_of_port } events)
         g.kernels)
  in
  let max_seg_bytes = Array.make (Array.length g.nets) 0 in
  List.iter
    (fun (_, segs) ->
      List.iter
        (function
          | Segments.Rd { chan; bytes; _ } | Segments.Wr { chan; bytes; _ } ->
            if bytes > max_seg_bytes.(chan) then max_seg_bytes.(chan) <- bytes
          | Segments.Win_in _ | Segments.Win_out _ | Segments.Compute _ | Segments.Rtp_in _
          | Segments.Mark ->
            ())
        segs)
    kernel_segs;
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
          wentries = [||];
          wlen = 0;
          produced = 0;
          last_avail = 0.0;
          readers = [];
          last_consume = 0.0;
          wait_read = [];
          wait_write = [];
        })
      g.nets
  in
  let procs = ref [] in
  let new_proc name segs =
    let p =
      {
        p_name = name;
        segs;
        time = 0.0;
        runnable = true;
        done_ = false;
        marks_rev = [];
        busy = 0;
        io_remaining = -1;
        was_blocked = false;
        reads = Hashtbl.create 4;
      }
    in
    procs := p :: !procs;
    p
  in
  let register_reader p chan =
    if not (Hashtbl.mem p.reads chan) then begin
      let r = { cursor = 0; widx = 0 } in
      Hashtbl.add p.reads chan r;
      chans.(chan).readers <- r :: chans.(chan).readers
    end
  in
  (* Kernel processes from the precompiled traces. *)
  List.iter
    (fun ((inst : Cgsim.Serialized.kernel_inst), segs) ->
      let p = new_proc inst.inst_name segs in
      Array.iteri
        (fun i (spec : Cgsim.Kernel.port_spec) ->
          if spec.Cgsim.Kernel.dir = Cgsim.Kernel.In then register_reader p inst.port_nets.(i))
        inst.ports)
    kernel_segs;
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
  let procs = !procs in
  (* Event loop: always advance the runnable process with the smallest
     local time (earliest-first keeps channel causality). *)
  let rec drive () =
    let next =
      List.fold_left
        (fun acc p ->
          if p.done_ || not p.runnable then acc
          else
            match acc with
            | Some q when q.time <= p.time -> acc
            | _ -> Some p)
        None procs
    in
    match next with
    | Some p ->
      (match Sys.getenv_opt "AIESIM_DEBUG" with
       | Some _ ->
         (match p.segs with
          | seg :: _ ->
            Format.eprintf "%-20s t=%8.0f io=%6d %a@." p.p_name p.time p.io_remaining
              Segments.pp_seg seg
          | [] -> Format.eprintf "%-20s t=%8.0f done@." p.p_name p.time)
       | None -> ());
      ignore (step chans p);
      drive ()
    | None ->
      if List.exists (fun p -> not p.done_) procs then begin
        let blocked =
          List.filter_map
            (fun p ->
              if p.done_ then None
              else
                Some
                  (Format.asprintf "%s@t=%.0f on [%a] (io_remaining=%d, %d segs left)" p.p_name
                     p.time
                     (fun ppf -> function
                       | [] -> Format.pp_print_string ppf "-"
                       | seg :: _ -> Segments.pp_seg ppf seg)
                     p.segs p.io_remaining (List.length p.segs)))
            procs
        in
        fail "replay deadlock; blocked processes: %s" (String.concat "; " blocked)
      end
  in
  drive ();
  procs

let kernel_reports procs (g : Cgsim.Serialized.t) =
  Array.to_list
    (Array.map
       (fun (inst : Cgsim.Serialized.kernel_inst) ->
         let p = List.find (fun p -> String.equal p.p_name inst.inst_name) procs in
         let marks = List.rev p.marks_rev in
         match marks with
         | [] ->
           {
             k_name = p.p_name;
             iterations = 0;
             first_mark_cycles = p.time;
             avg_interval_cycles = p.time;
             busy_cycles = p.busy;
             marks;
           }
         | [ only ] ->
           {
             k_name = p.p_name;
             iterations = 1;
             first_mark_cycles = only;
             avg_interval_cycles = only;
             busy_cycles = p.busy;
             marks;
           }
         | first :: _ ->
           let last = List.nth marks (List.length marks - 1) in
           let n = List.length marks in
           {
             k_name = p.p_name;
             iterations = n;
             first_mark_cycles = first;
             avg_interval_cycles = (last -. first) /. float_of_int (n - 1);
             busy_cycles = p.busy;
             marks;
           })
       g.kernels)

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

let run ?config (d : Deploy.t) ~sources ~sinks =
  let cap = capture ?config d ~sources ~sinks in
  let procs = replay d cap in
  let kernels = kernel_reports procs d.Deploy.graph in
  let total_cycles = List.fold_left (fun acc p -> Float.max acc p.time) 0.0 procs in
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
