type seg =
  | Compute of int
  | Rd of { chan : int; bytes : int; core : int }
  | Wr of { chan : int; bytes : int; core : int }
  | Win_in of { chan : int; bytes : int; core : int }
  | Win_out of { chan : int; bytes : int; core : int }
  | Rtp_in of { chan : int }
  | Mark

let pp_seg ppf = function
  | Compute c -> Format.fprintf ppf "compute %d" c
  | Rd { chan; bytes; core } -> Format.fprintf ppf "rd ch%d %dB (%d)" chan bytes core
  | Wr { chan; bytes; core } -> Format.fprintf ppf "wr ch%d %dB (%d)" chan bytes core
  | Win_in { chan; bytes; core } -> Format.fprintf ppf "win-in ch%d %dB (%d)" chan bytes core
  | Win_out { chan; bytes; core } -> Format.fprintf ppf "win-out ch%d %dB (%d)" chan bytes core
  | Rtp_in { chan } -> Format.fprintf ppf "rtp ch%d" chan
  | Mark -> Format.pp_print_string ppf "mark"

type port_env = {
  chan_of_port : string -> int;
}

exception Compile_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Compile_error s)) fmt

let stream_cycles bytes = max 1 ((bytes + Aie.Cfg.stream_bytes_per_cycle - 1) / Aie.Cfg.stream_bytes_per_cycle)

(* Maximum chunks a pipelined loop's traffic is re-expanded into. *)
let loop_chunks_cap = 32

type state = {
  env : port_env;
  thunk : Deploy.thunk_costs option;  (* what a thunked access costs *)
  mutable rev_segs : seg list;
  usage : Vliw.usage;
  (* bytes already seen in the current (partial) window of each port *)
  win_progress : (string, int) Hashtbl.t;
  (* sub-beat residuals: window elements move through 32 B vector
     loads/stores, so per-element accesses accumulate into full beats
     instead of each charging a whole load/store slot *)
  mutable ld_residual : int;
  mutable st_residual : int;
}

let push st s = st.rev_segs <- s :: st.rev_segs

let flush st =
  if not (Vliw.is_empty st.usage) then begin
    push st (Compute (Vliw.cycles st.usage));
    let u = st.usage in
    u.Vliw.vec <- 0;
    u.Vliw.scl <- 0;
    u.Vliw.ld <- 0;
    u.Vliw.st <- 0;
    u.Vliw.srd <- 0;
    u.Vliw.swr <- 0
  end

let thunk_scalar_ops st =
  match st.thunk with Some c -> c.Deploy.scalar_ops_per_stream_access | None -> 0

let thunk_stream_cost st = st.usage.Vliw.scl <- st.usage.Vliw.scl + thunk_scalar_ops st

let thunk_window_cost st =
  match st.thunk with Some c -> push st (Compute c.Deploy.cycles_per_window) | None -> ()

(* Window progress bookkeeping: returns true when [bytes] starts a new
   window for [port]. *)
let window_step st port window_bytes bytes =
  let seen = Option.value (Hashtbl.find_opt st.win_progress port) ~default:0 in
  let starts = seen mod window_bytes = 0 in
  Hashtbl.replace st.win_progress port (seen + bytes);
  starts

let window_completes st port window_bytes =
  let seen = Option.value (Hashtbl.find_opt st.win_progress port) ~default:0 in
  seen > 0 && seen mod window_bytes = 0

(* Aggregated port traffic of one pipelined-loop iteration. *)
type loop_port = {
  lp_read : bool;
  lp_chan : int;
  lp_bytes : int;  (* per iteration *)
  lp_thunked : bool;
}

let rec consume_loop_body st events ~depth ~body_usage ~rev_ports =
  (* Scan events of ONE loop iteration, accumulating VLIW usage and port
     traffic; handles (rare) nested pipelined loops by folding their total
     cycles into the enclosing body as scalar-equivalent cycles. *)
  match events with
  | [] -> fail "pipelined loop region not closed (missing Loop_exit)"
  | Aie.Trace.Loop_exit :: rest ->
    if depth = 0 then rest, body_usage, List.rev rev_ports
    else fail "unbalanced Loop_exit"
  | ev :: rest ->
    (match ev with
     | Aie.Trace.Vop { slots; _ } ->
       body_usage.Vliw.vec <- body_usage.Vliw.vec + slots;
       consume_loop_body st rest ~depth ~body_usage ~rev_ports
     | Aie.Trace.Sop { count; _ } ->
       body_usage.Vliw.scl <- body_usage.Vliw.scl + count;
       consume_loop_body st rest ~depth ~body_usage ~rev_ports
     | Aie.Trace.Load { bytes } ->
       Vliw.add_load_bytes body_usage bytes;
       consume_loop_body st rest ~depth ~body_usage ~rev_ports
     | Aie.Trace.Store { bytes } ->
       Vliw.add_store_bytes body_usage bytes;
       consume_loop_body st rest ~depth ~body_usage ~rev_ports
     | Aie.Trace.Port_read { port; bytes; transport; thunked } ->
       (* Stream reads occupy the stream port and (when thunked) the
          adapter; window elements inside a loop are local-memory loads —
          the DMA moved them in the background — and RTP reads are a
          scalar fetch.  The lp entry keeps the data-arrival sync for the
          event engine in every case. *)
       (match transport with
        | Aie.Trace.Stream | Aie.Trace.Gmio ->
          body_usage.Vliw.srd <- body_usage.Vliw.srd + 1;
          if thunked then body_usage.Vliw.scl <- body_usage.Vliw.scl + thunk_scalar_ops st
        | Aie.Trace.Window _ -> Vliw.add_load_bytes body_usage bytes
        | Aie.Trace.Rtp -> body_usage.Vliw.scl <- body_usage.Vliw.scl + 1);
       let lp =
         { lp_read = true; lp_chan = st.env.chan_of_port port; lp_bytes = bytes;
           lp_thunked = (thunked && (transport = Aie.Trace.Stream || transport = Aie.Trace.Gmio)) }
       in
       consume_loop_body st rest ~depth ~body_usage ~rev_ports:(lp :: rev_ports)
     | Aie.Trace.Port_write { port; bytes; transport; thunked } ->
       (match transport with
        | Aie.Trace.Stream | Aie.Trace.Gmio ->
          body_usage.Vliw.swr <- body_usage.Vliw.swr + 1;
          if thunked then body_usage.Vliw.scl <- body_usage.Vliw.scl + thunk_scalar_ops st
        | Aie.Trace.Window _ -> Vliw.add_store_bytes body_usage bytes
        | Aie.Trace.Rtp -> body_usage.Vliw.scl <- body_usage.Vliw.scl + 1);
       let lp =
         { lp_read = false; lp_chan = st.env.chan_of_port port; lp_bytes = bytes;
           lp_thunked = (thunked && (transport = Aie.Trace.Stream || transport = Aie.Trace.Gmio)) }
       in
       consume_loop_body st rest ~depth ~body_usage ~rev_ports:(lp :: rev_ports)
     | Aie.Trace.Loop_enter { trip } ->
       (* Nested loop: fold its packed cycles into the outer body by
          charging them on the scalar unit (conservative serialisation). *)
       let inner = Vliw.empty () in
       let rest', inner_usage, inner_ports =
         consume_loop_body st rest ~depth:0 ~body_usage:inner ~rev_ports:[]
       in
       if inner_ports <> [] then
         fail "stream access inside a nested pipelined loop is not supported";
       body_usage.Vliw.scl <-
         body_usage.Vliw.scl + Vliw.loop_cycles inner_usage ~trip;
       consume_loop_body st rest' ~depth ~body_usage ~rev_ports
     | Aie.Trace.Iteration_mark -> fail "Iteration_mark inside a pipelined loop"
     | Aie.Trace.Loop_abort -> fail "Loop_abort inside a completed region"
     | Aie.Trace.Loop_exit -> assert false)

let emit_loop st ~trip ~body_usage ~ports =
  flush st;
  let ii = max 1 (Vliw.cycles body_usage) in
  (* Adapter thunks are opaque calls the software pipeliner schedules
     around: part of their overhead stays serial (fractional cycles per
     access, accumulated per chunk). *)
  let thunked_accesses = List.length (List.filter (fun lp -> lp.lp_thunked) ports) in
  let loop_extra = match st.thunk with Some c -> c.Deploy.loop_extra_per_access | None -> 0.0 in
  let serial_per_iter = float_of_int thunked_accesses *. loop_extra in
  (* Re-expand traffic into at most [loop_chunks_cap] chunks so the event
     engine still interleaves this kernel with its peers. *)
  let chunks = max 1 (min trip loop_chunks_cap) in
  let base = trip / chunks and extra = trip mod chunks in
  for c = 0 to chunks - 1 do
    let ct = base + if c < extra then 1 else 0 in
    if ct > 0 then begin
      let serial = int_of_float (Float.round (serial_per_iter *. float_of_int ct)) in
      let cyc = (ii * ct) + serial + if c = 0 then Aie.Cfg.pipeline_depth else 0 in
      push st (Compute cyc);
      List.iter
        (fun lp ->
          let bytes = lp.lp_bytes * ct in
          if lp.lp_read then push st (Rd { chan = lp.lp_chan; bytes; core = 0 })
          else push st (Wr { chan = lp.lp_chan; bytes; core = 0 }))
        ports
    end
  done

let handle_event st ev =
  match ev with
  | Aie.Trace.Vop { slots; _ } -> st.usage.Vliw.vec <- st.usage.Vliw.vec + slots
  | Aie.Trace.Sop { count; _ } -> st.usage.Vliw.scl <- st.usage.Vliw.scl + count
  | Aie.Trace.Load { bytes } -> Vliw.add_load_bytes st.usage bytes
  | Aie.Trace.Store { bytes } -> Vliw.add_store_bytes st.usage bytes
  | Aie.Trace.Port_read { port; bytes; transport; thunked } ->
    let chan = st.env.chan_of_port port in
    (match transport with
     | Aie.Trace.Stream | Aie.Trace.Gmio ->
       if thunked then thunk_stream_cost st;
       flush st;
       push st (Rd { chan; bytes; core = stream_cycles bytes })
     | Aie.Trace.Window w ->
       if window_step st port w bytes then begin
         flush st;
         push st (Win_in { chan; bytes = w; core = Aie.Cfg.lock_acquire_cycles });
         if thunked then thunk_window_cost st
       end;
       (* Window elements are local-memory traffic once acquired;
          accumulate into 32 B beats. *)
       st.ld_residual <- st.ld_residual + bytes;
       st.usage.Vliw.ld <- st.usage.Vliw.ld + (st.ld_residual / Aie.Cfg.dm_bytes_per_cycle);
       st.ld_residual <- st.ld_residual mod Aie.Cfg.dm_bytes_per_cycle
     | Aie.Trace.Rtp ->
       st.usage.Vliw.scl <- st.usage.Vliw.scl + 1;
       flush st;
       push st (Rtp_in { chan }))
  | Aie.Trace.Port_write { port; bytes; transport; thunked } ->
    let chan = st.env.chan_of_port port in
    (match transport with
     | Aie.Trace.Stream | Aie.Trace.Gmio ->
       if thunked then thunk_stream_cost st;
       flush st;
       push st (Wr { chan; bytes; core = stream_cycles bytes })
     | Aie.Trace.Window w ->
       ignore (window_step st port w bytes);
       st.st_residual <- st.st_residual + bytes;
       st.usage.Vliw.st <- st.usage.Vliw.st + (st.st_residual / Aie.Cfg.dm_bytes_per_cycle);
       st.st_residual <- st.st_residual mod Aie.Cfg.dm_bytes_per_cycle;
       if window_completes st port w then begin
         flush st;
         push st (Win_out { chan; bytes = w; core = Aie.Cfg.lock_acquire_cycles });
         if thunked then thunk_window_cost st
       end
     | Aie.Trace.Rtp ->
       st.usage.Vliw.scl <- st.usage.Vliw.scl + 1;
       flush st;
       push st (Wr { chan; bytes; core = 1 }))
  | Aie.Trace.Iteration_mark ->
    flush st;
    push st (Compute Aie.Cfg.kernel_invocation_overhead_cycles);
    push st Mark
  | Aie.Trace.Loop_enter _ | Aie.Trace.Loop_exit | Aie.Trace.Loop_abort ->
    (* handled by the caller *)
    assert false

(* Split off one loop region (handling nesting) and classify how it
   ended: a clean [Loop_exit], an exceptional [Loop_abort], or a trace
   that simply stops (fiber cancelled while parked inside the region). *)
let split_region events =
  let rec go acc depth = function
    | [] -> List.rev acc, `Unclosed, []
    | Aie.Trace.Loop_exit :: rest when depth = 0 -> List.rev acc, `Closed, rest
    | Aie.Trace.Loop_abort :: rest when depth = 0 -> List.rev acc, `Aborted, rest
    | (Aie.Trace.Loop_enter _ as e) :: rest -> go (e :: acc) (depth + 1) rest
    | ((Aie.Trace.Loop_exit | Aie.Trace.Loop_abort) as e) :: rest -> go (e :: acc) (depth - 1) rest
    | e :: rest -> go (e :: acc) depth rest
  in
  go [] 0 events

let compile ?thunk ~env events =
  let st =
    {
      env;
      thunk;
      rev_segs = [];
      usage = Vliw.empty ();
      win_progress = Hashtbl.create 8;
      ld_residual = 0;
      st_residual = 0;
    }
  in
  let rec walk = function
    | [] -> ()
    | Aie.Trace.Loop_enter { trip } :: rest ->
      let region, terminator, rest' = split_region rest in
      (match terminator with
       | `Closed ->
         let body_usage = Vliw.empty () in
         let _, body_usage, ports =
           consume_loop_body st (region @ [ Aie.Trace.Loop_exit ]) ~depth:0 ~body_usage
             ~rev_ports:[]
         in
         if trip > 0 then emit_loop st ~trip ~body_usage ~ports
       | `Aborted | `Unclosed ->
         (* A partial first iteration: replay its events inline, without
            trip multiplication (functionally only this much data moved). *)
         walk region);
      walk rest'
    | (Aie.Trace.Loop_exit | Aie.Trace.Loop_abort) :: _ ->
      fail "Loop_exit/abort without matching Loop_enter"
    | ev :: rest ->
      handle_event st ev;
      walk rest
  in
  walk events;
  flush st;
  List.rev st.rev_segs

let compute_cycles segs =
  List.fold_left
    (fun acc -> function
      | Compute c -> acc + c
      | Rd { core; _ } | Wr { core; _ } | Win_in { core; _ } | Win_out { core; _ } -> acc + core
      | Rtp_in _ | Mark -> acc)
    0 segs
