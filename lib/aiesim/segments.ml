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
  slots : (string, int) Hashtbl.t;  (* port name -> slot *)
  chans : int array;  (* slot -> channel *)
}

let port_env ports =
  let slots = Hashtbl.create (Array.length ports) in
  Array.iteri (fun slot (name, _) -> Hashtbl.replace slots name slot) ports;
  { slots; chans = Array.map snd ports }

exception Compile_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Compile_error s)) fmt

let stream_cycles bytes = max 1 ((bytes + Aie.Cfg.stream_bytes_per_cycle - 1) / Aie.Cfg.stream_bytes_per_cycle)

(* Maximum chunks a pipelined loop's traffic is re-expanded into. *)
let loop_chunks_cap = 32

type state = {
  env : port_env;
  thunk : Deploy.thunk_costs option;  (* what a thunked access costs *)
  mutable segs : seg array;  (* the program so far: [len] live entries *)
  mutable len : int;
  mutable last_port : string;  (* the last port looked up, and its slot *)
  mutable last_slot : int;
  usage : Vliw.usage;
  (* bytes seen so far through each port slot, for window boundaries *)
  win_progress : int array;
  (* sub-beat residuals: window elements move through 32 B vector
     loads/stores, so per-element accesses accumulate into full beats
     instead of each charging a whole load/store slot *)
  mutable ld_residual : int;
  mutable st_residual : int;
}

let push st s =
  if st.len = Array.length st.segs then begin
    let grown = Array.make (2 * st.len) Mark in
    Array.blit st.segs 0 grown 0 st.len;
    st.segs <- grown
  end;
  st.segs.(st.len) <- s;
  st.len <- st.len + 1

(* A port's tap pushes one shared event, so a run of accesses to one port
   repeats one physical name: a one-entry cache skips the hash. *)
let slot st port =
  if port == st.last_port then st.last_slot
  else
    match Hashtbl.find st.env.slots port with
    | slot ->
      st.last_port <- port;
      st.last_slot <- slot;
      slot
    | exception Not_found -> fail "unknown port %s in trace" port

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

(* Transports whose accesses go through a stream port, and so through a
   thunked deploy's adapter. *)
let streamed = function
  | Cgsim.Settings.Stream | Cgsim.Settings.Gmio -> true
  | Cgsim.Settings.Window _ | Cgsim.Settings.Rtp -> false

let thunk_scalar_ops st =
  match st.thunk with Some c -> c.Deploy.scalar_ops_per_stream_access | None -> 0

let thunk_stream_cost st = st.usage.Vliw.scl <- st.usage.Vliw.scl + thunk_scalar_ops st

let thunk_window_cost st =
  match st.thunk with Some c -> push st (Compute c.Deploy.cycles_per_window) | None -> ()

(* Window progress bookkeeping: returns true when [bytes] starts a new
   window for port [slot]. *)
let window_step st slot window_bytes bytes =
  let seen = st.win_progress.(slot) in
  st.win_progress.(slot) <- seen + bytes;
  seen mod window_bytes = 0

let window_completes st slot window_bytes =
  let seen = st.win_progress.(slot) in
  seen > 0 && seen mod window_bytes = 0

(* Aggregated port traffic of one pipelined-loop iteration. *)
type loop_port = {
  lp_read : bool;
  lp_chan : int;
  lp_bytes : int;  (* per iteration *)
  lp_thunked : bool;
}

let rec consume_loop_body st events ~body_usage ~rev_ports =
  (* Scan events of ONE loop iteration up to its Loop_exit, accumulating
     VLIW usage and port traffic, and return the events after it; handles
     (rare) nested pipelined loops by folding their total cycles into the
     enclosing body as scalar-equivalent cycles. *)
  match events with
  | [] -> fail "pipelined loop region not closed (missing Loop_exit)"
  | Aie.Trace.Loop_exit :: rest -> rest, body_usage, List.rev rev_ports
  | ev :: rest ->
    (match ev with
     | Aie.Trace.Vop { slots; _ } ->
       body_usage.Vliw.vec <- body_usage.Vliw.vec + slots;
       consume_loop_body st rest ~body_usage ~rev_ports
     | Aie.Trace.Sop { count; _ } ->
       body_usage.Vliw.scl <- body_usage.Vliw.scl + count;
       consume_loop_body st rest ~body_usage ~rev_ports
     | Aie.Trace.Load { bytes } ->
       Vliw.add_load_bytes body_usage bytes;
       consume_loop_body st rest ~body_usage ~rev_ports
     | Aie.Trace.Store { bytes } ->
       Vliw.add_store_bytes body_usage bytes;
       consume_loop_body st rest ~body_usage ~rev_ports
     | Aie.Trace.Port_read { port; bytes; transport; thunked } ->
       (* Stream reads occupy the stream port and (when thunked) the
          adapter; window elements inside a loop are local-memory loads —
          the DMA moved them in the background — and RTP reads are a
          scalar fetch.  The lp entry keeps the data-arrival sync for the
          event engine in every case. *)
       (match transport with
        | Cgsim.Settings.Stream | Cgsim.Settings.Gmio ->
          body_usage.Vliw.srd <- body_usage.Vliw.srd + 1;
          if thunked then body_usage.Vliw.scl <- body_usage.Vliw.scl + thunk_scalar_ops st
        | Cgsim.Settings.Window _ -> Vliw.add_load_bytes body_usage bytes
        | Cgsim.Settings.Rtp -> body_usage.Vliw.scl <- body_usage.Vliw.scl + 1);
       let lp =
         { lp_read = true; lp_chan = st.env.chans.(slot st port); lp_bytes = bytes;
           lp_thunked = thunked && streamed transport }
       in
       consume_loop_body st rest ~body_usage ~rev_ports:(lp :: rev_ports)
     | Aie.Trace.Port_write { port; bytes; transport; thunked } ->
       (match transport with
        | Cgsim.Settings.Stream | Cgsim.Settings.Gmio ->
          body_usage.Vliw.swr <- body_usage.Vliw.swr + 1;
          if thunked then body_usage.Vliw.scl <- body_usage.Vliw.scl + thunk_scalar_ops st
        | Cgsim.Settings.Window _ -> Vliw.add_store_bytes body_usage bytes
        | Cgsim.Settings.Rtp -> body_usage.Vliw.scl <- body_usage.Vliw.scl + 1);
       let lp =
         { lp_read = false; lp_chan = st.env.chans.(slot st port); lp_bytes = bytes;
           lp_thunked = thunked && streamed transport }
       in
       consume_loop_body st rest ~body_usage ~rev_ports:(lp :: rev_ports)
     | Aie.Trace.Loop_enter { trip } ->
       (* Nested loop: fold its packed cycles into the outer body by
          charging them on the scalar unit (conservative serialisation). *)
       let inner = Vliw.empty () in
       let rest', inner_usage, inner_ports =
         consume_loop_body st rest ~body_usage:inner ~rev_ports:[]
       in
       if inner_ports <> [] then
         fail "stream access inside a nested pipelined loop is not supported";
       body_usage.Vliw.scl <-
         body_usage.Vliw.scl + Vliw.loop_cycles inner_usage ~trip;
       consume_loop_body st rest' ~body_usage ~rev_ports
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
    let slot = slot st port in
    let chan = st.env.chans.(slot) in
    (match transport with
     | Cgsim.Settings.Stream | Cgsim.Settings.Gmio ->
       if thunked then thunk_stream_cost st;
       flush st;
       push st (Rd { chan; bytes; core = stream_cycles bytes })
     | Cgsim.Settings.Window w ->
       if window_step st slot w bytes then begin
         flush st;
         push st (Win_in { chan; bytes = w; core = Aie.Cfg.lock_acquire_cycles });
         if thunked then thunk_window_cost st
       end;
       (* Window elements are local-memory traffic once acquired;
          accumulate into 32 B beats. *)
       st.ld_residual <- st.ld_residual + bytes;
       st.usage.Vliw.ld <- st.usage.Vliw.ld + (st.ld_residual / Aie.Cfg.dm_bytes_per_cycle);
       st.ld_residual <- st.ld_residual mod Aie.Cfg.dm_bytes_per_cycle
     | Cgsim.Settings.Rtp ->
       st.usage.Vliw.scl <- st.usage.Vliw.scl + 1;
       flush st;
       push st (Rtp_in { chan }))
  | Aie.Trace.Port_write { port; bytes; transport; thunked } ->
    let slot = slot st port in
    let chan = st.env.chans.(slot) in
    (match transport with
     | Cgsim.Settings.Stream | Cgsim.Settings.Gmio ->
       if thunked then thunk_stream_cost st;
       flush st;
       push st (Wr { chan; bytes; core = stream_cycles bytes })
     | Cgsim.Settings.Window w ->
       ignore (window_step st slot w bytes);
       st.st_residual <- st.st_residual + bytes;
       st.usage.Vliw.st <- st.usage.Vliw.st + (st.st_residual / Aie.Cfg.dm_bytes_per_cycle);
       st.st_residual <- st.st_residual mod Aie.Cfg.dm_bytes_per_cycle;
       if window_completes st slot w then begin
         flush st;
         push st (Win_out { chan; bytes = w; core = Aie.Cfg.lock_acquire_cycles });
         if thunked then thunk_window_cost st
       end
     | Cgsim.Settings.Rtp ->
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

(* How the loop region starting at [events] (just after its Loop_enter)
   ends: a clean [Loop_exit], an exceptional [Loop_abort], or a trace
   that simply stops (fiber cancelled while parked inside the region). *)
let rec region_end depth = function
  | [] -> `Unclosed
  | Aie.Trace.Loop_exit :: _ when depth = 0 -> `Closed
  | Aie.Trace.Loop_abort :: _ when depth = 0 -> `Aborted
  | Aie.Trace.Loop_enter _ :: rest -> region_end (depth + 1) rest
  | (Aie.Trace.Loop_exit | Aie.Trace.Loop_abort) :: rest -> region_end (depth - 1) rest
  | _ :: rest -> region_end depth rest

let compile ?thunk ~env events =
  let st =
    {
      env;
      thunk;
      segs = Array.make 64 Mark;
      len = 0;
      last_port = "";
      last_slot = 0;
      usage = Vliw.empty ();
      win_progress = Array.make (Array.length env.chans) 0;
      ld_residual = 0;
      st_residual = 0;
    }
  in
  (* Loop regions are consumed in place.  [walk ~region events] compiles
     to the end of [events] or, inside a region, through its terminator,
     and returns the events after what it consumed. *)
  let rec walk ~region = function
    | [] -> []
    | Aie.Trace.Loop_enter { trip } :: rest ->
      (match region_end 0 rest with
       | `Closed ->
         let rest, body_usage, ports =
           consume_loop_body st rest ~body_usage:(Vliw.empty ()) ~rev_ports:[]
         in
         if trip > 0 then emit_loop st ~trip ~body_usage ~ports;
         walk ~region rest
       | `Aborted | `Unclosed ->
         (* A partial first iteration: replay its events inline, without
            trip multiplication (functionally only this much data moved). *)
         walk ~region (walk ~region:true rest))
    | (Aie.Trace.Loop_exit | Aie.Trace.Loop_abort) :: rest when region -> rest
    | (Aie.Trace.Loop_exit | Aie.Trace.Loop_abort) :: _ ->
      fail "Loop_exit/abort without matching Loop_enter"
    | ev :: rest ->
      handle_event st ev;
      walk ~region rest
  in
  ignore (walk ~region:false events);
  flush st;
  Array.sub st.segs 0 st.len
