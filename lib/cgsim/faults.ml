(* Deterministic fault injection for chaos testing the serving stack.

   A fault plan taps kernel ports ({!Port.tap}): on the Nth
   access through a matching kernel's port the configured action fires —
   raise, busy-stall, delay, or sustained backpressure.  Everything is
   derived from an explicit seed, so the same plan on the same graph
   under a single-domain schedule reproduces the same outcome; a plan
   carries atomic fire budgets shared across instantiations, which is
   what makes "transient" faults expressible (fail once, then recover on
   retry). *)

exception Injected of string

type action =
  | Raise  (* raise [Injected] out of the kernel body *)
  | Stall  (* spin on [Sched.yield] forever: progress stops, schedule doesn't *)
  | Delay of int  (* insert N cooperative yields, then proceed *)
  | Backpressure of int  (* from the Nth access on: w_space=0, N yields per put *)

let action_to_string = function
  | Raise -> "raise"
  | Stall -> "stall"
  | Delay n -> Printf.sprintf "delay(%d)" n
  | Backpressure n -> Printf.sprintf "backpressure(%d)" n

type spec = {
  fs_kernel : string;  (* kernel instance name, or "*" for any kernel *)
  fs_action : action;
  fs_after : int;  (* fire on the Nth port access (1-based); <= 0: seed-derived *)
  fs_fires : int;  (* total fire budget across instantiations; -1 = unlimited *)
}

let raise_on ~kernel ?(after = 0) ?(fires = 1) () =
  { fs_kernel = kernel; fs_action = Raise; fs_after = after; fs_fires = fires }

let stall_on ~kernel ?(after = 0) ?(fires = 1) () =
  { fs_kernel = kernel; fs_action = Stall; fs_after = after; fs_fires = fires }

let delay_on ~kernel ?(after = 0) ?(yields = 16) ?(fires = 1) () =
  { fs_kernel = kernel; fs_action = Delay yields; fs_after = after; fs_fires = fires }

let backpressure_on ~kernel ?(after = 0) ?(yields = 4) ?(fires = 1) () =
  { fs_kernel = kernel; fs_action = Backpressure yields; fs_after = after; fs_fires = fires }

type armed = {
  a_spec : spec;
  a_after : int;  (* resolved activation count, >= 1 *)
  a_fires : int Atomic.t;  (* remaining budget; -1 = unlimited *)
}

type t = {
  t_seed : int;
  t_armed : armed list;
  t_injected : int Atomic.t;
}

(* xorshift64* — same generator family the workloads use; re-implemented
   here because cgsim sits below lib/workloads. *)
let mix seed =
  let x = ref (if seed = 0 then 0x9E3779B97F4A7C1 else seed) in
  fun () ->
    let v = !x in
    let v = v lxor (v lsl 13) in
    let v = v lxor (v lsr 7) in
    let v = v lxor (v lsl 17) in
    x := v;
    v land max_int

let plan ?(seed = 1) specs =
  let next = mix seed in
  let armed =
    List.map
      (fun sp ->
        let after =
          if sp.fs_after > 0 then sp.fs_after
          else 1 + ((next () + Hashtbl.hash sp.fs_kernel) mod 32)
        in
        { a_spec = sp; a_after = after; a_fires = Atomic.make sp.fs_fires })
      specs
  in
  { t_seed = seed; t_armed = armed; t_injected = Atomic.make 0 }

let seed t = t.t_seed

let injected t = Atomic.get t.t_injected

let describe t =
  List.map
    (fun a ->
      Printf.sprintf "%s on %s after %d access(es), fires=%d"
        (action_to_string a.a_spec.fs_action)
        a.a_spec.fs_kernel a.a_after a.a_spec.fs_fires)
    t.t_armed

let matches a inst_name = a.a_spec.fs_kernel = "*" || String.equal a.a_spec.fs_kernel inst_name

(* Claim one unit of the fire budget; the atomic CAS makes the budget
   exact even when parallel pool domains race to the same plan. *)
let rec take_fire a =
  let n = Atomic.get a.a_fires in
  if n = -1 then true
  else if n <= 0 then false
  else if Atomic.compare_and_set a.a_fires n (n - 1) then true
  else take_fire a

let fired t a port =
  Atomic.incr t.t_injected;
  Obs.Flight.note Obs.Flight.Fault port;
  if !Obs.Trace.on then begin
    Obs.Trace.instant ~track:port ~cat:"faults"
      (Printf.sprintf "inject:%s" (action_to_string a.a_spec.fs_action));
    Obs.Trace.incr_metric "faults.injected"
  end

let inject t a ~port =
  fired t a port;
  match a.a_spec.fs_action with
  | Raise -> raise (Injected (Printf.sprintf "%s: injected fault" port))
  | Stall ->
    (* Busy-stall: the fiber keeps getting scheduled but never advances
       the graph — exactly the divergence the deadline machinery exists
       for.  [Sched.yield] raises [Terminated] once the scheduler's stop
       token is set, so teardown still drains this fiber. *)
    while true do
      Sched.yield ()
    done
  | Delay n ->
    for _ = 1 to n do
      Sched.yield ()
    done
  | Backpressure _ -> ()  (* handled by the writer tap's state *)

(* One counter per tapped port: "the Nth activation" counts accesses
   through that port of the matching kernel instance.  The fire budget
   bounds how many ports (across instantiations) actually trigger.
   Backpressure is writer-only and sustained: once triggered it
   throttles every subsequent put on the port, and the space probe
   reports a full queue so block writers degrade to per-beat. *)
let tap t (inst : Serialized.kernel_inst) port_idx port =
  match List.filter (fun a -> matches a inst.Serialized.inst_name) t.t_armed with
  | [] -> None
  | armed ->
    let writer = inst.Serialized.kernel.Kernel.ports.(port_idx).Kernel.dir = Kernel.Out in
    let count = ref 0 in
    let pressure = ref 0 in
    let before () =
      incr count;
      List.iter
        (fun a ->
          match a.a_spec.fs_action with
          | Backpressure yields ->
            if writer && !count = a.a_after && take_fire a then begin
              fired t a port;
              pressure := max !pressure yields
            end
          | Raise | Stall | Delay _ ->
            if !count = a.a_after && take_fire a then inject t a ~port)
        armed;
      for _ = 1 to !pressure do
        Sched.yield ()
      done
    in
    Some { Port.before; after = ignore; hold_space = (fun () -> !pressure > 0) }
