type event =
  | Vop of { name : string; slots : int }
  | Sop of { name : string; count : int }
  | Load of { bytes : int }
  | Store of { bytes : int }
  | Port_read of {
      port : string;
      bytes : int;
      transport : Cgsim.Settings.transport;
      thunked : bool;
    }
  | Port_write of {
      port : string;
      bytes : int;
      transport : Cgsim.Settings.transport;
      thunked : bool;
    }
  | Loop_enter of { trip : int }
  | Loop_exit
  | Loop_abort
  | Iteration_mark

let pp_event ppf = function
  | Vop { name; slots } -> Format.fprintf ppf "vop %s x%d" name slots
  | Sop { name; count } -> Format.fprintf ppf "sop %s x%d" name count
  | Load { bytes } -> Format.fprintf ppf "load %dB" bytes
  | Store { bytes } -> Format.fprintf ppf "store %dB" bytes
  | Port_read { port; bytes; transport; thunked } ->
    Format.fprintf ppf "read %s %dB %a%s" port bytes Cgsim.Settings.pp_transport transport
      (if thunked then " (thunk)" else "")
  | Port_write { port; bytes; transport; thunked } ->
    Format.fprintf ppf "write %s %dB %a%s" port bytes Cgsim.Settings.pp_transport transport
      (if thunked then " (thunk)" else "")
  | Loop_enter { trip } -> Format.fprintf ppf "loop enter trip=%d" trip
  | Loop_exit -> Format.pp_print_string ppf "loop exit"
  | Loop_abort -> Format.pp_print_string ppf "loop abort"
  | Iteration_mark -> Format.pp_print_string ppf "-- iteration --"

type recorder = {
  mutable rev_events : event list;
  mutable count : int;
  (* When > 0 we are inside a pipelined loop replaying iterations beyond
     the first: functional execution continues, recording is paused. *)
  mutable suppressed : int;
}

type Cgsim.Kernel.context += Recorder of recorder

let recorder (b : Cgsim.Kernel.binding) =
  match b.context with
  | Recorder r -> Some r
  | _ -> None

let create_recorder () = { rev_events = []; count = 0; suppressed = 0 }

let events r = List.rev r.rev_events

let event_count r = r.count

let recording r = r.suppressed = 0

let push r ev =
  if r.suppressed = 0 then begin
    r.rev_events <- ev :: r.rev_events;
    r.count <- r.count + 1
  end

(* Test the recorder before the event is allocated, so untraced calls
   allocate nothing here beyond an optional argument's [Some]. *)
let sop tr ?(count = 1) name =
  match tr with
  | Some r when r.suppressed = 0 -> push r (Sop { name; count })
  | _ -> ()

let mark_iteration tr =
  match tr with
  | Some r -> push r Iteration_mark
  | None -> ()

let with_pipelined_loop tr ~trip body =
  if trip < 0 then invalid_arg "aie: pipelined loop with negative trip count";
  if trip = 0 then ()
  else begin
    match tr with
    | Some r when r.suppressed = 0 ->
      push r (Loop_enter { trip });
      (* The first iteration is the recorded one; if it aborts (stream
         drained, fiber cancelled) mark the region so the replay does not
         multiply a partial body by the trip count. *)
      (try body 0 with e ->
        push r Loop_abort;
        raise e);
      push r Loop_exit;
      r.suppressed <- r.suppressed + 1;
      Fun.protect
        ~finally:(fun () -> r.suppressed <- r.suppressed - 1)
        (fun () ->
          for i = 1 to trip - 1 do
            body i
          done)
    | _ ->
      for i = 0 to trip - 1 do
        body i
      done
  end
