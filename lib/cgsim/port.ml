type lanes = Ring.lanes = {
  ints : int array;
  floats : float array;
}

type reader = {
  r_name : string;
  r_dtype : Dtype.t;
  r_get : unit -> Value.t;
  r_read : 'b. 'b Ring.kind -> 'b -> int -> int -> unit;
}

type writer = {
  w_name : string;
  w_dtype : Dtype.t;
  w_put : Value.t -> unit;
  w_write : 'b. 'b Ring.kind -> 'b -> int -> int -> unit;
  w_space : unit -> int;
}

type tap = {
  before : unit -> unit;
  after : int -> unit;
  hold_space : unit -> bool;
}

let no_tap = { before = ignore; after = ignore; hold_space = (fun () -> false) }

(* Several taps act as one: [before]s and [after]s in list order, space
   held when any tap holds it. *)
let merge = function
  | [ t ] -> t
  | ts ->
    {
      before = (fun () -> List.iter (fun t -> t.before ()) ts);
      after = (fun n -> List.iter (fun t -> t.after n) ts);
      hold_space = (fun () -> List.exists (fun t -> t.hold_space ()) ts);
    }

(* The only place the transfer forms are listed for interception: the
   element and block forms each call [before], move their payload
   through the untapped closure, then report the element count to
   [after]. *)
let tap_reader taps r =
  match taps with
  | [] -> r
  | _ ->
    let t = merge taps in
    {
      r with
      r_get =
        (fun () ->
          t.before ();
          let v = r.r_get () in
          t.after 1;
          v);
      r_read =
        (fun k b off n ->
          t.before ();
          r.r_read k b off n;
          t.after n);
    }

let tap_writer taps w =
  match taps with
  | [] -> w
  | _ ->
    let t = merge taps in
    {
      w with
      w_put =
        (fun v ->
          t.before ();
          w.w_put v;
          t.after 1);
      w_write =
        (fun k b off n ->
          t.before ();
          w.w_write k b off n;
          t.after n);
      w_space = (fun () -> if t.hold_space () then 0 else w.w_space ());
    }

let get r = r.r_get ()

let put w v = w.w_put v

(* Windows: flat float/int payloads through the transport's one block
   read and write — no Value boxing on bigarray-backed queues. *)
let get_window_f32 r dst = r.r_read Ring.floats dst 0 (Array.length dst)

let put_window_f32 w fs = w.w_write Ring.floats fs 0 (Array.length fs)

let get_window_int r dst = r.r_read Ring.ints dst 0 (Array.length dst)

let put_window_int w is = w.w_write Ring.ints is 0 (Array.length is)

(* Lane windows: the flat form of a Vector or Struct net. *)
let lanes dtype n =
  if Dtype.is_scalar dtype then
    invalid_arg ("cgsim: lane buffers for scalar dtype " ^ Dtype.to_string dtype);
  let ni, nf = Ring.lane_counts dtype in
  { ints = Array.make (n * ni) 0; floats = Array.create_float (n * nf) }

let get_lanes r b off n = r.r_read Ring.lanes b off n

let put_lanes w b off n = w.w_write Ring.lanes b off n

(* Two-port interleaved block write.  Some kernels (farrow stage 1)
   produce two streams that a downstream kernel drains alternately; a
   whole-window burst on one port before touching the other can exceed
   the in-flight buffering of both queues together and deadlock.  This
   writes the pair in lockstep chunks bounded by the currently free
   space of the tighter queue, so the consumer always gets data on the
   stream it needs next.  When neither queue has space the chunk
   degrades to one element, which blocks exactly like the scalar
   interleave — progress is guaranteed whenever the plain per-element
   interleave would make progress.  Each chunk is a lane write at its
   offset into the caller's buffers, so nothing is copied or
   allocated. *)
let put_window2 wa wb la lb n =
  let off = ref 0 in
  while !off < n do
    let free = Int.min (wa.w_space ()) (wb.w_space ()) in
    let len = Int.min (n - !off) (Int.max 1 free) in
    wa.w_write Ring.lanes la !off len;
    wb.w_write Ring.lanes lb !off len;
    off := !off + len
  done

let get_f32 r = Value.to_float (get r)

let get_int r = Value.to_int (get r)

let put_f32 w f = put w (Value.Float f)

let put_int w i = put w (Value.Int i)
