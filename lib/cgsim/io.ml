type payload =
  | Floats of float array
  | Ints of int array
  | Values of Value.t array

type source = {
  src_name : string;
  payload : payload;
}

type sink = {
  snk_name : string;
  push_floats : float array -> int -> unit;  (* the first [n] elements *)
  push_ints : int array -> int -> unit;
  push_values : Value.t array -> int -> unit;
}

let of_array values = { src_name = "array-source"; payload = Values values }

let of_list values = { src_name = "list-source"; payload = Values (Array.of_list values) }

(* Round once, up front, in a monomorphic loop: [Array.map] would box
   every rounded element on its way through the closure. *)
let of_f32_array values =
  let rounded = Array.create_float (Array.length values) in
  for i = 0 to Array.length values - 1 do
    Array.unsafe_set rounded i (Value.round_f32 (Array.unsafe_get values i))
  done;
  { src_name = "f32-source"; payload = Floats rounded }

let of_int_array dtype values =
  { src_name = "int-source"; payload = Ints (Array.map (Value.wrap_int dtype) values) }

let rtp v = { src_name = "rtp-source"; payload = Values [| v |] }

let source_name s = s.src_name

let value_at payload i =
  match payload with
  | Floats fs -> Value.Float fs.(i)
  | Ints is -> Value.Int is.(i)
  | Values vs -> vs.(i)

let length = function
  | Floats fs -> Array.length fs
  | Ints is -> Array.length is
  | Values vs -> Array.length vs

let source_pull s =
  let i = ref 0 in
  fun () ->
    if !i >= length s.payload then None
    else begin
      let v = value_at s.payload !i in
      incr i;
      Some v
    end

let elements s = List.init (length s.payload) (value_at s.payload)

let buffer () =
  let acc = ref [] in
  ( {
      snk_name = "buffer-sink";
      push_floats =
        (fun fs n ->
          for i = 0 to n - 1 do
            acc := Value.Float fs.(i) :: !acc
          done);
      push_ints =
        (fun is n ->
          for i = 0 to n - 1 do
            acc := Value.Int is.(i) :: !acc
          done);
      push_values =
        (fun vs n ->
          for i = 0 to n - 1 do
            acc := vs.(i) :: !acc
          done);
    },
    fun () -> List.rev !acc )

(* Growable flat accumulator shared by the typed buffer sinks: [push_many]
   blits a drain buffer of the sink's own kind, [push_one] stores a
   converted element. *)
let flat_buffer (zero : 'a) =
  let buf = ref (Array.make 64 zero) in
  let len = ref 0 in
  let reserve n =
    if !len + n > Array.length !buf then begin
      let nc = ref (Array.length !buf * 2) in
      while !nc < !len + n do
        nc := !nc * 2
      done;
      let b = Array.make !nc zero in
      Array.blit !buf 0 b 0 !len;
      buf := b
    end
  in
  let push_one x =
    reserve 1;
    !buf.(!len) <- x;
    incr len
  in
  let push_many xs n =
    reserve n;
    Array.blit xs 0 !buf !len n;
    len := !len + n
  in
  push_one, push_many, fun () -> Array.sub !buf 0 !len

let f32_buffer () =
  let push_one, push_floats, contents = flat_buffer 0. in
  ( {
      snk_name = "f32-buffer-sink";
      push_floats;
      push_ints =
        (fun is n ->
          for i = 0 to n - 1 do
            push_one (float_of_int is.(i))
          done);
      push_values =
        (fun vs n ->
          for i = 0 to n - 1 do
            push_one (Value.to_float vs.(i))
          done);
    },
    contents )

let int_buffer () =
  let push_one, push_ints, contents = flat_buffer 0 in
  ( {
      snk_name = "int-buffer-sink";
      push_floats =
        (fun fs n ->
          for i = 0 to n - 1 do
            push_one (int_of_float fs.(i))
          done);
      push_ints;
      push_values =
        (fun vs n ->
          for i = 0 to n - 1 do
            push_one (Value.to_int vs.(i))
          done);
    },
    contents )

let rtp_sink () =
  let cell = ref None in
  ( {
      snk_name = "rtp-sink";
      push_floats = (fun fs n -> if n > 0 then cell := Some (Value.Float fs.(n - 1)));
      push_ints = (fun is n -> if n > 0 then cell := Some (Value.Int is.(n - 1)));
      push_values = (fun vs n -> if n > 0 then cell := Some vs.(n - 1));
    },
    fun () -> !cell )

let null () =
  {
    snk_name = "null-sink";
    push_floats = (fun _ _ -> ());
    push_ints = (fun _ _ -> ());
    push_values = (fun _ _ -> ());
  }

let sink_name s = s.snk_name

(* ------------------------------------------------------------------ *)
(* Transfers, shared by cgsim's pumps and x86sim's queues              *)
(* ------------------------------------------------------------------ *)

let source_length s = length s.payload

(* Pumps move data in chunks of this many elements at most; bounded by
   the queue capacity so a chunk is at most one full ring. *)
let chunk_of capacity = Int.max 1 (Int.min capacity 1024)

type write = { write : 'b. 'b Ring.kind -> 'b -> int -> int -> unit }

type read = { read : 'b. 'b Ring.kind -> 'b -> int -> int -> int }

let copy_chunks ~chunk w kind xs off len =
  let stop = off + len in
  let i = ref off in
  while !i < stop do
    let k = Int.min chunk (stop - !i) in
    w.write kind xs !i k;
    i := !i + k
  done

let mismatch s dtype kind =
  invalid_arg
    (Printf.sprintf "cgsim: source %s carries %s but its net carries %s" s.src_name kind
       (Dtype.to_string dtype))

let transfer dtype s ~chunk w off len =
  match s.payload with
  | Floats fs ->
    if Dtype.is_float dtype then copy_chunks ~chunk w Ring.floats fs off len
    else mismatch s dtype "floats"
  | Ints is ->
    if Dtype.is_integer dtype then copy_chunks ~chunk w Ring.ints is off len
    else mismatch s dtype "ints"
  | Values vs -> copy_chunks ~chunk w Ring.values vs off len

type outlet =
  | Float_out of sink * float array
  | Int_out of sink * int array
  | Value_out of sink * Value.t array

let outlet dtype ~capacity k =
  let chunk = chunk_of capacity in
  if Dtype.is_float dtype then Float_out (k, Array.create_float chunk)
  else if Dtype.is_integer dtype then Int_out (k, Array.make chunk 0)
  else Value_out (k, Array.make chunk (Value.Int 0))

let emit o r =
  match o with
  | Float_out (k, buf) -> k.push_floats buf (r.read Ring.floats buf 0 (Array.length buf))
  | Int_out (k, buf) -> k.push_ints buf (r.read Ring.ints buf 0 (Array.length buf))
  | Value_out (k, buf) -> k.push_values buf (r.read Ring.values buf 0 (Array.length buf))

(* cgsim's pumps.  A write takes an offset, so [feed] hands each chunk
   of the payload to the queue in place. *)
let feed dtype ~capacity w s = transfer dtype s ~chunk:(chunk_of capacity) w 0 (source_length s)

let drain dtype ~capacity r k =
  let o = outlet dtype ~capacity k in
  while true do
    emit o r
  done
