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

(* The one accumulator behind the buffer sinks.  A push copies into
   chunks of at most [max_chunk] elements, each tagged with its payload
   kind, so every allocation is a small one in the minor heap, no element
   is copied twice and the arrival order across kinds is kept.  A new
   chunk is sized to what is left of the pending push, so a short reply
   does not pay for a full chunk.  Readers box or convert only when they
   run, after the run. *)
let min_chunk = 16

let max_chunk = 256

type acc = {
  mutable cur : payload;  (* the chunk being filled *)
  mutable fill : int;  (* elements of [cur] in use *)
  mutable sealed : (payload * int) list;  (* earlier chunks and their fills, newest first *)
  mutable total : int;
}

(* [current] returns the chunk being filled if it has the pushed kind,
   else an empty array, which has no room. *)
let push a make wrap current xs n =
  let off = ref 0 in
  while !off < n do
    let dst =
      let d = current a.cur in
      if a.fill < Array.length d then d
      else begin
        let d = make (Int.max min_chunk (Int.min max_chunk (n - !off))) in
        if a.fill > 0 then a.sealed <- (a.cur, a.fill) :: a.sealed;
        a.cur <- wrap d;
        a.fill <- 0;
        d
      end
    in
    let k = Int.min (n - !off) (Array.length dst - a.fill) in
    Array.blit xs !off dst a.fill k;
    a.fill <- a.fill + k;
    off := !off + k
  done;
  a.total <- a.total + n

(* [f chunk fill stop] for every chunk, newest first, where [stop] is
   the chunk's end position in the whole output. *)
let iter_back a f =
  let stop = ref a.total in
  List.iter
    (fun (p, n) ->
      f p n !stop;
      stop := !stop - n)
    ((a.cur, a.fill) :: a.sealed)

(* [check] vets each boxed value as it arrives, so a typed sink fed an
   aggregate net fails in the run, naming the sink, as it always has. *)
let accumulator snk_name ~check read =
  let a = { cur = Values [||]; fill = 0; sealed = []; total = 0 } in
  ( {
      snk_name;
      push_floats =
        (fun fs n ->
          push a Array.create_float
            (fun d -> Floats d)
            (function Floats d -> d | _ -> [||])
            fs n);
      push_ints =
        (fun is n ->
          push a
            (fun k -> Array.make k 0)
            (fun d -> Ints d)
            (function Ints d -> d | _ -> [||])
            is n);
      push_values =
        (fun vs n ->
          for i = 0 to n - 1 do
            check vs.(i)
          done;
          push a
            (fun k -> Array.make k (Value.Int 0))
            (fun d -> Values d)
            (function Values d -> d | _ -> [||])
            vs n);
    },
    fun () -> read a )

(* Built from the newest chunk back, so no reversal. *)
let buffer () =
  accumulator "buffer-sink" ~check:ignore (fun a ->
      let out = ref [] in
      iter_back a (fun p n _ ->
          for i = n - 1 downto 0 do
            out := value_at p i :: !out
          done);
      !out)

let f32_buffer () =
  accumulator "f32-buffer-sink"
    ~check:(fun v -> ignore (Value.to_float v))
    (fun a ->
      let out = Array.create_float a.total in
      iter_back a (fun p n stop ->
          let base = stop - n in
          match p with
          | Floats fs -> Array.blit fs 0 out base n
          | Ints is ->
            for i = 0 to n - 1 do
              out.(base + i) <- float_of_int is.(i)
            done
          | Values vs ->
            for i = 0 to n - 1 do
              out.(base + i) <- Value.to_float vs.(i)
            done);
      out)

let int_buffer () =
  accumulator "int-buffer-sink"
    ~check:(fun v -> ignore (Value.to_int v))
    (fun a ->
      let out = Array.make a.total 0 in
      iter_back a (fun p n stop ->
          let base = stop - n in
          match p with
          | Floats fs ->
            for i = 0 to n - 1 do
              out.(base + i) <- int_of_float fs.(i)
            done
          | Ints is -> Array.blit is 0 out base n
          | Values vs ->
            for i = 0 to n - 1 do
              out.(base + i) <- Value.to_int vs.(i)
            done);
      out)

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
