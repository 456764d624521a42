(* Storage follows the dtype.  Scalar dtypes get Bigarray backing so
   block transfers move flat memory (no per-element Value boxing); the
   boxed array is the aggregate-dtype path only.  Integer dtypes share
   one native-int bigarray: U32 (max 4294967295) and I64 payloads exceed
   int32, and native [int_elt] keeps every in-range integer dtype exact
   while the copy loops stay branch-free. *)
type f32ba = (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t

type f64ba = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type intba = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type storage =
  | Boxed of Value.t array
  | F32 of f32ba
  | F64 of f64ba
  | Ints of intba

type cursor = { mutable pos : int }

type t = {
  name : string;
  dtype : Dtype.t;
  cap : int;
  buf : storage;
  check : Value.t -> bool;
  mutable head : int;
  mutable retired : int;
  mutable cursors : cursor list;
}

let make_storage dtype capacity =
  match dtype with
  | Dtype.F32 -> F32 (Bigarray.Array1.create Bigarray.float32 Bigarray.c_layout capacity)
  | Dtype.F64 -> F64 (Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout capacity)
  | Dtype.I8 | Dtype.I16 | Dtype.I32 | Dtype.I64 | Dtype.U8 | Dtype.U16 | Dtype.U32 ->
    Ints (Bigarray.Array1.create Bigarray.int Bigarray.c_layout capacity)
  | Dtype.Vector _ | Dtype.Struct _ -> Boxed (Array.make capacity (Value.Int 0))

let create ~name ~dtype ~capacity =
  if capacity <= 0 then invalid_arg ("cgsim: queue capacity must be positive: " ^ name);
  {
    name;
    dtype;
    cap = capacity;
    buf = make_storage dtype capacity;
    check = Value.compile_check dtype;
    head = 0;
    retired = 0;
    cursors = [];
  }

(* A cursor attached mid-stream starts at the current head: broadcast
   completeness is defined from attachment onward.  The first cursor pins
   the retirement point; a later one starts at head >= retired, so the
   cached minimum stands. *)
let add_cursor r =
  let c = { pos = r.head } in
  if r.cursors = [] then r.retired <- r.head;
  r.cursors <- c :: r.cursors;
  c

let reset r =
  r.head <- 0;
  r.retired <- 0;
  List.iter (fun c -> c.pos <- 0) r.cursors

(* Retirement point: the slowest cursor.  With no cursors the ring acts
   as a sink and retires immediately (broadcast to zero endpoints).

   Invariant: with cursors attached, [r.retired] equals the minimum
   cursor at all times.  It is re-folded only when the cursor that sat
   at the retirement point advances ([advance]); every other read leaves
   the minimum — and therefore the cache — untouched, so the common
   put/get/blocked-wait paths read one field instead of folding the
   cursor list. *)
let min_cursor r =
  match r.cursors with
  | [] -> r.head
  | _ :: _ -> r.retired

let space r = r.cap - (r.head - min_cursor r)

let occupancy r = r.head - min_cursor r

let advance r c n =
  let old = c.pos in
  c.pos <- old + n;
  if old = r.retired then
    match r.cursors with
    | [] -> ()
    | c0 :: rest ->
      r.retired <- List.fold_left (fun acc c -> if c.pos < acc then c.pos else acc) c0.pos rest

(* ------------------------------------------------------------------ *)
(* Dtype checks                                                        *)
(* ------------------------------------------------------------------ *)

let reject r v = Value.check ~net:r.name r.dtype v

let check_values r vs =
  for i = 0 to Array.length vs - 1 do
    let v = Array.unsafe_get vs i in
    if not (r.check v) then reject r v
  done

let wrong_dtype r what =
  invalid_arg
    (Printf.sprintf "cgsim: %s on net %s of dtype %s" what r.name (Dtype.to_string r.dtype))

let require_float r what = if not (Dtype.is_float r.dtype) then wrong_dtype r what

let require_int r what = if not (Dtype.is_integer r.dtype) then wrong_dtype r what

let int_out_of_range r v =
  invalid_arg
    (Printf.sprintf "cgsim: value %d does not conform to dtype %s on net %s" v
       (Dtype.to_string r.dtype) r.name)

let check_ints r (src : int array) =
  match Value.int_range r.dtype with
  | None -> ()
  | Some (lo, hi) -> Array.iter (fun v -> if v < lo || v > hi then int_out_of_range r v) src

(* ------------------------------------------------------------------ *)
(* Single slots                                                        *)
(* ------------------------------------------------------------------ *)

(* Bigarray-backed slots box/unbox at the boundary; [push] assumes the
   value already passed the dtype check, so the conversions cannot
   fail. *)

let push r v =
  let i = r.head mod r.cap in
  (match r.buf with
   | Boxed a -> Array.unsafe_set a i v
   | F32 ba -> Bigarray.Array1.unsafe_set ba i (Value.to_float v)
   | F64 ba -> Bigarray.Array1.unsafe_set ba i (Value.to_float v)
   | Ints ba -> Bigarray.Array1.unsafe_set ba i (Value.to_int v));
  r.head <- r.head + 1

let peek r c =
  let i = c.pos mod r.cap in
  match r.buf with
  | Boxed a -> Array.unsafe_get a i
  | F32 ba -> Value.Float (Bigarray.Array1.unsafe_get ba i)
  | F64 ba -> Value.Float (Bigarray.Array1.unsafe_get ba i)
  | Ints ba -> Value.Int (Bigarray.Array1.unsafe_get ba i)

(* [peek] and [advance] by one in a single call: the element read is one
   cross-module call per element, not two. *)
let take r c =
  let v = peek r c in
  advance r c 1;
  v

(* ------------------------------------------------------------------ *)
(* Segment copies                                                      *)
(* ------------------------------------------------------------------ *)

(* A chunk of [len] elements at sequence number [pos] is at most two
   contiguous segments: up to the wrap point, then the remainder from
   slot 0.  [seam] hands each to [seg ring_idx payload_off len].

   The Value.t <-> bigarray loops are monomorphic in the bigarray kind:
   with the element type statically known the compiler emits inline
   loads/stores, whereas a kind-polymorphic loop would call the generic
   C accessor per element.  Native-array <-> bigarray segments go
   through [@@noalloc] C stubs (memcpy for f64 and int, a vectorized
   convert loop for f32): no GC interaction, no boxing, one call per
   segment.  Indices are in range by construction, hence the unsafe
   accessors. *)
let seam r pos off len seg =
  let idx = pos mod r.cap in
  let first = min len (r.cap - idx) in
  seg idx off first;
  if len > first then seg 0 (off + first) (len - first)

let values_to_f32 (ba : f32ba) (src : Value.t array) idx soff len =
  for i = 0 to len - 1 do
    Bigarray.Array1.unsafe_set ba (idx + i) (Value.to_float (Array.unsafe_get src (soff + i)))
  done

let values_to_f64 (ba : f64ba) (src : Value.t array) idx soff len =
  for i = 0 to len - 1 do
    Bigarray.Array1.unsafe_set ba (idx + i) (Value.to_float (Array.unsafe_get src (soff + i)))
  done

let values_to_ints (ba : intba) (src : Value.t array) idx soff len =
  for i = 0 to len - 1 do
    Bigarray.Array1.unsafe_set ba (idx + i) (Value.to_int (Array.unsafe_get src (soff + i)))
  done

let f32_to_values (ba : f32ba) (dst : Value.t array) idx doff len =
  for i = 0 to len - 1 do
    Array.unsafe_set dst (doff + i) (Value.Float (Bigarray.Array1.unsafe_get ba (idx + i)))
  done

let f64_to_values (ba : f64ba) (dst : Value.t array) idx doff len =
  for i = 0 to len - 1 do
    Array.unsafe_set dst (doff + i) (Value.Float (Bigarray.Array1.unsafe_get ba (idx + i)))
  done

let ints_to_values (ba : intba) (dst : Value.t array) idx doff len =
  for i = 0 to len - 1 do
    Array.unsafe_set dst (doff + i) (Value.Int (Bigarray.Array1.unsafe_get ba (idx + i)))
  done

external floats_to_f32 : f32ba -> float array -> int -> int -> int -> unit
  = "cgsim_floats_to_f32"
  [@@noalloc]

external f32_to_floats : f32ba -> float array -> int -> int -> int -> unit
  = "cgsim_f32_to_floats"
  [@@noalloc]

external floats_to_f64 : f64ba -> float array -> int -> int -> int -> unit
  = "cgsim_floats_to_f64"
  [@@noalloc]

external f64_to_floats : f64ba -> float array -> int -> int -> int -> unit
  = "cgsim_f64_to_floats"
  [@@noalloc]

external ints_to_iba : intba -> int array -> int -> int -> int -> unit
  = "cgsim_ints_to_iba"
  [@@noalloc]

external iba_to_ints : intba -> int array -> int -> int -> int -> unit
  = "cgsim_iba_to_ints"
  [@@noalloc]

(* Range-checked int store: returns the first offending source offset,
   -1 when the whole segment landed. *)
external ints_to_iba_checked : intba -> int array -> int -> int -> int -> int -> int -> int
  = "cgsim_ints_to_iba_checked_byte" "cgsim_ints_to_iba_checked"
  [@@noalloc]

(* The stubs take (ba, payload, payload_off, ring_idx, len) on stores and
   (ba, payload, ring_idx, payload_off, len) on loads; [seam] passes
   (ring_idx, payload_off, len). *)

let push_values r src off len =
  (match r.buf with
   | Boxed a -> seam r r.head off len (fun idx so l -> Array.blit src so a idx l)
   | F32 ba -> seam r r.head off len (values_to_f32 ba src)
   | F64 ba -> seam r r.head off len (values_to_f64 ba src)
   | Ints ba -> seam r r.head off len (values_to_ints ba src));
  r.head <- r.head + len

let read_values r c dst off len =
  match r.buf with
  | Boxed a -> seam r c.pos off len (fun idx doff l -> Array.blit a idx dst doff l)
  | F32 ba -> seam r c.pos off len (f32_to_values ba dst)
  | F64 ba -> seam r c.pos off len (f64_to_values ba dst)
  | Ints ba -> seam r c.pos off len (ints_to_values ba dst)

(* Flat payloads.  The dtype fixed the storage, so after
   [require_float]/[require_int] a float transfer always meets float
   storage and an int transfer int storage.  F32 storage rounds on store
   exactly as {!Value.round_f32}. *)

let push_floats r src off len =
  (match r.buf with
   | F32 ba -> seam r r.head off len (fun idx so l -> floats_to_f32 ba src so idx l)
   | F64 ba -> seam r r.head off len (fun idx so l -> floats_to_f64 ba src so idx l)
   | Boxed _ | Ints _ -> wrong_dtype r "float block write");
  r.head <- r.head + len

let read_floats r c dst off len =
  match r.buf with
  | F32 ba -> seam r c.pos off len (f32_to_floats ba dst)
  | F64 ba -> seam r c.pos off len (f64_to_floats ba dst)
  | Boxed _ | Ints _ -> wrong_dtype r "float block read"

(* The range check is fused into the copy: one pass over the payload
   instead of a check pass plus a copy pass.  A violation raises before
   [head] advances, so no offending element is published (slots beyond
   [head] may hold partial writes, which the ring treats as free
   space). *)
let push_ints r src off len =
  (match r.buf, Value.int_range r.dtype with
   | Ints ba, None -> seam r r.head off len (fun idx so l -> ints_to_iba ba src so idx l)
   | Ints ba, Some (lo, hi) ->
     seam r r.head off len (fun idx so l ->
         let bad = ints_to_iba_checked ba src so idx l lo hi in
         if bad >= 0 then int_out_of_range r src.(bad))
   | (Boxed _ | F32 _ | F64 _), _ -> wrong_dtype r "int block write");
  r.head <- r.head + len

let read_ints r c dst off len =
  match r.buf with
  | Ints ba -> seam r c.pos off len (iba_to_ints ba dst)
  | Boxed _ | F32 _ | F64 _ -> wrong_dtype r "int block read"
