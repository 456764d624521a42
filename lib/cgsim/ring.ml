(* Storage follows the dtype, and every kind is a bigarray, so block
   transfers move flat memory (no per-element Value boxing).  Integer
   dtypes share one native-int bigarray: U32 (max 4294967295) and I64
   payloads exceed int32, and native [int_elt] keeps every in-range
   integer dtype exact while the copy loops stay branch-free.  A
   [Vector] or [Struct] element is stored as scalar lanes, as it crosses
   an AIE stream as a fixed number of beats: its int lanes in one
   native-int bigarray, its float lanes unrounded in an f64 one. *)
type f32ba = (float, Bigarray.float32_elt, Bigarray.c_layout) Bigarray.Array1.t

type f64ba = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type intba = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type lanes = {
  ints : int array;
  floats : float array;
}

(* An aggregate ring's lane layout, computed once from the dtype: slot
   [i] holds int lanes [i * n_int ..] and float lanes [i * n_float ..].
   [store] unpacks and checks one value into the lanes at the given
   bases, [load] builds one back; [lo]/[hi] bound each int lane, and
   [range] is their one bound when every lane is an int lane of the
   same range. *)
type layout = {
  n_int : int;
  n_float : int;
  l_ints : intba;
  l_floats : f64ba;
  lo : int array;
  hi : int array;
  range : (int * int) option;
  store : Value.t -> int -> int -> bool;
  load : int -> int -> Value.t;
}

type storage =
  | F32 of f32ba
  | F64 of f64ba
  | Ints of intba
  | Lanes of layout

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

(* ------------------------------------------------------------------ *)
(* Lane layout                                                         *)
(* ------------------------------------------------------------------ *)

let rec lane_counts = function
  | Dtype.F32 | Dtype.F64 -> 0, 1
  | Dtype.I8 | Dtype.I16 | Dtype.I32 | Dtype.I64 | Dtype.U8 | Dtype.U16 | Dtype.U32 -> 1, 0
  | Dtype.Vector (e, n) ->
    let i, f = lane_counts e in
    i * n, f * n
  | Dtype.Struct fields ->
    List.fold_left
      (fun (i, f) (_, t) ->
        let i', f' = lane_counts t in
        i + i', f + f')
      (0, 0) fields

let int_bounds d = Option.value (Value.int_range d) ~default:(min_int, max_int)

(* Int lane bounds in lane order. *)
let rec lane_bounds = function
  | Dtype.F32 | Dtype.F64 -> []
  | Dtype.Vector (e, n) -> List.concat (List.init n (fun _ -> lane_bounds e))
  | Dtype.Struct fields -> List.concat_map (fun (_, t) -> lane_bounds t) fields
  | d -> [ int_bounds d ]

(* A Vector's element [k] sits [k] element strides ([ni] int and [nf]
   float lanes) past the Vector's own lanes. *)
let rec store_vec st a ni nf bi bf k =
  k >= Array.length a
  || (st (Array.unsafe_get a k) (bi + (k * ni)) (bf + (k * nf)) && store_vec st a ni nf bi bf (k + 1))

let rec store_fields fields fvs bi bf =
  match fields, fvs with
  | [], [] -> true
  | (n, st, _) :: fields, (vn, v) :: fvs ->
    String.equal n vn && st v bi bf && store_fields fields fvs bi bf
  | _ :: _, [] | [], _ :: _ -> false

(* The filler of a freshly made Vector, overwritten at once. *)
let zero = Value.Int 0

(* [compile ints floats d io fo] is the store and load of a [d] whose
   lanes start at offsets [io]/[fo] within an element; both take the
   element's int and float lane bases. *)
let rec compile (ints : intba) (floats : f64ba) d io fo =
  match d with
  | Dtype.F32 | Dtype.F64 ->
    ( (fun v _ bf ->
        match v with
        | Value.Float x ->
          Bigarray.Array1.unsafe_set floats (bf + fo) x;
          true
        | Value.Int _ | Value.Vec _ | Value.Rec _ -> false),
      fun _ bf -> Value.Float (Bigarray.Array1.unsafe_get floats (bf + fo)) )
  | Dtype.I8 | Dtype.I16 | Dtype.I32 | Dtype.I64 | Dtype.U8 | Dtype.U16 | Dtype.U32 ->
    let lo, hi = int_bounds d in
    ( (fun v bi _ ->
        match v with
        | Value.Int x when x >= lo && x <= hi ->
          Bigarray.Array1.unsafe_set ints (bi + io) x;
          true
        | Value.Int _ | Value.Float _ | Value.Vec _ | Value.Rec _ -> false),
      fun bi _ -> Value.Int (Bigarray.Array1.unsafe_get ints (bi + io)) )
  | Dtype.Vector (e, n) ->
    let st, ld = compile ints floats e io fo in
    let ni, nf = lane_counts e in
    ( (fun v bi bf ->
        match v with
        | Value.Vec a -> Array.length a = n && store_vec st a ni nf bi bf 0
        | Value.Float _ | Value.Int _ | Value.Rec _ -> false),
      fun bi bf ->
        let a = Array.make n zero in
        for k = 0 to n - 1 do
          Array.unsafe_set a k (ld (bi + (k * ni)) (bf + (k * nf)))
        done;
        Value.Vec a )
  | Dtype.Struct fields ->
    let _, _, rev =
      List.fold_left
        (fun (io, fo, acc) (name, t) ->
          let st, ld = compile ints floats t io fo in
          let ni, nf = lane_counts t in
          io + ni, fo + nf, (name, st, ld) :: acc)
        (io, fo, []) fields
    in
    let parts = List.rev rev in
    ( (fun v bi bf ->
        match v with
        | Value.Rec fvs -> store_fields parts fvs bi bf
        | Value.Float _ | Value.Int _ | Value.Vec _ -> false),
      fun bi bf -> Value.Rec (List.map (fun (name, _, ld) -> name, ld bi bf) parts) )

let layout dtype capacity =
  let n_int, n_float = lane_counts dtype in
  let l_ints = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (capacity * n_int) in
  let l_floats = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (capacity * n_float) in
  let bounds = lane_bounds dtype in
  let store, load = compile l_ints l_floats dtype 0 0 in
  {
    n_int;
    n_float;
    l_ints;
    l_floats;
    lo = Array.of_list (List.map fst bounds);
    hi = Array.of_list (List.map snd bounds);
    range =
      (match bounds with
       | b :: rest when n_float = 0 && List.for_all (( = ) b) rest -> Some b
       | _ -> None);
    store;
    load;
  }

let make_storage dtype capacity =
  match dtype with
  | Dtype.F32 -> F32 (Bigarray.Array1.create Bigarray.float32 Bigarray.c_layout capacity)
  | Dtype.F64 -> F64 (Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout capacity)
  | Dtype.I8 | Dtype.I16 | Dtype.I32 | Dtype.I64 | Dtype.U8 | Dtype.U16 | Dtype.U32 ->
    Ints (Bigarray.Array1.create Bigarray.int Bigarray.c_layout capacity)
  | Dtype.Vector _ | Dtype.Struct _ -> Lanes (layout dtype capacity)

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

let wrong_dtype r what =
  invalid_arg
    (Printf.sprintf "cgsim: %s block on net %s of dtype %s" what r.name (Dtype.to_string r.dtype))

let int_out_of_range r v =
  invalid_arg
    (Printf.sprintf "cgsim: value %d does not conform to dtype %s on net %s" v
       (Dtype.to_string r.dtype) r.name)

let out_of_range r what off n len =
  invalid_arg
    (Printf.sprintf "cgsim: %s block of %d elements at offset %d on net %s: the buffer holds %d"
       what n off r.name len)

(* [off .. off + n - 1] must lie within the [len] elements a buffer
   holds; written so that no sum can overflow. *)
let require_range r what off n len =
  if off < 0 || n < 0 || off > len - n then out_of_range r what off n len

(* ------------------------------------------------------------------ *)
(* Single slots                                                        *)
(* ------------------------------------------------------------------ *)

(* One pass checks and stores: a scalar slot tests the value with
   [check] and unboxes it; an aggregate's [store] unpacks and tests lane
   by lane.  A bad value raises before [head] moves (an aggregate may
   leave lanes of the free slot written, which is free space). *)
let store r i v =
  match r.buf with
  | F32 ba ->
    if not (r.check v) then reject r v;
    Bigarray.Array1.unsafe_set ba i (Value.to_float v)
  | F64 ba ->
    if not (r.check v) then reject r v;
    Bigarray.Array1.unsafe_set ba i (Value.to_float v)
  | Ints ba ->
    if not (r.check v) then reject r v;
    Bigarray.Array1.unsafe_set ba i (Value.to_int v)
  | Lanes l -> if not (l.store v (i * l.n_int) (i * l.n_float)) then reject r v

let load r i =
  match r.buf with
  | F32 ba -> Value.Float (Bigarray.Array1.unsafe_get ba i)
  | F64 ba -> Value.Float (Bigarray.Array1.unsafe_get ba i)
  | Ints ba -> Value.Int (Bigarray.Array1.unsafe_get ba i)
  | Lanes l -> l.load (i * l.n_int) (i * l.n_float)

let push r v =
  store r (r.head mod r.cap) v;
  r.head <- r.head + 1

(* The element at the cursor and [advance] by one in a single call: the
   element read is one cross-module call per element, not two. *)
let take r c =
  let v = load r (c.pos mod r.cap) in
  advance r c 1;
  v

(* ------------------------------------------------------------------ *)
(* Segment copies                                                      *)
(* ------------------------------------------------------------------ *)

(* A chunk of [len] elements at sequence number [pos] is at most two
   contiguous segments: up to the wrap point, then the remainder from
   slot 0.  [seam_in] stores a chunk at [head] with [seg x y
   payload_off ring_idx len] per segment, [seam_out] loads one at [pos]
   with [seg x y ring_idx payload_off len]: the argument orders of the C
   stubs below, so a stub is passed as it is, and every [seg] is a
   top-level function of its payload — a transfer builds no closure.

   Native-array <-> bigarray segments go through [@@noalloc] C stubs
   (memcpy for f64 and int, a vectorized convert loop for f32): no GC
   interaction, no boxing, one call per segment.  Indices are in range
   by construction, hence the unsafe accessors. *)
let seam_in r off len seg x y =
  let idx = r.head mod r.cap in
  let first = Int.min len (r.cap - idx) in
  seg x y off idx first;
  if len > first then seg x y (off + first) 0 (len - first)

let seam_out r pos off len seg x y =
  let idx = pos mod r.cap in
  let first = Int.min len (r.cap - idx) in
  seg x y idx off first;
  if len > first then seg x y 0 (off + first) (len - first)

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

(* Values move one slot at a time through [store]/[load]. *)

let values_in r (src : Value.t array) so idx len =
  for i = 0 to len - 1 do
    store r (idx + i) (Array.unsafe_get src (so + i))
  done

let values_out r (dst : Value.t array) idx doff len =
  for i = 0 to len - 1 do
    Array.unsafe_set dst (doff + i) (load r (idx + i))
  done

let push_values r src off len =
  seam_in r off len values_in r src;
  r.head <- r.head + len

let read_values r c dst off len = seam_out r c.pos off len values_out r dst

(* Flat payloads.  The dtype fixed the storage, so once the kind's
   [require] passed a float transfer always meets float storage and an
   int transfer int storage.  F32 storage rounds on store exactly as
   {!Value.round_f32}. *)

let push_floats r src off len =
  (match r.buf with
   | F32 ba -> seam_in r off len floats_to_f32 ba src
   | F64 ba -> seam_in r off len floats_to_f64 ba src
   | Ints _ | Lanes _ -> wrong_dtype r "float");
  r.head <- r.head + len

let read_floats r c dst off len =
  match r.buf with
  | F32 ba -> seam_out r c.pos off len f32_to_floats ba dst
  | F64 ba -> seam_out r c.pos off len f64_to_floats ba dst
  | Ints _ | Lanes _ -> wrong_dtype r "float"

(* The range check is fused into the copy: one pass over the payload
   instead of a check pass plus a copy pass.  A violation raises before
   [head] advances, so no offending element is published (slots beyond
   [head] may hold partial writes, which the ring treats as free
   space). *)
let ints_in r src so idx len =
  match r.buf, Value.int_range r.dtype with
  | Ints ba, None -> ints_to_iba ba src so idx len
  | Ints ba, Some (lo, hi) ->
    let bad = ints_to_iba_checked ba src so idx len lo hi in
    if bad >= 0 then int_out_of_range r src.(bad)
  | (F32 _ | F64 _ | Lanes _), _ -> wrong_dtype r "int"

let push_ints r src off len =
  seam_in r off len ints_in r src;
  r.head <- r.head + len

let read_ints r c dst off len =
  match r.buf with
  | Ints ba -> seam_out r c.pos off len iba_to_ints ba dst
  | F32 _ | F64 _ | Lanes _ -> wrong_dtype r "int"

(* Lane payloads: [off] and [len] count elements.  A write checks each
   int lane against its dtype in the copy.  When every lane is an int
   lane of one range (a Vector of ints, farrow's cascade) a segment is
   one range-checked copy stub call; otherwise the lanes move element by
   element.  Reads move each element's lanes in an OCaml loop: an
   element read is the common case, where a C call and the segment
   split cost more than the copy.  Float lanes are stored as given. *)

let lanes_in r src so idx len =
  match r.buf with
  | Lanes l ->
    let ni = l.n_int and nf = l.n_float in
    (match l.range with
     | Some (lo, hi) ->
       let bad = ints_to_iba_checked l.l_ints src.ints (so * ni) (idx * ni) (len * ni) lo hi in
       if bad >= 0 then int_out_of_range r src.ints.(bad)
     | None ->
       for e = 0 to len - 1 do
         let s = so + e and d = idx + e in
         for k = 0 to ni - 1 do
           let v = Array.unsafe_get src.ints ((s * ni) + k) in
           if v < Array.unsafe_get l.lo k || v > Array.unsafe_get l.hi k then int_out_of_range r v;
           Bigarray.Array1.unsafe_set l.l_ints ((d * ni) + k) v
         done;
         for k = 0 to nf - 1 do
           Bigarray.Array1.unsafe_set l.l_floats ((d * nf) + k)
             (Array.unsafe_get src.floats ((s * nf) + k))
         done
       done)
  | F32 _ | F64 _ | Ints _ -> wrong_dtype r "lane"

let push_lanes r src off len =
  seam_in r off len lanes_in r src;
  r.head <- r.head + len

let read_lanes r c dst off len =
  match r.buf with
  | Lanes l ->
    let ni = l.n_int and nf = l.n_float in
    let slot = ref (c.pos mod r.cap) in
    for e = off to off + len - 1 do
      for k = 0 to ni - 1 do
        Array.unsafe_set dst.ints ((e * ni) + k)
          (Bigarray.Array1.unsafe_get l.l_ints ((!slot * ni) + k))
      done;
      for k = 0 to nf - 1 do
        Array.unsafe_set dst.floats ((e * nf) + k)
          (Bigarray.Array1.unsafe_get l.l_floats ((!slot * nf) + k))
      done;
      slot := if !slot + 1 = r.cap then 0 else !slot + 1
    done
  | F32 _ | F64 _ | Ints _ -> wrong_dtype r "lane"

(* ------------------------------------------------------------------ *)
(* Payload kinds                                                       *)
(* ------------------------------------------------------------------ *)

(* A kind is a record of one payload's functions rather than a case
   the queues match on: a queue passes [copy_in]/[copy_out] to its
   chunk loop unapplied, so a transfer builds no closure and costs one
   field load more than a direct copy. *)
type 'b kind = {
  require : t -> 'b -> int -> int -> unit;
  check : t -> 'b -> int -> int -> unit;
  copy_in : t -> 'b -> int -> int -> unit;
  copy_out : t -> cursor -> 'b -> int -> int -> unit;
}

let values =
  {
    require = (fun r vs off n -> require_range r "value" off n (Array.length vs));
    check =
      (fun r vs off n ->
        for i = off to off + n - 1 do
          let v = Array.unsafe_get vs i in
          if not (r.check v) then reject r v
        done);
    copy_in = push_values;
    copy_out = read_values;
  }

let floats =
  {
    require =
      (fun r fs off n ->
        match r.buf with
        | F32 _ | F64 _ -> require_range r "float" off n (Array.length fs)
        | Ints _ | Lanes _ -> wrong_dtype r "float");
    check = (fun _ _ _ _ -> ());
    copy_in = push_floats;
    copy_out = read_floats;
  }

let ints =
  {
    require =
      (fun r is off n ->
        match r.buf with
        | Ints _ -> require_range r "int" off n (Array.length is)
        | F32 _ | F64 _ | Lanes _ -> wrong_dtype r "int");
    check =
      (fun r is off n ->
        match Value.int_range r.dtype with
        | None -> ()
        | Some (lo, hi) ->
          for i = off to off + n - 1 do
            let v = Array.unsafe_get is i in
            if v < lo || v > hi then int_out_of_range r v
          done);
    copy_in = push_ints;
    copy_out = read_ints;
  }

(* Lane buffers hold as many elements as their scarcer kind of lane
   allows.  The one-element reads of a per-sample kernel (farrow's stage
   2) pass here, so the test multiplies rather than divides; bounding
   [off] and [n] by the lane count first keeps the products from
   overflowing.  Only the message divides. *)
let lane_elements l (b : lanes) =
  let fit lanes len = if lanes = 0 then max_int else len / lanes in
  Int.min (fit l.n_int (Array.length b.ints)) (fit l.n_float (Array.length b.floats))

let lanes =
  {
    require =
      (fun r b off n ->
        match r.buf with
        | Lanes l ->
          let li = Array.length b.ints and lf = Array.length b.floats in
          if
            off < 0 || n < 0
            || off > li + lf
            || n > li + lf
            || (off + n) * l.n_int > li
            || (off + n) * l.n_float > lf
          then out_of_range r "lane" off n (lane_elements l b)
        | F32 _ | F64 _ | Ints _ -> wrong_dtype r "lane");
    check =
      (fun r b off n ->
        match r.buf with
        | Lanes l ->
          let ni = l.n_int in
          for e = off to off + n - 1 do
            for k = 0 to ni - 1 do
              let v = Array.unsafe_get b.ints ((e * ni) + k) in
              if v < Array.unsafe_get l.lo k || v > Array.unsafe_get l.hi k then int_out_of_range r v
            done
          done
        | F32 _ | F64 _ | Ints _ -> ());
    copy_in = push_lanes;
    copy_out = read_lanes;
  }
