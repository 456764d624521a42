type source = {
  src_name : string;
  make_pull : unit -> unit -> Value.t option;
  make_pull_block : unit -> int -> Value.t array;
      (* Returns at most [n] elements; [||] means exhausted.  Independent
         iterator from [make_pull]: a run uses one or the other. *)
  make_pull_floats : unit -> int -> float array;
      (* Unboxed block pull (float payloads), same contract as
         [make_pull_block]; the runtime selects it on float nets so
         source data never boxes.  Independent iterator. *)
  make_pull_ints : unit -> int -> int array;
}

type sink = {
  snk_name : string;
  push_block : Value.t array -> unit;
  push_floats : float array -> unit;
  push_ints : int array -> unit;
}

(* Derive a block pull from a scalar pull (element loop, same stream). *)
let block_of_pull make_pull () =
  let pull = make_pull () in
  fun n ->
    let acc = ref [] in
    let taken = ref 0 in
    let continue = ref true in
    while !continue && !taken < n do
      match pull () with
      | Some v ->
        acc := v :: !acc;
        incr taken
      | None -> continue := false
    done;
    let out = Array.make !taken (Value.Int 0) in
    List.iteri (fun i v -> out.(!taken - 1 - i) <- v) !acc;
    out

(* Derive the unboxed pulls from the block pull: one block underneath,
   unbox at the boundary (sources with flat native storage override). *)
let floats_of_block make_pull_block () =
  let pull_block = make_pull_block () in
  fun n -> Array.map Value.to_float (pull_block n)

let ints_of_block make_pull_block () =
  let pull_block = make_pull_block () in
  fun n -> Array.map Value.to_int (pull_block n)

let of_list values =
  let make_pull () =
    let rest = ref values in
    fun () ->
      match !rest with
      | [] -> None
      | v :: tl ->
        rest := tl;
        Some v
  in
  let make_pull_block = block_of_pull make_pull in
  {
    src_name = "list-source";
    make_pull;
    make_pull_block;
    make_pull_floats = floats_of_block make_pull_block;
    make_pull_ints = ints_of_block make_pull_block;
  }

let of_array values =
  let make_pull_block () =
    let i = ref 0 in
    fun n ->
      let len = min n (Array.length values - !i) in
      if len <= 0 then [||]
      else begin
        let slice = Array.sub values !i len in
        i := !i + len;
        slice
      end
  in
  {
    src_name = "array-source";
    make_pull =
      (fun () ->
        let i = ref 0 in
        fun () ->
          if !i >= Array.length values then None
          else begin
            let v = values.(!i) in
            incr i;
            Some v
          end);
    (* Array-backed sources hand out [Array.sub] slices directly: the
       whole chunk is one copy, feeding [Bqueue.put_block]'s blit path. *)
    make_pull_block;
    make_pull_floats = floats_of_block make_pull_block;
    make_pull_ints = ints_of_block make_pull_block;
  }

(* Flat slice pulls over native float/int backing arrays: the chunk is
   one [Array.sub], no boxing anywhere on the unboxed path. *)
let flat_float_pull values () =
  let i = ref 0 in
  fun n ->
    let len = min n (Array.length values - !i) in
    if len <= 0 then [||]
    else begin
      let slice = Array.sub values !i len in
      i := !i + len;
      slice
    end

let flat_int_pull (values : int array) () =
  let i = ref 0 in
  fun n ->
    let len = min n (Array.length values - !i) in
    if len <= 0 then [||]
    else begin
      let slice = Array.sub values !i len in
      i := !i + len;
      slice
    end

let of_f32_array values =
  (* Round once, up front: the flat and the boxed pulls then deliver
     identical single-precision data.  The boxed [Value.t] view is
     derived lazily: cgsim's source pump on a float net only ever calls
     [make_pull_floats], and tagging a large input would dominate the
     run it feeds (x86sim and aiesim pull boxed blocks).  A monomorphic
     loop rounds in place of [Array.map], which would box every rounded
     element on its way through the closure. *)
  let rounded = Array.create_float (Array.length values) in
  for i = 0 to Array.length values - 1 do
    Array.unsafe_set rounded i (Value.round_f32 (Array.unsafe_get values i))
  done;
  let tagged = lazy (Array.map (fun f -> Value.Float f) rounded) in
  let boxed = lazy (of_array (Lazy.force tagged)) in
  {
    src_name = "f32-source";
    make_pull = (fun () -> (Lazy.force boxed).make_pull ());
    make_pull_block = (fun () -> (Lazy.force boxed).make_pull_block ());
    make_pull_floats = flat_float_pull rounded;
    make_pull_ints = ints_of_block (fun () -> (Lazy.force boxed).make_pull_block ());
  }

let of_int_array dtype values =
  let wrapped = Array.map (Value.wrap_int dtype) values in
  let tagged = lazy (Array.map (fun i -> Value.Int i) wrapped) in
  let boxed = lazy (of_array (Lazy.force tagged)) in
  {
    src_name = "int-source";
    make_pull = (fun () -> (Lazy.force boxed).make_pull ());
    make_pull_block = (fun () -> (Lazy.force boxed).make_pull_block ());
    make_pull_floats = floats_of_block (fun () -> (Lazy.force boxed).make_pull_block ());
    make_pull_ints = flat_int_pull wrapped;
  }

let repeat n values =
  if n < 0 then invalid_arg "cgsim: Io.repeat with negative count";
  let len = List.length values in
  let arr = Array.of_list values in
  let total = n * len in
  let make_pull_block () =
    let produced = ref 0 in
    fun want ->
      let take = min want (total - !produced) in
      if take <= 0 then [||]
      else begin
        let out = Array.init take (fun k -> arr.((!produced + k) mod len)) in
        produced := !produced + take;
        out
      end
  in
  {
    src_name = Printf.sprintf "repeat%d-source" n;
    make_pull =
      (fun () ->
        let produced = ref 0 in
        fun () ->
          if !produced >= total then None
          else begin
            let v = arr.(!produced mod len) in
            incr produced;
            Some v
          end);
    make_pull_block;
    make_pull_floats = floats_of_block make_pull_block;
    make_pull_ints = ints_of_block make_pull_block;
  }

let of_fun f =
  let make_pull_block = block_of_pull (fun () -> f) in
  {
    src_name = "fun-source";
    make_pull = (fun () -> f);
    make_pull_block;
    make_pull_floats = floats_of_block make_pull_block;
    make_pull_ints = ints_of_block make_pull_block;
  }

let rtp v =
  let make_pull () =
    let sent = ref false in
    fun () ->
      if !sent then None
      else begin
        sent := true;
        Some v
      end
  in
  let make_pull_block = block_of_pull make_pull in
  {
    src_name = "rtp-source";
    make_pull;
    make_pull_block;
    make_pull_floats = floats_of_block make_pull_block;
    make_pull_ints = ints_of_block make_pull_block;
  }

let source_name s = s.src_name

let with_source_name name s = { s with src_name = name }

let sink_of_push name push =
  {
    snk_name = name;
    push_block = Array.iter push;
    push_floats = (fun fs -> Array.iter (fun f -> push (Value.Float f)) fs);
    push_ints = (fun is -> Array.iter (fun i -> push (Value.Int i)) is);
  }

let buffer () =
  let acc = ref [] in
  ( {
      snk_name = "buffer-sink";
      push_block = (fun vs -> Array.iter (fun v -> acc := v :: !acc) vs);
      push_floats = (fun fs -> Array.iter (fun f -> acc := Value.Float f :: !acc) fs);
      push_ints = (fun is -> Array.iter (fun i -> acc := Value.Int i :: !acc) is);
    },
    fun () -> List.rev !acc )

(* Growable flat accumulator shared by the typed buffer sinks: boxed and
   unboxed pushes land in the same native array, so the post-run view is
   one [Array.sub] whichever path the run used. *)
let flat_buffer ~(zero : 'a) ~(of_value : Value.t -> 'a) =
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
  let push_many xs =
    let n = Array.length xs in
    reserve n;
    Array.blit xs 0 !buf !len n;
    len := !len + n
  in
  let push_values vs =
    let n = Array.length vs in
    reserve n;
    for i = 0 to n - 1 do
      !buf.(!len + i) <- of_value vs.(i)
    done;
    len := !len + n
  in
  push_one, push_many, push_values, fun () -> Array.sub !buf 0 !len

let f32_buffer () =
  let push_one, push_floats, push_values, contents =
    flat_buffer ~zero:0. ~of_value:Value.to_float
  in
  ( {
      snk_name = "f32-buffer-sink";
      push_block = push_values;
      push_floats;
      push_ints = (fun is -> Array.iter (fun i -> push_one (float_of_int i)) is);
    },
    contents )

let int_buffer () =
  let push_one, push_ints, push_values, contents = flat_buffer ~zero:0 ~of_value:Value.to_int in
  ( {
      snk_name = "int-buffer-sink";
      push_block = push_values;
      push_floats = (fun fs -> Array.iter (fun f -> push_one (int_of_float f)) fs);
      push_ints;
    },
    contents )

let counter () =
  let n = ref 0 in
  ( {
      snk_name = "counter-sink";
      push_block = (fun vs -> n := !n + Array.length vs);
      push_floats = (fun fs -> n := !n + Array.length fs);
      push_ints = (fun is -> n := !n + Array.length is);
    },
    fun () -> !n )

let rtp_sink () =
  let cell = ref None in
  ( sink_of_push "rtp-sink" (fun v -> cell := Some v),
    fun () -> !cell )

let null () =
  { snk_name = "null-sink"; push_block = ignore; push_floats = ignore; push_ints = ignore }

let of_consumer push = sink_of_push "consumer-sink" push

let sink_name s = s.snk_name

let with_sink_name name s = { s with snk_name = name }

let source_pull s = s.make_pull ()

let source_pull_block s = s.make_pull_block ()

let source_pull_floats s = s.make_pull_floats ()

let source_pull_ints s = s.make_pull_ints ()

let sink_push_block s vs = s.push_block vs

let sink_push_floats s fs = s.push_floats fs

let sink_push_ints s is = s.push_ints is
