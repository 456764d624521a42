(* Request inputs, built on the main domain before any timing starts.

   Each request gets fresh [Io] sources over immutable arrays drained
   here once.  Building sources inside pool domains would race on
   [Apps.Bilinear]'s module-level lazy image (see README, Known issues);
   here that lazy is forced once, on this domain.

   Every request of one (app, reps) kind carries the same data, so its
   output must equal one golden output: the in-process
   [Runtime.execute] result, itself checked with [Apps.Harness.check]. *)

type t = {
  app : Apps.Harness.t;
  reps : int;
  sources : unit -> Cgsim.Io.source list;
  golden : Cgsim.Value.t array;  (* primary output *)
  bytes : int;  (* input payload: reps x block_bytes *)
}

let sources_of (h : Apps.Harness.t) ~reps : unit -> Cgsim.Io.source list =
  match h.Apps.Harness.name with
  | "bitonic" ->
    let data = Apps.Bitonic.input_floats ~reps in
    fun () -> [ Cgsim.Io.of_f32_array data ]
  | "iir" ->
    let data = Apps.Iir.input_samples ~reps in
    fun () -> [ Cgsim.Io.of_f32_array data ]
  | "farrow" ->
    let data = Apps.Farrow.input_samples ~reps in
    let d = Cgsim.Value.Int Apps.Farrow.default_d_q15 in
    fun () -> [ Cgsim.Io.rtp d; Cgsim.Io.of_int_array Cgsim.Dtype.I16 data ]
  | "bilinear" ->
    let data = Array.map Apps.Bilinear.quad_value (Apps.Bilinear.input_quads ~reps) in
    fun () -> [ Cgsim.Io.of_array data ]
  | name -> invalid_arg ("benchmark: no inputs for " ^ name)

exception Bad_golden of string

let make (h : Apps.Harness.t) ~reps =
  let sources = sources_of h ~reps in
  let sinks, contents = h.Apps.Harness.make_sinks () in
  (match Cgsim.Runtime.execute (h.Apps.Harness.graph ()) ~sources:(sources ()) ~sinks with
   | Cgsim.Runtime.Completed _ -> ()
   | o -> raise (Bad_golden (Format.asprintf "%s: %a" h.Apps.Harness.name Cgsim.Runtime.pp_outcome o)));
  let out = contents () in
  (match h.Apps.Harness.check ~reps out with
   | Ok () -> ()
   | Error e -> raise (Bad_golden e));
  { app = h; reps; sources; golden = Array.of_list out; bytes = reps * h.Apps.Harness.block_bytes }

(* Bit-for-bit equality ([nan] and signed zeros included). *)
let rec same_value (a : Cgsim.Value.t) (b : Cgsim.Value.t) =
  match a, b with
  | Float x, Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Int x, Int y -> x = y
  | Vec xs, Vec ys -> Array.length xs = Array.length ys && Array.for_all2 same_value xs ys
  | Rec xs, Rec ys ->
    List.length xs = List.length ys
    && List.for_all2 (fun (k, x) (l, y) -> String.equal k l && same_value x y) xs ys
  | _ -> false

let matches_golden t (out : Cgsim.Value.t list) =
  let rec go i = function
    | [] -> i = Array.length t.golden
    | v :: rest -> i < Array.length t.golden && same_value t.golden.(i) v && go (i + 1) rest
  in
  go 0 out

(* The element lists a remote request carries, one per graph input. *)
let wire_inputs t =
  List.map
    (fun src ->
      let pull = Cgsim.Io.source_pull src in
      let rec go acc = match pull () with Some v -> go (v :: acc) | None -> List.rev acc in
      go [])
    (t.sources ())

let by_name name =
  match Apps.Harness.find name with
  | Some h -> h
  | None -> invalid_arg ("benchmark: unknown app " ^ name)
