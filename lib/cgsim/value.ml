type t =
  | Float of float
  | Int of int
  | Vec of t array
  | Rec of (string * t) list

let rec equal a b =
  match a, b with
  | Float x, Float y -> Float.equal x y
  | Int x, Int y -> x = y
  | Vec x, Vec y ->
    let n = Array.length x in
    n = Array.length y
    && (let rec scan i = i >= n || (equal x.(i) y.(i) && scan (i + 1)) in
        scan 0)
  | Rec x, Rec y ->
    List.length x = List.length y
    && List.for_all2 (fun (nx, vx) (ny, vy) -> String.equal nx ny && equal vx vy) x y
  | (Float _ | Int _ | Vec _ | Rec _), _ -> false

let rec pp ppf = function
  | Float f -> Format.fprintf ppf "%g" f
  | Int i -> Format.fprintf ppf "%d" i
  | Vec a ->
    Format.fprintf ppf "[%a]"
      (Format.pp_print_seq ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ") pp)
      (Array.to_seq a)
  | Rec fields ->
    Format.fprintf ppf "{%a}"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
         (fun ppf (n, v) -> Format.fprintf ppf "%s=%a" n pp v))
      fields

let to_string v = Format.asprintf "%a" pp v

let int_range = function
  | Dtype.I8 -> Some (-128, 127)
  | Dtype.I16 -> Some (-32768, 32767)
  | Dtype.I32 -> Some (-2147483648, 2147483647)
  | Dtype.I64 -> None (* OCaml ints are 63-bit; treat as unbounded *)
  | Dtype.U8 -> Some (0, 255)
  | Dtype.U16 -> Some (0, 65535)
  | Dtype.U32 -> Some (0, 4294967295)
  | Dtype.F32 | Dtype.F64 | Dtype.Vector _ | Dtype.Struct _ -> None

let rec conforms dtype v =
  match dtype, v with
  | (Dtype.F32 | Dtype.F64), Float _ -> true
  | (Dtype.I8 | Dtype.I16 | Dtype.I32 | Dtype.I64 | Dtype.U8 | Dtype.U16 | Dtype.U32), Int i ->
    (match int_range dtype with
     | None -> true
     | Some (lo, hi) -> i >= lo && i <= hi)
  | Dtype.Vector (e, lanes), Vec a ->
    Array.length a = lanes && Array.for_all (conforms e) a
  | Dtype.Struct fields, Rec fvs ->
    List.length fields = List.length fvs
    && List.for_all2
         (fun (fn, ft) (vn, vv) -> String.equal fn vn && conforms ft vv)
         fields fvs
  | _, (Float _ | Int _ | Vec _ | Rec _) -> false

let check ~net dtype v =
  if not (conforms dtype v) then
    invalid_arg
      (Printf.sprintf "cgsim: value %s does not conform to dtype %s on net %s"
         (to_string v) (Dtype.to_string dtype) net)

(* Specialized validators: the dtype tree is interpreted once, here, and
   the returned closure does only the per-value shape/range tests.  Queues
   compile one validator at creation instead of re-walking the dtype on
   every element (the dominant cost of [conforms] on scalar streams). *)
let rec compile_check = function
  | (Dtype.F32 | Dtype.F64) -> ( function Float _ -> true | Int _ | Vec _ | Rec _ -> false)
  | Dtype.I64 -> ( function Int _ -> true | Float _ | Vec _ | Rec _ -> false)
  | (Dtype.I8 | Dtype.I16 | Dtype.I32 | Dtype.U8 | Dtype.U16 | Dtype.U32) as d ->
    (match int_range d with
     | Some (lo, hi) ->
       fun v -> ( match v with Int i -> i >= lo && i <= hi | Float _ | Vec _ | Rec _ -> false)
     | None -> ( function Int _ -> true | Float _ | Vec _ | Rec _ -> false))
  | Dtype.Vector (e, lanes) ->
    let ce = compile_check e in
    (* A loop built once here: [Array.for_all] allocates its own per
       call, and queues check every element they store. *)
    let rec lanes_ok a i = i >= lanes || (ce (Array.unsafe_get a i) && lanes_ok a (i + 1)) in
    fun v ->
      (match v with
       | Vec a -> Array.length a = lanes && lanes_ok a 0
       | Float _ | Int _ | Rec _ -> false)
  | Dtype.Struct fields ->
    let compiled = List.map (fun (fn, ft) -> fn, compile_check ft) fields in
    let nfields = List.length fields in
    fun v ->
      (match v with
       | Rec fvs ->
         List.length fvs = nfields
         && List.for_all2 (fun (fn, cf) (vn, vv) -> String.equal fn vn && cf vv) compiled fvs
       | Float _ | Int _ | Vec _ -> false)

let rec zero = function
  | Dtype.F32 | Dtype.F64 -> Float 0.0
  | Dtype.I8 | Dtype.I16 | Dtype.I32 | Dtype.I64 | Dtype.U8 | Dtype.U16 | Dtype.U32 -> Int 0
  | Dtype.Vector (e, lanes) -> Vec (Array.init lanes (fun _ -> zero e))
  | Dtype.Struct fields -> Rec (List.map (fun (n, t) -> n, zero t) fields)

let to_float = function
  | Float f -> f
  | Int i -> float_of_int i
  | (Vec _ | Rec _) as v -> invalid_arg ("cgsim: expected scalar float, got " ^ to_string v)

let to_int = function
  | Int i -> i
  | (Float _ | Vec _ | Rec _) as v -> invalid_arg ("cgsim: expected integer, got " ^ to_string v)

let to_vec = function
  | Vec a -> a
  | (Float _ | Int _ | Rec _) as v -> invalid_arg ("cgsim: expected vector, got " ^ to_string v)

(* A [String.equal] scan: [List.assoc] compares names polymorphically,
   a C call per field. *)
let rec find_field name = function
  | [] -> invalid_arg ("cgsim: struct has no field " ^ name)
  | (n, v) :: rest -> if String.equal n name then v else find_field name rest

let field v name =
  match v with
  | Rec fields -> find_field name fields
  | Float _ | Int _ | Vec _ -> invalid_arg ("cgsim: expected struct, got " ^ to_string v)

let clamp_int dtype i =
  match int_range dtype with
  | None -> i
  | Some (lo, hi) -> if i < lo then lo else if i > hi then hi else i

let wrap_int dtype i =
  match dtype with
  | Dtype.I8 -> (i + 128) land 255 - 128
  | Dtype.I16 -> (i + 32768) land 65535 - 32768
  | Dtype.I32 -> (i + 2147483648) land 4294967295 - 2147483648
  | Dtype.U8 -> i land 255
  | Dtype.U16 -> i land 65535
  | Dtype.U32 -> i land 4294967295
  | Dtype.I64 | Dtype.F32 | Dtype.F64 | Dtype.Vector _ | Dtype.Struct _ -> i

(* Single-precision rounding via a C cast: the Int32.bits_of_float
   spelling boxes an Int32 per call, which on unboxed f32 stores (one
   round per element) is the difference between a pure register op and
   the dominant allocation of the whole data plane. *)
external round_f32 : float -> float = "cgsim_round_f32_byte" "cgsim_round_f32"
  [@@unboxed] [@@noalloc]
