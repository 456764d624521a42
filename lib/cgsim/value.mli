(** Dynamically-typed stream element values.

    The simulator core is monomorphic over {!t}: every queue carries tagged
    values that are checked against the net's {!Dtype.t} when written.
    The dynamic core is what makes the flattened serialized graph form
    ({!Serialized}) self-contained, mirroring the paper's
    compile-time-to-runtime data transfer. *)

type t =
  | Float of float  (** F32/F64 payloads. *)
  | Int of int  (** All integer dtypes; range-checked against the dtype. *)
  | Vec of t array
  | Rec of (string * t) list

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

val to_string : t -> string

(** [conforms dtype v] is [true] when [v] is a valid element of [dtype]
    (correct shape and integer ranges; floats are accepted for both F32 and
    F64, with F32 values expected to already be single-precision rounded). *)
val conforms : Dtype.t -> t -> bool

(** [check ~net dtype v] raises [Invalid_argument] with a descriptive
    message naming [net] when [v] does not conform to [dtype]. *)
val check : net:string -> Dtype.t -> t -> unit

(** [compile_check dtype] specializes {!conforms} for one dtype: the dtype
    tree is interpreted once and the returned closure performs only the
    per-value tests.  [compile_check d v = conforms d v] for every [v];
    queues compile a validator at creation so hot-path writes avoid
    re-walking the dtype. *)
val compile_check : Dtype.t -> t -> bool

(** Canonical zero element of a dtype (0 / 0.0 / zero-filled aggregates). *)
val zero : Dtype.t -> t

(** Accessors raising [Invalid_argument] on shape mismatch. *)

val to_float : t -> float
val to_int : t -> int
val to_vec : t -> t array
val field : t -> string -> t

(** Representable range of a bounded integer dtype; [None] for [I64]
    (treated as unbounded native int), floats and aggregates. *)
val int_range : Dtype.t -> (int * int) option

(** Saturating / wrapping integer helpers used by fixed-point kernels. *)

val clamp_int : Dtype.t -> int -> int
(** Saturate an int to the representable range of an integer dtype. *)

val wrap_int : Dtype.t -> int -> int
(** Wrap (two's complement) an int into the range of an integer dtype. *)

(** Round a float to single precision (F32 storage semantics).
    Exposed as an unboxed external so per-element rounding on unboxed
    stores stays allocation-free across module boundaries. *)
external round_f32 : float -> float = "cgsim_round_f32_byte" "cgsim_round_f32"
  [@@unboxed] [@@noalloc]
