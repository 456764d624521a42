(** Pure (untraced) vector value helpers.

    AIE vector registers are modelled as plain OCaml arrays: [float array]
    for fp32 lanes and [int array] for integer lanes.  These helpers are
    the functional semantics only; {!Intrinsics} wraps them with cost
    emission.  All operations are lane-wise and length-checked: a lane
    mismatch or an out-of-range shuffle index raises [Invalid_argument]
    with an ["aie: "] message.

    Kernel bodies spend most of a cgsim run in these ops, so each one is
    a monomorphic loop that allocates only its result array: no closure
    call and no boxed float per lane.  fp32 results are rounded to single
    precision; [fmax]/[fmin] return the second operand when either lane
    is NaN. *)

val check_lanes : string -> 'a array -> 'b array -> unit
(** Raises [Invalid_argument] when lane counts differ. *)

(** {1 fp32 lanes} *)

val fsplat : int -> float -> float array
val fadd : float array -> float array -> float array
val fsub : float array -> float array -> float array
val fmul : float array -> float array -> float array

(** [fmac acc a b] is [acc + a*b] per lane, rounded to f32. *)
val fmac : float array -> float array -> float array -> float array

(** [fmac_scalar acc s b] is bit for bit [fmac acc (fsplat n s) b]: [s]
    is rounded to f32 and stays the first multiplicand, so NaN payloads
    propagate alike. *)
val fmac_scalar : float array -> float -> float array -> float array

val fmax : float array -> float array -> float array
val fmin : float array -> float array -> float array

(** [fshuffle v idx] selects lanes: result.(i) = v.(idx.(i)). *)
val fshuffle : float array -> int array -> float array

(** [fselect mask a b] takes a.(i) when mask.(i), else b.(i). *)
val fselect : bool array -> float array -> float array -> float array

(** [fsum v] reduces by a halving tree, the shape {!Intrinsics.fpsum}
    charges: each level adds the upper half of the live lanes onto the
    lower half (an odd middle lane carries over), rounding every add to
    f32.  [fsum [||] = 0.0]; one lane is returned as is. *)
val fsum : float array -> float

(** {1 integer lanes} *)

val isplat : int -> int -> int array
val iadd : int array -> int array -> int array
val isub : int array -> int array -> int array
val imul : int array -> int array -> int array

(** [imac acc a b] widening multiply-accumulate (no overflow inside the
    accumulator, mirroring the 48-bit AIE accumulators). *)
val imac : int array -> int array -> int array -> int array

(** [imac_scalar acc a s] is [imac acc a (isplat n s)]. *)
val imac_scalar : int array -> int array -> int -> int array

val ishuffle : int array -> int array -> int array

(** [srs dtype shift acc] shift-round-saturate each accumulator lane down
    by [shift] bits with round-to-nearest, saturating to [dtype]. *)
val srs : Cgsim.Dtype.t -> int -> int array -> int array

(** [ups shift v] upshift lanes into accumulator domain. *)
val ups : int -> int array -> int array
