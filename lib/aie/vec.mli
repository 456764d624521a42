(** Pure (untraced) vector value helpers.

    AIE vector registers are modelled as plain OCaml arrays: [float array]
    for fp32 lanes and [int array] for integer lanes.  These helpers are
    the functional semantics only; {!Intrinsics} wraps them with cost
    emission.  Every op writes its result into a caller-owned [~dst] and
    returns [unit], the way an AIE kernel computes into a fixed vector
    register file ({!Cfg}): a kernel allocates its lanes once and reuses
    them on every firing.  All operations are length-checked: [dst] must
    have the lanes of the operands (of the index vector, for shuffles),
    and a lane mismatch or an out-of-range shuffle index raises
    [Invalid_argument] with an ["aie: "] message.

    Kernel bodies spend most of a cgsim run in these ops, so each one is
    a monomorphic loop that allocates nothing: no closure call, no result
    array and no boxed float per lane.  Lane-wise ops may take [dst]
    equal to one of their operands; the shuffles raise [Invalid_argument]
    when [dst] is their source.  fp32 results are rounded to single
    precision; [fmax]/[fmin] return the second operand when either lane
    is NaN. *)

val check_lanes : string -> 'a array -> 'b array -> unit
(** Raises [Invalid_argument] when lane counts differ. *)

(** {1 fp32 lanes} *)

(** [fsplat ~dst s] sets every lane of [dst] to [s] rounded to f32. *)
val fsplat : dst:float array -> float -> unit

val fadd : dst:float array -> float array -> float array -> unit
val fsub : dst:float array -> float array -> float array -> unit
val fmul : dst:float array -> float array -> float array -> unit

(** [fmac ~dst acc a b] is [acc + a*b] per lane, rounded to f32. *)
val fmac : dst:float array -> float array -> float array -> float array -> unit

(** [fmac_scalar ~dst acc src k b] is bit for bit [fmac ~dst acc s b]
    with [s] the splat of [src.(k)]: the scalar is rounded to f32 and
    stays the first multiplicand, so NaN payloads propagate alike.  The
    scalar is a lane of a caller array, not a [float] argument, so the
    call boxes nothing.  Raises [Invalid_argument] when [k] is not a lane
    of [src]. *)
val fmac_scalar : dst:float array -> float array -> float array -> int -> float array -> unit

val fmax : dst:float array -> float array -> float array -> unit
val fmin : dst:float array -> float array -> float array -> unit

(** [fshuffle ~dst v idx] selects lanes: [dst.(i) = v.(idx.(i))]. *)
val fshuffle : dst:float array -> float array -> int array -> unit

(** [fselect ~dst mask a b] takes a.(i) when mask.(i), else b.(i). *)
val fselect : dst:float array -> bool array -> float array -> float array -> unit

(** [fsum ~dst v] reduces [v] in [dst] (same lanes; [dst] may be [v]) by
    a halving tree, the shape {!Intrinsics.fpsum} charges: each level
    adds the upper half of the live lanes onto the lower half (an odd
    middle lane carries over), rounding every add to f32.  The sum is
    left in [dst.(0)]; the other lanes hold partial sums.  One lane is
    copied as is; with no lanes nothing is written (the sum is 0). *)
val fsum : dst:float array -> float array -> unit

(** {1 integer lanes} *)

val isplat : dst:int array -> int -> unit
val iadd : dst:int array -> int array -> int array -> unit
val isub : dst:int array -> int array -> int array -> unit
val imul : dst:int array -> int array -> int array -> unit

(** [imac ~dst acc a b] widening multiply-accumulate (no overflow inside
    the accumulator, mirroring the 48-bit AIE accumulators). *)
val imac : dst:int array -> int array -> int array -> int array -> unit

(** [imac_scalar ~dst acc a s] is [imac ~dst acc a] with [s] splat. *)
val imac_scalar : dst:int array -> int array -> int array -> int -> unit

val ishuffle : dst:int array -> int array -> int array -> unit

(** [srs ~dst dtype shift acc] shift-round-saturate each accumulator
    lane down by [shift] bits with round-to-nearest, saturating to
    [dtype]. *)
val srs : dst:int array -> Cgsim.Dtype.t -> int -> int array -> unit

(** [ups ~dst shift v] upshift lanes into accumulator domain. *)
val ups : dst:int array -> int -> int array -> unit
