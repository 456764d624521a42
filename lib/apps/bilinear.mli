(** Bilinear interpolation (the paper's [Bilinear_Interpolation] example).

    The kernel consumes a stream of interpolation requests — a 2x2 pixel
    quad (u8) plus Q15 x/y fractions packed in an 8-byte struct, showing
    off cgsim's struct-typed streams — and produces Q8 u16 interpolated
    values.  Requests are processed 16 at a time with int16/int32 vector
    blends.  Block size: 2048 bytes = 256 requests (Table 1). *)

val group : int
(** Vector group width (16 requests). *)

val quads_per_block : int
(** 256 *)

val block_bytes : int
(** 2048 *)

val quad_dtype : Cgsim.Dtype.t
(** The packed request struct: {pix : v4uint8; xf : u16; yf : u16}. *)

val quad_value : Workloads.Images.quad -> Cgsim.Value.t

(** The vector registers one group's blend works in, and the recorder
    its intrinsics charge. *)
type scratch

(** [scratch tr]: [tr] is the kernel's {!Aie.Trace.recorder}, [None]
    outside an aiesim capture. *)
val scratch : Aie.Trace.recorder option -> scratch

(** [blend_group s ~dst req] blends one group of 16 requests, the first
    16 elements of the {!quad_dtype} lane buffer [req] (per request: the
    four pixels, xf, yf), into the 16 u16 lanes of [dst], reading the
    request lanes straight into the vector registers of [s]; it
    allocates nothing.  The kernel keeps one [s], [req] and [dst] for
    its whole life (exposed for tests). *)
val blend_group : scratch -> dst:int array -> Cgsim.Port.lanes -> unit

val kernel : Cgsim.Kernel.t

val graph : unit -> Cgsim.Serialized.t

(** [sources ~reps] — [reps] blocks of 256 sub-pixel lookups into a
    deterministic synthetic image. *)
val sources : reps:int -> Cgsim.Io.source list

val input_quads : reps:int -> Workloads.Images.quad array
