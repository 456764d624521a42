(** AIE array floorplan: tiles, placement and stream routing.

    Models the structural side of the array — the 2D grid of compute
    tiles above a shim row of PL/NoC interface tiles — enough to derive
    stream-switch hop counts for routed connections.  Placement follows
    the aiecompiler default of packing kernels column-major near their
    shim I/O. *)

type coord = {
  col : int;
  row : int;  (** row 0 = shim (interface) row; compute rows start at 1. *)
}

val equal_coord : coord -> coord -> bool

type t

(** [create ~cols ~rows ()] — compute grid of [cols] x [rows] above the
    shim row.  Defaults come from {!Cfg}. *)
val create : ?cols:int -> ?rows:int -> unit -> t

val cols : t -> int
val rows : t -> int

exception Placement_error of string

(** [place t ~name] assigns the next free compute tile (column-major from
    column 0, row 1 upward).  Raises {!Placement_error} when the array is
    full or the name is already placed. *)
val place : t -> name:string -> coord

(** [place_at t ~name coord] pins a kernel to a tile. *)
val place_at : t -> name:string -> coord -> coord

val placement : t -> name:string -> coord option

(** Shim tile serving a given column (used for PLIO entry/exit). *)
val shim_for : t -> col:int -> coord

(** Manhattan hop count between two tiles; neighbouring tiles share
    memory and count as 0 hops (AIE neighbour communication bypasses the
    stream switch). *)
val hops : coord -> coord -> int

(** Stream latency in cycles for a route of [hops] switches. *)
val route_latency_cycles : int -> int

val placements : t -> (string * coord) list
