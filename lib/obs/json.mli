(** Dependency-free minimal JSON: a writer for the Chrome trace-event
    exporter and a strict parser so tests can validate exported traces
    by parsing them back. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : t -> string

(** [to_buffer buf v] appends the text {!to_string} returns to [buf]: a
    writer that encodes many documents reuses one buffer. *)
val to_buffer : Buffer.t -> t -> unit

(** Arrays and objects nested deeper than this (512) are a parse error. *)
val max_depth : int

(** Strict parse of a complete document (trailing garbage and nesting
    deeper than {!max_depth} are errors).  Non-ASCII [\u] escapes
    decode as ['?'] — trace content is ASCII. *)
val of_string : string -> (t, string) result

val member : string -> t -> t option

val to_list : t -> t list option

val to_float : t -> float option

val to_str : t -> string option
