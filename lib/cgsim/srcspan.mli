(** Neutral source spans carried by serialized graphs.

    When a graph is produced by the CGC const-evaluator, every kernel
    instantiation and connector declaration keeps a pointer back to the
    source construct that created it.  The span lives in cgsim (not the
    CGC front-end) because the serialized form — the flat artifact every
    downstream consumer reads — must be expressible without a dependency
    on the front-end; builder-made graphs simply leave it unset.  The
    static analyzer ({!Lint} and its passes) attaches these spans to its
    diagnostics so lint findings point at CGC source. *)

type t = {
  file : string;
  line : int;  (** 1-based *)
  col : int;  (** 1-based *)
  end_line : int;
  end_col : int;
}

val make : file:string -> line:int -> col:int -> ?end_line:int -> ?end_col:int -> unit -> t

val equal : t -> t -> bool

(** "file:line:col" (the start position — the form editors jump to). *)
val to_string : t -> string

val pp : Format.formatter -> t -> unit

(** The whole span as the textual graph dump ({!Graph_text}) prints it:
    "file:line:col:end_line:end_col". *)
val to_compact : t -> string
