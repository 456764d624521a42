(** Free-form connection attributes.

    Key/value pairs with string keys and string or integer values
    (Section 3.4).  They never affect simulation behaviour; they carry
    auxiliary information for the graph extractor (PLIO port names, PLIO
    widths, buffering hints) that cannot be inferred automatically. *)

type value =
  | S of string
  | I of int

type t = {
  key : string;
  value : value;
}

val s : string -> string -> t
val i : string -> int -> t

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** Lookups over attribute lists; later entries override earlier ones,
    matching how repeated [attach_attributes] calls behave. *)

val find : string -> t list -> value option
val find_string : string -> t list -> string option
val find_int : string -> t list -> int option

(** [merge old new_] appends [new_] with override semantics and no
    duplicate keys in the result. *)
val merge : t list -> t list -> t list

(** Well-known keys used by the AIE code generator. *)

val key_plio_name : string
val key_plio_width : string
