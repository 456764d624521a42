(** CGC semantic analysis.

    Builds the symbol environment over one or more translation units
    (main file plus local includes), resolves port and element types to
    {!Cgsim.Dtype.t}, validates kernel signatures, and computes the
    symbol reference graph used for co-extraction (Section 4.6).

    Type information recovered here plays the role of the template
    arguments Clang's semantic analysis hands the paper's extractor. *)

type entry =
  | E_struct of Ast.param list
  | E_func of { quals : string list; ret : Ast.typ; params : Ast.param list }
  | E_global of { quals : string list; typ : Ast.typ; init : Ast.expr option }
  | E_define of string  (** raw body text *)
  | E_kernel of Ast.kernel
  | E_graph of Ast.graph

type env

exception Sema_error of Srcloc.range * string

val analyze : Ast.tu list -> env
(** Raises {!Sema_error} on duplicate definitions, unknown realms,
    non-port kernel parameters, or unresolvable port element types. *)

val tus : env -> Ast.tu list

(** Lookup; names are global (CGC has a single namespace). *)
val find : env -> string -> entry option

(** The translation unit that defines a symbol. *)
val defining_tu : env -> string -> Ast.tu option

(** Source-order list of all defined symbol names. *)
val order : env -> string list

val kernels : env -> Ast.kernel list

val graphs : env -> Ast.graph list

(** Include directives of the whole program, in source order. *)
val includes : env -> (string * bool * Ast.tu) list

(** {1 Types} *)

(** Element dtype of a C++ type (scalars, vector spellings, user structs;
    fixed-size arrays of scalars inside structs become vectors). *)
val dtype_of_type : env -> Ast.typ -> Cgsim.Dtype.t

(** Kernel port classification from the parameter's template type. *)
val port_of_param : env -> Ast.param -> Cgsim.Kernel.port_spec

(** All ports of a kernel, in declaration order. *)
val ports_of_kernel : env -> Ast.kernel -> Cgsim.Kernel.port_spec list

(** C++ spelling of a port parameter's element type for generated
    code: a struct is spelled with the name the parameter's template
    argument declares ([quad] for [KernelReadPort<quad>]). *)
val port_elem_spelling : env -> Ast.param -> string

(** Element dtype of an [IoConnector<T>] type. *)
val connector_dtype : env -> Ast.typ -> Cgsim.Dtype.t

(** {1 Dependencies} *)

(** Direct references from a symbol's body/initializer to other defined
    symbols (functions, globals, structs, defines). *)
val direct_deps : env -> string -> string list

(** Transitive closure over {!direct_deps} of the given roots, returned
    in source order and excluding the roots themselves. *)
val transitive_deps : env -> string list -> string list
