(** Compile-time evaluation of graph definitions.

    The analogue of Clang's constexpr interpreter in the extraction flow
    (Section 4.2): graph definitions are lambdas whose execution builds
    the compute graph, and instead of pattern-matching construction
    syntax, the extractor simply evaluates them.  Evaluation targets the
    same {!Cgsim.Builder} as the OCaml-embedded API, so a CGC graph and a
    builder graph of the same shape produce topologically equal
    serialized forms — the round-trip the tests check.

    Supported inside graph lambdas (and constexpr global initializers):
    integer/float/bool/string arithmetic and comparisons, constexpr
    global and [#define] constants, local variables, [if]/[for]/[while]
    over compile-time values, [IoConnector<T>] declarations, kernel
    invocation statements, [attach_attributes(conn, {{k, v}, ...})], and
    [return std::make_tuple(conns...)] (or a single connector). *)

exception Eval_error of Srcloc.range * string

type value =
  | V_int of int
  | V_float of float
  | V_bool of bool
  | V_str of string
  | V_conn of Cgsim.Builder.conn
  | V_tuple of value list
  | V_unit

(** Evaluate a constexpr global by name (ints/floats/bools/strings). *)
val eval_constant : Sema.env -> string -> value

(** Evaluate a graph definition to its flattened serialized form.

    Kernels referenced by the lambda are resolved against [twins], once
    per definition and call: if a twin has the CGC kernel's name, its
    signature must match the CGC declaration (dtype, direction, settings
    per port) and its executable body is used; otherwise a
    non-executable placeholder kernel stands in, so the graph can still
    be frozen, partitioned and code-generated.  Nothing outlives the
    call: two calls with different [twins] resolve independently. *)
val eval_graph : twins:Cgsim.Kernel.t list -> Sema.env -> Ast.graph -> Cgsim.Serialized.t
