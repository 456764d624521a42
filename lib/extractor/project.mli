(** Extraction orchestration: CGC source to deployable AIE project.

    Ties the pipeline of Figure 5 together: ingest (parse + sema +
    consteval), realm partitioning, kernel transformation, co-extraction
    and code generation, producing an in-memory project that can be
    written to disk and a deployment descriptor that runs on the
    cycle-approximate simulator with the extracted-adapter cost model. *)

exception Extract_error of string

type file = {
  rel_path : string;
  contents : string;
}

type t = {
  graph_name : string;
  source_file : string;
  serialized : Cgsim.Serialized.t;  (** full graph, pre-partitioning *)
  aie_subgraph : Cgsim.Serialized.t option;  (** the AIE realm's partition *)
  pl_subgraph : Cgsim.Serialized.t option;  (** the PL/HLS realm's partition *)
  host_kernels : string list;  (** noextract kernels left in the host app *)
  files : file list;
  port_classes : Partition.port_class array;
  lint : Cgsim.Diagnostic.t list;
      (** Static-analysis findings on the full graph.  Never contains an
          error-level finding — extraction refuses those graphs — and is
          embedded in the generated project [README.md]. *)
}

(** Graphs eligible for extraction in an analyzed program: those marked
    [[extract_compute_graph]]; with [all_graphs] every graph. *)
val extractable_graphs : ?all_graphs:bool -> Cgc.Sema.env -> Cgc.Ast.graph list

(** Extract one graph.  The graph is linted first ({!Cgsim.Lint.run});
    error-level findings abort extraction with {!Extract_error} listing
    them, and surviving warnings are carried in [lint] and embedded in
    the generated [README.md].  Raises {!Extract_error} (or the
    underlying located front-end errors) on failure. *)
val extract : Cgc.Sema.env -> Cgc.Ast.graph -> t

(** Extract every eligible graph of a file (convenience). *)
val extract_file :
  ?include_dirs:string list -> ?all_graphs:bool -> string -> t list

val extract_string : ?all_graphs:bool -> ?file:string -> string -> t list

(** Write the project under [dir/<graph_name>/]. *)
val write : dir:string -> t -> string list
(** Returns the paths written. *)

(** Deployment of the extracted AIE partition on aiesim, with the
    generated adapter thunks' cost model ({!Aiesim.Deploy.Thunk}).
    Raises {!Extract_error} if the graph has no AIE partition. *)
val deploy : t -> Aiesim.Deploy.t

val pp_summary : Format.formatter -> t -> unit
