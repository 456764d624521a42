(** Operator-fusion discovery.

    Finds maximal chains of kernels connected by exclusive
    point-to-point nets — each interior net has exactly one writer and
    one reader, is not a global input/output or RTP side channel, is the
    writer's only output and the reader's only input.  Those are the
    hops {!Runtime.compile} collapses into a single fiber with direct
    hand-off edges ({!Fused}) when [Run_config.fuse] is on.

    Chains are proposed only for lint-clean graphs: structural
    validation, the SDF balance solve ({!Rates}) and the {!Deadlock}
    pass must all come back error-free, so rate-mismatched or
    deadlock-prone graphs keep one fiber per kernel and their
    diagnostics stay accurate. *)

(** One fusible chain. *)
type chain = {
  members : int array;  (** Kernel indices, upstream first; at least two. *)
  interior : int array;
      (** Interior net ids: [interior.(i)] joins [members.(i)] to
          [members.(i + 1)]. *)
}

(** The graph's fusible chains, disjoint, in order of their head
    kernel's index. *)
val chains : Serialized.t -> chain list

(** Lint pass: one [CG-I103] info per discovered chain, naming the
    member kernels upstream-first. *)
val analyze : Serialized.t -> Diagnostic.t list
