(** Kernel-level connectivity view of a serialized graph.

    The static-analysis passes reason about kernels and the nets between
    them, not about individual endpoints, so this module folds the
    endpoint lists of {!Serialized.t} into a directed graph whose
    vertices are kernel instances and whose edges are "kernel [w] writes
    a net that kernel [r] reads", labelled with the net id.  Global
    inputs and outputs contribute no vertices — cycles through the host
    are impossible by construction. *)

type t

val make : Serialized.t -> t

val graph : t -> Serialized.t

(** Successor edges of a kernel: [(reader_kernel_idx, net_id)] pairs,
    one per (net, reader) combination, in declaration order. *)
val succ : t -> int -> (int * int) list

(** Strongly connected components that can actually sustain a cycle:
    components of two or more kernels, plus single kernels with a
    self-loop edge.  Each component lists kernel indices in traversal
    order; the result lists components in ascending order of their first
    kernel. *)
val cyclic_sccs : t -> int list list

(** Nets whose writer set and reader set both intersect the given kernel
    set — the edges a cycle through those kernels runs over. *)
val internal_nets : t -> int list -> int list
