(** Broadcast fan-out and settings hazards.

    Performance smells that run correctly but slowly (or that will run
    slowly the day the graph is scaled up):

    - [CG-W301]: a net broadcast to more than 4 consumers.  Broadcast
      retirement advances at the pace of the slowest consumer, so every
      producer on the net waits for it.
    - [CG-W303]: a net whose AXI beat width neither divides nor is a
      multiple of its element size, so every beat straddles element
      boundaries (partial-beat packing). *)

val analyze : Serialized.t -> Diagnostic.t list
