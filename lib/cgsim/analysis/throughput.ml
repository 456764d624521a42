module S = Serialized
module D = Diagnostic

(* Static throughput bound.

   Weight every kernel by the work it contributes to one steady-state
   iteration of the graph: its balance-equation repetition count times a
   per-firing cost.  With no cost model the cost is 1 (unit cost: the
   kernel that fires most often is the structural bottleneck); with a
   measured cost model — ns per request attributed to each kernel, e.g.
   from {!Obs.Profile} rows — the weights are absolute and the bound
   becomes a predicted request ceiling.

   Two readings of the weights:

   - sequential (one domain): every firing shares the domain, so the
     iteration takes the *sum* of the weights — the ceiling warm serving
     on a single domain can approach but not beat;
   - pipelined (a domain per kernel): steady state is limited by the
     slowest stage, i.e. the *max* weight — except that kernels on a
     cycle cannot overlap with each other, so each cyclic SCC
     contributes the sum of its members as one stage (the
     maximum-cycle-ratio reading of the netgraph). *)

type bound = {
  b_weights : (string * float) list;
  b_bottleneck : string;
  b_share : float;
  b_total : float;
  b_critical : float;
  b_measured : bool;
}

let bound ?cost (g : S.t) =
  let nk = Array.length g.S.kernels in
  if nk = 0 then None
  else begin
    let sol = Rates.solve g in
    let rep k =
      match List.assoc_opt k sol.Rates.repetitions with
      | Some r -> float_of_int r
      | None -> 1.0
    in
    let weight k =
      match cost with
      | Some f -> Option.value (f g.S.kernels.(k).S.inst_name) ~default:0.0
      | None -> rep k
    in
    let weights = List.init nk (fun k -> g.S.kernels.(k).S.inst_name, weight k) in
    let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 weights in
    if total <= 0.0 then None
    else begin
      let b_bottleneck, bw =
        List.fold_left
          (fun (bn, bw) (n, w) -> if w > bw then n, w else bn, bw)
          (List.hd weights) (List.tl weights)
      in
      (* Pipelined critical stage: max single weight, or a whole cycle
         where one exists — cycle members cannot overlap each other. *)
      let ng = Netgraph.make g in
      let warr = Array.of_list (List.map snd weights) in
      let critical =
        List.fold_left
          (fun acc kernels ->
            max acc (List.fold_left (fun s k -> s +. warr.(k)) 0.0 kernels))
          bw (Netgraph.cyclic_sccs ng)
      in
      Some
        {
          b_weights = weights;
          b_bottleneck;
          b_share = bw /. total;
          b_total = total;
          b_critical = critical;
          b_measured = cost <> None;
        }
    end
  end

(* Predicted request ceilings, defined only for measured (ns) weights. *)
let sequential_per_sec b = if b.b_measured then Some (1e9 /. b.b_total) else None

let pipelined_per_sec b = if b.b_measured then Some (1e9 /. b.b_critical) else None

let analyze (g : S.t) =
  let sol = Rates.solve g in
  if not sol.Rates.balanced || sol.Rates.repetitions = [] then []
  else
    match bound g with
    | None -> []
    | Some b ->
      [
        D.make ~severity:D.Info ~code:"CG-I105" ~graph:g.S.gname
          ~kernels:[ b.b_bottleneck ]
          (Printf.sprintf
             "static bottleneck: %s carries %.0f%% of the steady-state work at unit cost \
              (%.0f of %.0f firings per iteration) — profile with Obs.Profile for a \
              time-weighted bound"
             b.b_bottleneck (100.0 *. b.b_share)
             (List.assoc b.b_bottleneck b.b_weights)
             b.b_total);
      ]
