(* How one workload is run: sizes, seed, time budget, and whether the
   benchmark's own spans are being recorded. *)

type t = {
  size : Frozen.size;
  seed : int;
  seconds : float;  (* measuring budget for the rounds *)
  fixed_rounds : int option;  (* traced/untraced pair: same work on both sides *)
  traced : bool;
  probes : Util.Samples.t;  (* host probe times, ms, taken between rounds *)
}

let create ~size ~seed ~seconds ~fixed_rounds ~traced =
  { size; seed; seconds; fixed_rounds; traced; probes = Util.Samples.create () }

(* Repeat equal rounds of work until the next one would overrun the
   budget; always at least one.  A faster program runs more rounds of
   the same size, so per-round values stay comparable.  The host probe
   runs before the first round, after the last, and between rounds at
   least every half second, while the workload's own threads are idle. *)
let rounds ctx f =
  let last_probe = ref 0.0 in
  let probe () =
    Util.Samples.add ctx.probes (Util.host_probe_ms ());
    last_probe := Util.now_ns ()
  in
  let round i =
    if Util.now_ns () -. !last_probe >= 0.5e9 then probe ();
    f i
  in
  (match ctx.fixed_rounds with
   | Some n -> for i = 0 to n - 1 do round i done
   | None ->
     let start = Util.now_ns () in
     let budget = ctx.seconds *. 1e9 in
     let rec go i =
       round i;
       let elapsed = Util.now_ns () -. start in
       let per_round = elapsed /. float_of_int (i + 1) in
       if elapsed +. per_round <= budget then go (i + 1)
     in
     go 0);
  probe ()

(* How much slower than the reference speed the host ran during the
   rounds: the median probe over [Frozen.host_probe_ms]; 1 when the
   workload failed before its first round. *)
let host_slowdown ctx =
  match Util.Samples.to_array ctx.probes with
  | [||] -> 1.0
  | probes -> Util.median probes /. Frozen.host_probe_ms
