(* Differential fuzz harness: seeded random SDF graphs, static linter
   verdicts held against actual runtime behavior.

   Delegates generation to {!Workloads.Sdf_gen} and the per-case oracle
   to {!Workloads.Sdf_oracle}; this wrapper sweeps the deterministic
   case mix, reports per-category agreement, optionally writes machine-readable
   JSON (schema "cgsim-bench-fuzz/1"), and exits nonzero on any
   disagreement — the CI gate ci.sh runs in its fuzz-smoke step. *)

module G = Workloads.Sdf_gen

let label_of case =
  match case.G.c_defect with
  | None -> "clean"
  | Some d -> G.defect_to_string d

let run ?json ?count ~smoke () =
  let count =
    match count with
    | Some c -> c
    | None -> if smoke then 48 else 600
  in
  Printf.printf "fuzz: lint-vs-runtime differential oracle over %d generated SDF graphs\n%!"
    count;
  let t0 = Unix.gettimeofday () in
  let categories = Hashtbl.create 4 in
  let bump label bad =
    let cases, disagreeing =
      Option.value (Hashtbl.find_opt categories label) ~default:(0, 0)
    in
    Hashtbl.replace categories label (cases + 1, disagreeing + (if bad then 1 else 0))
  in
  let problems = ref [] in
  for i = 0 to count - 1 do
    let case = G.nth_case i in
    let bad = Workloads.Sdf_oracle.check case in
    bump (label_of case) (bad <> []);
    problems := List.rev_append bad !problems;
    if (i + 1) mod 60 = 0 || i + 1 = count then
      Printf.printf "  %d/%d checked, %d disagreement(s)\n%!" (i + 1) count
        (List.length !problems)
  done;
  let problems = List.rev !problems in
  let elapsed = Unix.gettimeofday () -. t0 in
  let labels = [ "clean"; "imbalance"; "under-capacity"; "starved-cycle" ] in
  List.iter
    (fun label ->
      let cases, disagreeing =
        Option.value (Hashtbl.find_opt categories label) ~default:(0, 0)
      in
      Printf.printf "  %-14s %4d cases, %d disagreement(s)\n" label cases disagreeing)
    labels;
  Printf.printf "  total %d graphs in %.1fs: %s\n%!" count elapsed
    (if problems = [] then "linter and runtime agree everywhere"
     else Printf.sprintf "%d DISAGREEMENT(S)" (List.length problems));
  List.iter (fun p -> Printf.printf "  DISAGREEMENT %s\n%!" p) problems;
  (match json with
   | None -> ()
   | Some file ->
     let doc =
       Obs.Json.Obj
         [
           "schema", Obs.Json.Str "cgsim-bench-fuzz/1";
           "count", Obs.Json.Num (float_of_int count);
           "elapsed_s", Obs.Json.Num elapsed;
           ( "categories",
             Obs.Json.Arr
               (List.map
                  (fun label ->
                    let cases, disagreeing =
                      Option.value (Hashtbl.find_opt categories label) ~default:(0, 0)
                    in
                    Obs.Json.Obj
                      [
                        "label", Obs.Json.Str label;
                        "cases", Obs.Json.Num (float_of_int cases);
                        "disagreeing", Obs.Json.Num (float_of_int disagreeing);
                      ])
                  labels) );
           "disagreements", Obs.Json.Arr (List.map (fun p -> Obs.Json.Str p) problems);
         ]
     in
     Out_channel.with_open_bin file (fun oc ->
         Out_channel.output_string oc (Obs.Json.to_string doc));
     Printf.printf "  wrote %s\n%!" file);
  if problems <> [] then exit 1
