module D = Diagnostic

let count sev diags = List.length (List.filter (fun d -> d.D.severity = sev) diags)

let summary diags =
  if diags = [] then "no findings"
  else
    Printf.sprintf "%d error%s, %d warning%s, %d info%s"
      (count D.Error diags)
      (if count D.Error diags = 1 then "" else "s")
      (count D.Warning diags)
      (if count D.Warning diags = 1 then "" else "s")
      (count D.Info diags)
      (if count D.Info diags = 1 then "" else "s")

let to_text diags =
  match diags with
  | [] -> summary []
  | _ ->
    String.concat "\n" (List.map D.render (D.sort diags) @ [ summary diags ])

let to_json ?(suggested_capacities = []) ?predicted_bottleneck ~graph diags =
  let open Obs.Json in
  Obj
    [
      "schema", Str "cgsim-lint/2";
      "graph", Str graph;
      ( "counts",
        Obj
          [
            "error", Num (float_of_int (count D.Error diags));
            "warning", Num (float_of_int (count D.Warning diags));
            "info", Num (float_of_int (count D.Info diags));
          ] );
      ( "suggested_capacities",
        Arr
          (List.map
             (fun (net_id, depth) ->
               Obj [ "net", Num (float_of_int net_id); "depth", Num (float_of_int depth) ])
             suggested_capacities) );
      ( "predicted_bottleneck",
        match predicted_bottleneck with Some k -> Str k | None -> Null );
      "findings", Arr (List.map D.to_json (D.sort diags));
    ]
