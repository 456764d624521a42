module S = Serialized
module D = Diagnostic

let suppress_key = "lint.suppress"

let suppressed_codes (g : S.t) net_id =
  if net_id < 0 || net_id >= Array.length g.S.nets then []
  else
    match Attr.find_string suppress_key g.S.nets.(net_id).S.attrs with
    | None -> []
    | Some spec ->
      String.split_on_char ',' spec |> List.map String.trim |> List.filter (( <> ) "")

let is_suppressed (g : S.t) (d : D.t) =
  d.D.net_ids <> []
  && List.for_all
       (fun id ->
         let codes = suppressed_codes g id in
         List.mem "all" codes || List.mem d.D.code codes)
       d.D.net_ids

let passes (g : S.t) =
  let findings =
    List.concat
      [
        Rates.analyze g;
        Deadlock.analyze g;
        Capacity.analyze g;
        Throughput.analyze g;
        Hazards.analyze g;
        Pool_safety.analyze g;
      ]
  in
  D.sort (List.filter (fun d -> not (is_suppressed g d)) findings)

let run (g : S.t) =
  match S.validate_diags g with
  | [] -> passes g
  | structural -> D.sort structural
