(* Shared option vocabulary for the bench subcommands.

   Every subcommand used to hand-roll its own option loop, and the
   spellings drifted (--json here, no --schema there, a private --smoke
   each).  This module owns one parser for the whole flag surface; a
   subcommand declares which names it accepts and gets back a filled
   [opts] plus the unconsumed tokens.  An option that exists globally
   but is not accepted by the subcommand is a clear error naming the
   subcommand, not an "unknown bench". *)

type opts = {
  json : string option;  (* --json FILE: machine-readable results *)
  metrics : string option;  (* --metrics FILE: Prometheus exposition *)
  trace : string option;  (* --trace FILE: Chrome trace / CSV timeline *)
  folded : string option;  (* --folded FILE: flamegraph folded stacks *)
  schema : string option;  (* --schema NAME: expected "schema" field *)
  smoke : bool;  (* --smoke: reduced quotas for CI *)
  chaos : bool;  (* --chaos: seeded fault injection *)
  warm : bool option;  (* --warm on|off *)
  domains : int list option;  (* --domains CSV *)
  requests : int option;  (* --requests N *)
  count : int option;  (* --count N *)
  rates : float list option;  (* --rates CSV *)
  remote : string option;  (* --remote ADDR: drive a cgx serve daemon *)
}

let none =
  {
    json = None;
    metrics = None;
    trace = None;
    folded = None;
    schema = None;
    smoke = false;
    chaos = false;
    warm = None;
    domains = None;
    requests = None;
    count = None;
    rates = None;
    remote = None;
  }

let all_options =
  [
    "--json"; "--metrics"; "--trace"; "--folded"; "--schema"; "--smoke"; "--chaos"; "--warm";
    "--domains"; "--requests"; "--count"; "--rates"; "--remote";
  ]

let fail fmt = Printf.ksprintf (fun m -> Error m) fmt

let parse_on_off name v =
  match v with
  | "on" -> Ok true
  | "off" -> Ok false
  | _ -> fail "%s needs \"on\" or \"off\"" name

let parse_pos_int name v =
  match int_of_string_opt v with
  | Some n when n > 0 -> Ok n
  | _ -> fail "%s needs a positive integer" name

let parse_int_csv name v =
  let parts = String.split_on_char ',' v |> List.map int_of_string_opt in
  let ds = List.filter_map Fun.id parts in
  if List.length ds = List.length parts && ds <> [] && List.for_all (fun d -> d > 0) ds then Ok ds
  else fail "%s needs a CSV of positive ints (e.g. 1,2,4)" name

let parse_float_csv name v =
  let parts = String.split_on_char ',' v |> List.map float_of_string_opt in
  let rs = List.filter_map Fun.id parts in
  if List.length rs = List.length parts && rs <> [] && List.for_all (fun r -> r > 0.) rs then Ok rs
  else fail "%s needs a CSV of positive numbers (e.g. 50,200,800)" name

(* [parse ~cmd ~accept tokens] consumes leading options and returns the
   options record plus everything after the first non-option token (the
   next subcommand).  [Error] carries a user-facing message. *)
let parse ~cmd ~accept tokens =
  let value name rest k =
    match rest with
    | v :: rest -> ( match k v with Ok acc -> Ok (acc, rest) | Error _ as e -> e)
    | [] -> fail "%s needs an argument" name
  in
  let rec go acc = function
    | tok :: rest when List.mem tok accept -> (
      let with_value k =
        match value tok rest (k acc) with
        | Ok (acc, rest) -> go acc rest
        | Error m -> Error m
      in
      match tok with
      | "--json" -> with_value (fun acc v -> Ok { acc with json = Some v })
      | "--metrics" -> with_value (fun acc v -> Ok { acc with metrics = Some v })
      | "--trace" -> with_value (fun acc v -> Ok { acc with trace = Some v })
      | "--folded" -> with_value (fun acc v -> Ok { acc with folded = Some v })
      | "--schema" -> with_value (fun acc v -> Ok { acc with schema = Some v })
      | "--remote" -> with_value (fun acc v -> Ok { acc with remote = Some v })
      | "--smoke" -> go { acc with smoke = true } rest
      | "--chaos" -> go { acc with chaos = true } rest
      | "--warm" ->
        with_value (fun acc v ->
            Result.map (fun b -> { acc with warm = Some b }) (parse_on_off tok v))
      | "--domains" ->
        with_value (fun acc v ->
            Result.map (fun ds -> { acc with domains = Some ds }) (parse_int_csv tok v))
      | "--requests" ->
        with_value (fun acc v ->
            Result.map (fun n -> { acc with requests = Some n }) (parse_pos_int tok v))
      | "--count" ->
        with_value (fun acc v ->
            Result.map (fun n -> { acc with count = Some n }) (parse_pos_int tok v))
      | "--rates" ->
        with_value (fun acc v ->
            Result.map (fun rs -> { acc with rates = Some rs }) (parse_float_csv tok v))
      | _ -> fail "unhandled option %s" tok)
    | tok :: _ when List.mem tok all_options ->
      fail "option %s is not supported by %s" tok cmd
    | rest -> Ok (acc, rest)
  in
  go none tokens
