type realm =
  | Aie
  | Noextract
  | Pl

let realm_to_string = function
  | Aie -> "aie"
  | Noextract -> "noextract"
  | Pl -> "pl"

let realm_of_string = function
  | "aie" -> Some Aie
  | "noextract" -> Some Noextract
  | "pl" | "hls" -> Some Pl
  | _ -> None

let equal_realm a b =
  match a, b with
  | Aie, Aie | Noextract, Noextract | Pl, Pl -> true
  | (Aie | Noextract | Pl), _ -> false

type dir =
  | In
  | Out

type port_spec = {
  pname : string;
  dir : dir;
  dtype : Dtype.t;
  settings : Settings.t;
}

type context = ..

type context += No_context

type binding = {
  readers : Port.reader array;
  writers : Port.writer array;
  context : context;
}

type body = binding -> unit

type purity =
  | Pure
  | Stateful
  | Unknown

let purity_to_string = function
  | Pure -> "pure"
  | Stateful -> "stateful"
  | Unknown -> "unknown"

type t = {
  name : string;
  realm : realm;
  ports : port_spec array;
  body : body;
  rates : int array option;
  purity : purity;
}

let define ?rates ?pure ~realm ~name ports body =
  if name = "" then invalid_arg "cgsim: kernel name must be non-empty";
  if ports = [] then invalid_arg ("cgsim: kernel " ^ name ^ " must declare at least one port");
  let seen = Hashtbl.create 8 in
  List.iter
    (fun p ->
      if p.pname = "" then invalid_arg ("cgsim: kernel " ^ name ^ " has an unnamed port");
      if Hashtbl.mem seen p.pname then
        invalid_arg (Printf.sprintf "cgsim: kernel %s declares port %s twice" name p.pname);
      Hashtbl.add seen p.pname ())
    ports;
  let ports_arr = Array.of_list ports in
  let rates =
    match rates with
    | None -> None
    | Some declared ->
      List.iter
        (fun (pname, r) ->
          if not (Hashtbl.mem seen pname) then
            invalid_arg
              (Printf.sprintf "cgsim: kernel %s declares a rate for unknown port %s" name pname);
          if r < 0 then
            invalid_arg
              (Printf.sprintf "cgsim: kernel %s declares a negative rate for port %s" name pname))
        declared;
      Some
        (Array.map
           (fun spec ->
             match List.assoc_opt spec.pname declared with
             | Some r -> r
             | None ->
               invalid_arg
                 (Printf.sprintf "cgsim: kernel %s declares rates but omits port %s" name
                    spec.pname))
           ports_arr)
  in
  let purity = match pure with None -> Unknown | Some true -> Pure | Some false -> Stateful in
  { name; realm; ports = ports_arr; body; rates; purity }

let rate k idx =
  match k.rates with
  | None -> None
  | Some rs -> if idx >= 0 && idx < Array.length rs then Some rs.(idx) else None

let in_port ?(settings = Settings.default) pname dtype = { pname; dir = In; dtype; settings }

let out_port ?(settings = Settings.default) pname dtype = { pname; dir = Out; dtype; settings }

let rd b i = b.readers.(i)

let wr b i = b.writers.(i)

let pp ppf k =
  let pp_port ppf p =
    Format.fprintf ppf "%s %s:%a"
      (match p.dir with In -> "in" | Out -> "out")
      p.pname Dtype.pp p.dtype
  in
  Format.fprintf ppf "@[<h>kernel %s [%s] (%a)@]" k.name (realm_to_string k.realm)
    (Format.pp_print_seq ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ") pp_port)
    (Array.to_seq k.ports)
