exception Construction_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Construction_error s)) fmt

type net_state = {
  id : int;
  dtype : Dtype.t;
  src : Srcspan.t option;
  mutable attrs : Attr.t list;
  mutable writers : Serialized.endpoint list;  (* reverse order *)
  mutable readers : Serialized.endpoint list;  (* reverse order *)
  mutable global_input : string option;
  mutable global_output : string option;
}

type conn = {
  owner_id : int;
  net : net_state;
}

type inst_state = {
  inst_name : string;
  kernel : Kernel.t;
  port_nets : int array;
  inst_src : Srcspan.t option;
}

type t = {
  builder_id : int;
  gname : string;
  mutable nets : net_state list;  (* reverse order *)
  mutable insts : inst_state list;  (* reverse order *)
  mutable next_net : int;
  mutable input_order : int list;  (* reverse order *)
  mutable output_order : int list;  (* reverse order *)
  mutable frozen : bool;
  inst_names : (string, unit) Hashtbl.t;
  kernel_counts : (string, int) Hashtbl.t;
}

let next_builder_id = ref 0

let create ~name =
  incr next_builder_id;
  {
    builder_id = !next_builder_id;
    gname = name;
    nets = [];
    insts = [];
    next_net = 0;
    input_order = [];
    output_order = [];
    frozen = false;
    inst_names = Hashtbl.create 8;
    kernel_counts = Hashtbl.create 8;
  }

let check_open t = if t.frozen then fail "graph %s: construction after freeze" t.gname

let fresh_net ?src t dtype =
  check_open t;
  let n =
    {
      id = t.next_net;
      dtype;
      src;
      attrs = [];
      writers = [];
      readers = [];
      global_input = None;
      global_output = None;
    }
  in
  t.next_net <- t.next_net + 1;
  t.nets <- n :: t.nets;
  { owner_id = t.builder_id; net = n }

let check_owner t c =
  if c.owner_id <> t.builder_id then
    fail "graph %s: connector belongs to a different graph builder" t.gname

let net ?src t dtype = fresh_net ?src t dtype

let input t ?src ?(attrs = []) ~name dtype =
  let c = fresh_net ?src t dtype in
  c.net.global_input <- Some name;
  c.net.attrs <- Attr.merge c.net.attrs attrs;
  t.input_order <- c.net.id :: t.input_order;
  c

let output t ?(attrs = []) ~name c =
  check_open t;
  check_owner t c;
  (match c.net.global_output with
   | Some existing -> fail "graph %s: connector already declared as output %s" t.gname existing
   | None -> ());
  c.net.global_output <- Some name;
  c.net.attrs <- Attr.merge c.net.attrs attrs;
  t.output_order <- c.net.id :: t.output_order

let attach_attributes t c attrs =
  check_open t;
  check_owner t c;
  c.net.attrs <- Attr.merge c.net.attrs attrs

let add_kernel t ?inst ?src (kernel : Kernel.t) conns =
  check_open t;
  let n_ports = Array.length kernel.Kernel.ports in
  if List.length conns <> n_ports then
    fail "graph %s: kernel %s expects %d connectors, got %d" t.gname kernel.Kernel.name n_ports
      (List.length conns);
  List.iter (check_owner t) conns;
  let inst_name =
    match inst with
    | Some n -> n
    | None ->
      let count = Option.value (Hashtbl.find_opt t.kernel_counts kernel.Kernel.name) ~default:0 in
      Hashtbl.replace t.kernel_counts kernel.Kernel.name (count + 1);
      Printf.sprintf "%s_%d" kernel.Kernel.name count
  in
  if Hashtbl.mem t.inst_names inst_name then
    fail "graph %s: duplicate kernel instance name %s" t.gname inst_name;
  Hashtbl.add t.inst_names inst_name ();
  let kernel_idx = List.length t.insts in
  let port_nets = Array.make n_ports (-1) in
  List.iteri
    (fun port_idx c ->
      port_nets.(port_idx) <- c.net.id;
      let ep = { Serialized.kernel_idx; port_idx } in
      match kernel.Kernel.ports.(port_idx).Kernel.dir with
      | Kernel.In -> c.net.readers <- ep :: c.net.readers
      | Kernel.Out -> c.net.writers <- ep :: c.net.writers)
    conns;
  t.insts <- { inst_name; kernel; port_nets; inst_src = src } :: t.insts;
  kernel_idx

(* Merge the settings of all endpoints touching a net, mirroring cgsim's
   unification of parameterized port settings (Section 3.4). *)
let merged_settings t insts (n : net_state) =
  let endpoint_settings ep =
    let inst = insts.(ep.Serialized.kernel_idx) in
    inst.kernel.Kernel.ports.(ep.Serialized.port_idx).Kernel.settings
  in
  let all = List.map endpoint_settings (n.writers @ n.readers) in
  List.fold_left
    (fun acc s ->
      match Settings.merge acc s with
      | Ok merged -> merged
      | Error reason -> fail "graph %s: net %d: %s" t.gname n.id reason)
    Settings.default all

let freeze t =
  check_open t;
  t.frozen <- true;
  let insts = Array.of_list (List.rev t.insts) in
  let nets_list = List.rev t.nets in
  let kernels =
    Array.map
      (fun st ->
        {
          Serialized.inst_name = st.inst_name;
          kernel = st.kernel;
          port_nets = st.port_nets;
          src = st.inst_src;
        })
      insts
  in
  let nets =
    Array.of_list
      (List.map
         (fun n ->
           {
             Serialized.net_id = n.id;
             dtype = n.dtype;
             settings = merged_settings t insts n;
             attrs = n.attrs;
             writers = List.rev n.writers;
             readers = List.rev n.readers;
             global_input = n.global_input;
             global_output = n.global_output;
             src = n.src;
           })
         nets_list)
  in
  let serialized =
    {
      Serialized.gname = t.gname;
      kernels;
      nets;
      input_order = Array.of_list (List.rev t.input_order);
      output_order = Array.of_list (List.rev t.output_order);
    }
  in
  match Serialized.validate_diags serialized with
  | [] -> serialized
  | diags ->
    fail "graph %s: invalid serialized form:@\n%s" t.gname
      (String.concat "\n" (List.map Diagnostic.render diags))

let make ~name ~inputs f =
  let b = create ~name in
  let in_conns = List.map (fun (n, dt) -> input b ~name:n dt) inputs in
  let outs = f b in_conns in
  List.iteri (fun i c -> output b ~name:(Printf.sprintf "out%d" i) c) outs;
  freeze b
