type thunk_costs = {
  scalar_ops_per_stream_access : int;
  cycles_per_window : int;
  loop_extra_per_access : float;
}

let default_thunk =
  { scalar_ops_per_stream_access = 1; cycles_per_window = 12; loop_extra_per_access = 0.1 }

type adapter =
  | Direct
  | Thunk of thunk_costs

let adapter_to_string = function
  | Direct -> "direct"
  | Thunk _ -> "thunk"

type t = {
  graph : Cgsim.Serialized.t;
  array : Aie.Array_model.t;
  adapter : adapter;
  label : string;
}

exception Deploy_error of string

let make ?cols ?rows ?place ~label ~adapter (g : Cgsim.Serialized.t) =
  let array = Aie.Array_model.create ?cols ?rows () in
  Array.iter
    (fun (ki : Cgsim.Serialized.kernel_inst) ->
      match ki.kernel.Cgsim.Kernel.realm with
      | Cgsim.Kernel.Aie -> begin
        match place with
        | Some f -> begin
          match f ki.inst_name with
          | Some coord -> ignore (Aie.Array_model.place_at array ~name:ki.inst_name coord)
          | None -> ignore (Aie.Array_model.place array ~name:ki.inst_name)
        end
        | None -> ignore (Aie.Array_model.place array ~name:ki.inst_name)
      end
      | Cgsim.Kernel.Noextract | Cgsim.Kernel.Pl ->
        raise
          (Deploy_error
             (Printf.sprintf
                "graph %s: kernel %s has realm %s; only pure-AIE graphs can be deployed to the \
                 array (partition the graph first)"
                g.gname ki.inst_name
                (Cgsim.Kernel.realm_to_string ki.kernel.Cgsim.Kernel.realm))))
    g.kernels;
  { graph = g; array; adapter; label }

let baseline g = make ~label:"amd-baseline" ~adapter:Direct g

let extracted g = make ~label:"cgsim-extracted" ~adapter:(Thunk default_thunk) g

let coord_of t name =
  match Aie.Array_model.placement t.array ~name with
  | Some c -> c
  | None -> raise (Deploy_error (Printf.sprintf "kernel %s is not placed" name))

let net_hops t (n : Cgsim.Serialized.net) =
  let coord_of_ep (ep : Cgsim.Serialized.endpoint) =
    coord_of t t.graph.kernels.(ep.kernel_idx).inst_name
  in
  let shim = Aie.Array_model.shim_for t.array ~col:0 in
  let srcs =
    if n.global_input <> None then [ shim ] else List.map coord_of_ep n.writers
  in
  let dsts =
    (if n.global_output <> None then [ shim ] else [])
    @ List.map coord_of_ep n.readers
  in
  (* Worst-case endpoint pair bounds the route depth of the broadcast. *)
  List.fold_left
    (fun acc s ->
      List.fold_left (fun acc d -> max acc (Aie.Array_model.hops s d)) acc dsts)
    0 srcs
