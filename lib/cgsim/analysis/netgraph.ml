module S = Serialized

type t = {
  g : S.t;
  succ : (int * int) list array;  (* kernel idx -> (reader kernel, net id) *)
  writers : int list array;  (* net id -> writer kernel idxs *)
  readers : int list array;  (* net id -> reader kernel idxs *)
}

let dedup_keep_order xs =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun x ->
      if Hashtbl.mem seen x then false
      else begin
        Hashtbl.add seen x ();
        true
      end)
    xs

let make (g : S.t) =
  let nk = Array.length g.S.kernels in
  let nn = Array.length g.S.nets in
  let succ = Array.make nk [] in
  let writers = Array.make nn [] in
  let readers = Array.make nn [] in
  Array.iter
    (fun (n : S.net) ->
      let ws = dedup_keep_order (List.map (fun (e : S.endpoint) -> e.S.kernel_idx) n.S.writers) in
      let rs = dedup_keep_order (List.map (fun (e : S.endpoint) -> e.S.kernel_idx) n.S.readers) in
      writers.(n.S.net_id) <- ws;
      readers.(n.S.net_id) <- rs;
      List.iter (fun w -> List.iter (fun r -> succ.(w) <- (r, n.S.net_id) :: succ.(w)) rs) ws)
    g.S.nets;
  Array.iteri (fun i es -> succ.(i) <- List.rev es) succ;
  { g; succ; writers; readers }

let graph t = t.g

let succ t k = t.succ.(k)

(* Tarjan.  Graphs here are a handful of kernels; the recursive
   formulation is the readable one and stack depth is not a concern. *)
let cyclic_sccs t =
  let nk = Array.length t.g.S.kernels in
  let index = Array.make nk (-1) in
  let lowlink = Array.make nk 0 in
  let on_stack = Array.make nk false in
  let stack = ref [] in
  let next = ref 0 in
  let out = ref [] in
  let rec strongconnect v =
    index.(v) <- !next;
    lowlink.(v) <- !next;
    incr next;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun (w, _net) ->
        if index.(w) < 0 then begin
          strongconnect w;
          lowlink.(v) <- min lowlink.(v) lowlink.(w)
        end
        else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w))
      t.succ.(v);
    if lowlink.(v) = index.(v) then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          on_stack.(w) <- false;
          if w = v then w :: acc else pop (w :: acc)
      in
      let comp = pop [] in
      let cyclic =
        match comp with
        | [ k ] -> List.exists (fun (r, _) -> r = k) t.succ.(k)
        | _ -> List.length comp > 1
      in
      if cyclic then out := comp :: !out
    end
  in
  for v = 0 to nk - 1 do
    if index.(v) < 0 then strongconnect v
  done;
  List.sort
    (fun a b -> compare (List.nth_opt a 0) (List.nth_opt b 0))
    !out

let internal_nets t kernels =
  let inside = Hashtbl.create 8 in
  List.iter (fun k -> Hashtbl.add inside k ()) kernels;
  let hit ks = List.exists (Hashtbl.mem inside) ks in
  Array.to_list t.g.S.nets
  |> List.filter_map (fun (n : S.net) ->
         if hit t.writers.(n.S.net_id) && hit t.readers.(n.S.net_id) then Some n.S.net_id
         else None)
