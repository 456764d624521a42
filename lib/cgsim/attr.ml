type value =
  | S of string
  | I of int

type t = {
  key : string;
  value : value;
}

let s key v = { key; value = S v }

let i key v = { key; value = I v }

let value_equal a b =
  match a, b with
  | S x, S y -> String.equal x y
  | I x, I y -> x = y
  | (S _ | I _), _ -> false

let equal a b = String.equal a.key b.key && value_equal a.value b.value

let pp ppf t =
  match t.value with
  | S v -> Format.fprintf ppf "%s=%S" t.key v
  | I v -> Format.fprintf ppf "%s=%d" t.key v

let find key attrs =
  List.fold_left (fun acc a -> if String.equal a.key key then Some a.value else acc) None attrs

let find_string key attrs =
  match find key attrs with
  | Some (S v) -> Some v
  | Some (I _) | None -> None

let find_int key attrs =
  match find key attrs with
  | Some (I v) -> Some v
  | Some (S _) | None -> None

let merge old_attrs new_attrs =
  let combined = old_attrs @ new_attrs in
  (* Keep the last occurrence of each key, preserving first-seen order. *)
  let last_of key = find key combined in
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun a ->
      if Hashtbl.mem seen a.key then None
      else begin
        Hashtbl.add seen a.key ();
        match last_of a.key with
        | Some value -> Some { a with value }
        | None -> None
      end)
    combined

let key_plio_name = "plio_name"
let key_plio_width = "plio_width"
