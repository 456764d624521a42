let proto = "cgx-serve/2"

let max_frame_bytes = 16 * 1024 * 1024

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

type frame_error =
  | Eof
  | Truncated
  | Oversized of int

let frame_error_message = function
  | Eof -> "connection closed"
  | Truncated -> "truncated frame (EOF mid-frame)"
  | Oversized n -> Printf.sprintf "oversized frame (%d bytes > %d limit)" n max_frame_bytes

let put_len b off n =
  Bytes.set b off (Char.chr ((n lsr 24) land 0xff));
  Bytes.set b (off + 1) (Char.chr ((n lsr 16) land 0xff));
  Bytes.set b (off + 2) (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b (off + 3) (Char.chr (n land 0xff))

let get_len b off =
  (Char.code (Bytes.get b off) lsl 24)
  lor (Char.code (Bytes.get b (off + 1)) lsl 16)
  lor (Char.code (Bytes.get b (off + 2)) lsl 8)
  lor Char.code (Bytes.get b (off + 3))

let framed payload =
  let n = String.length payload in
  let b = Bytes.create (4 + n) in
  put_len b 0 n;
  Bytes.blit_string payload 0 b 4 n;
  b

let frame payload = Bytes.unsafe_to_string (framed payload)

let unframe ?(max_bytes = max_frame_bytes) b ~pos =
  let avail = Bytes.length b - pos in
  if avail = 0 then Error Eof
  else if avail < 4 then Error Truncated
  else
    let n = get_len b pos in
    if n > max_bytes then Error (Oversized n)
    else if avail - 4 < n then Error Truncated
    else Ok (Bytes.sub_string b (pos + 4) n, pos + 4 + n)

let rec write_all fd b off len =
  if len > 0 then begin
    let n = Unix.write fd b off len in
    write_all fd b (off + n) (len - n)
  end

let write_frame fd payload =
  let b = framed payload in
  write_all fd b 0 (Bytes.length b)

(* Read exactly [len] bytes; [`Eof n] reports how many arrived first. *)
let really_read fd b off len =
  let rec go off len =
    if len = 0 then `Ok
    else
      match Unix.read fd b off len with
      | 0 -> `Eof
      | n -> go (off + n) (len - n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off len
  in
  go off len

let read_frame fd =
  let hdr = Bytes.create 4 in
  match Unix.read fd hdr 0 1 with
  | 0 -> Error Eof
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> Error Eof
  | _ -> (
    match really_read fd hdr 1 3 with
    | `Eof -> Error Truncated
    | `Ok ->
      let n = get_len hdr 0 in
      if n > max_frame_bytes then Error (Oversized n)
      else
        let payload = Bytes.create n in
        (match really_read fd payload 0 n with
         | `Eof -> Error Truncated
         | `Ok -> Ok (Bytes.unsafe_to_string payload)))

(* ------------------------------------------------------------------ *)
(* Bit-exact Value codec                                               *)
(* ------------------------------------------------------------------ *)

module J = Obs.Json

let ( let* ) r f =
  match r with
  | Ok v -> f v
  | Error _ as e -> e

(* Every scalar crosses as its 64-bit word in 16 lowercase hex digits,
   most significant first: [Int64.bits_of_float] for a Float (NaN
   payloads and signed zeros survive), [Int64.of_int] for an Int.
   Words travel as two 32-bit halves in plain ints, so neither direction
   boxes an [Int64] per digit.  Obs.Json's %.6g number printing stays
   confined to timings, where precision loss is harmless. *)
type scalar =
  | F64
  | I64

(* Byte -> its two hex digits, packed for one little-endian 16-bit
   store (the first digit in the low byte). *)
let hex_pairs =
  let digit d = Char.code "0123456789abcdef".[d] in
  Array.init 256 (fun x -> digit (x lsr 4) lor (digit (x land 0xf) lsl 8))

(* The low 32 bits of [w] as 8 hex digits at [off]. *)
let put_hex32 b off w =
  Bytes.set_uint16_le b off (Array.unsafe_get hex_pairs ((w lsr 24) land 0xff));
  Bytes.set_uint16_le b (off + 2) (Array.unsafe_get hex_pairs ((w lsr 16) land 0xff));
  Bytes.set_uint16_le b (off + 4) (Array.unsafe_get hex_pairs ((w lsr 8) land 0xff));
  Bytes.set_uint16_le b (off + 6) (Array.unsafe_get hex_pairs (w land 0xff))

let put_float b off f =
  let w = Int64.bits_of_float f in
  put_hex32 b off (Int64.to_int (Int64.shift_right_logical w 32));
  put_hex32 b (off + 8) (Int64.to_int w)

let put_int b off i =
  put_hex32 b off (i asr 32);
  put_hex32 b (off + 8) i

let word put x =
  let b = Bytes.create 16 in
  put b 0 x;
  Bytes.unsafe_to_string b

(* Digit values, -1 for every other byte.  Uppercase is refused: the
   encoding is canonical. *)
let hex_value =
  Array.init 256 (fun c ->
      match Char.chr c with
      | '0' .. '9' -> c - Char.code '0'
      | 'a' .. 'f' -> c - Char.code 'a' + 10
      | _ -> -1)

(* The 32-bit value of the 8 hex digits at [off], or a negative number
   if one is not a digit: a -1 sets every high bit and they stay set. *)
let get_hex32 s off =
  let w = ref 0 in
  for k = 0 to 7 do
    w := (!w lsl 4) lor Array.unsafe_get hex_value (Char.code (String.unsafe_get s (off + k)))
  done;
  !w

(* The scalars of a string of words; [what] names it in errors. *)
let words kind what s =
  let n = String.length s in
  if n mod 16 <> 0 then
    Error (Printf.sprintf "%s of %d digits is not a whole number of 16-digit words" what n)
  else
    (* Back to front, so the list needs no reversal. *)
    let rec go off acc =
      if off < 0 then Ok acc
      else
        let hi = get_hex32 s off and lo = get_hex32 s (off + 8) in
        if hi < 0 || lo < 0 then Error (Printf.sprintf "non-hex digit in %s word %d" what (off / 16))
        else
          match kind with
          | F64 ->
            let w = Int64.logor (Int64.shift_left (Int64.of_int hi) 32) (Int64.of_int lo) in
            go (off - 16) (Cgsim.Value.Float (Int64.float_of_bits w) :: acc)
          | I64 ->
            (* A native int holds the word iff bits 63 and 62 agree. *)
            if hi lsr 31 <> (hi lsr 30) land 1 then
              Error (Printf.sprintf "%s word %d does not fit a native int" what (off / 16))
            else go (off - 16) (Cgsim.Value.Int ((hi lsl 32) lor lo) :: acc)
    in
    go (n - 16) []

(* Tagged form, for elements a packed slot cannot carry (Vec, Rec) and
   for mixed slots: one object per element. *)
let rec json_of_value = function
  | Cgsim.Value.Float f -> J.Obj [ ("F", J.Str (word put_float f)) ]
  | Cgsim.Value.Int i -> J.Obj [ ("I", J.Str (word put_int i)) ]
  | Cgsim.Value.Vec a -> J.Obj [ ("V", J.Arr (Array.to_list a |> List.map json_of_value)) ]
  | Cgsim.Value.Rec fs -> J.Obj [ ("R", J.Obj (List.map (fun (k, v) -> (k, json_of_value v)) fs)) ]

let scalar_of_json kind s =
  match words kind "tagged scalar" s with
  | Ok [ v ] -> Ok v
  | Ok _ -> Error (Printf.sprintf "a tagged scalar is one 16-digit word, not %S" s)
  | Error _ as e -> e

let rec value_of_json j =
  match j with
  | J.Obj [ ("F", J.Str s) ] -> scalar_of_json F64 s
  | J.Obj [ ("I", J.Str s) ] -> scalar_of_json I64 s
  | J.Obj [ ("V", J.Arr elts) ] ->
    let* vs = values_of_json elts in
    Ok (Cgsim.Value.Vec (Array.of_list vs))
  | J.Obj [ ("R", J.Obj fields) ] ->
    let rec go acc = function
      | [] -> Ok (Cgsim.Value.Rec (List.rev acc))
      | (k, fv) :: rest ->
        let* v = value_of_json fv in
        go ((k, v) :: acc) rest
    in
    go [] fields
  | _ -> Error "expected a tagged value object ({\"F\"|\"I\"|\"V\"|\"R\": ...})"

and values_of_json elts =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | e :: rest ->
      let* v = value_of_json e in
      go (v :: acc) rest
  in
  go [] elts

(* Packed form: a slot whose elements are all Float (or all Int) is one
   string of words, {"F64":hex} (or {"I64":hex}); an empty slot packs
   as F64.  Anything else falls back to the tagged array. *)
let json_of_slot elems =
  let b = Bytes.create (16 * List.length elems) in
  let rec pack kind off = function
    | [] -> J.Obj [ ((match kind with F64 -> "F64" | I64 -> "I64"), J.Str (Bytes.unsafe_to_string b)) ]
    | Cgsim.Value.Float f :: rest when kind = F64 ->
      put_float b off f;
      pack kind (off + 16) rest
    | Cgsim.Value.Int i :: rest when kind = I64 ->
      put_int b off i;
      pack kind (off + 16) rest
    | _ -> J.Arr (List.map json_of_value elems)
  in
  pack (match elems with Cgsim.Value.Int _ :: _ -> I64 | _ -> F64) 0 elems

let slot_of_json = function
  | J.Obj [ ("F64", J.Str s) ] -> words F64 "F64 slot" s
  | J.Obj [ ("I64", J.Str s) ] -> words I64 "I64 slot" s
  | J.Arr elems -> values_of_json elems
  | _ -> Error "a slot must be {\"F64\":hex}, {\"I64\":hex} or an array of tagged values"

(* ------------------------------------------------------------------ *)
(* Envelope types                                                      *)
(* ------------------------------------------------------------------ *)

type run_request = {
  rq_graph : string;
  rq_inputs : Cgsim.Value.t list list;
  rq_deadline_ms : float option;
  rq_seed : int option;
}

type request_body =
  | Run of run_request
  | Metrics
  | Ping

type request = {
  q_id : int;
  q_body : request_body;
}

type run_outcome =
  | Completed of Cgsim.Value.t list list
  | Deadline of {
      d_reason : string;
      d_parked : string list;
      d_last_kernel : string option;
    }
  | Cancelled
  | Failed of {
      x_kernel : string;
      x_message : string;
    }
  | Shed

let run_outcome_label = function
  | Completed _ -> "completed"
  | Deadline { d_reason; _ } -> d_reason
  | Cancelled -> "cancelled"
  | Failed _ -> "failed"
  | Shed -> "shed"

type run_reply = {
  rp_outcome : run_outcome;
  rp_attempts : int;
  rp_domain : int;
  rp_server_ns : float;
  rp_run_ns : float;
}

type error_code =
  | Version_mismatch
  | Bad_request
  | Unknown_graph
  | Shutting_down

let error_code_label = function
  | Version_mismatch -> "version-mismatch"
  | Bad_request -> "bad-request"
  | Unknown_graph -> "unknown-graph"
  | Shutting_down -> "shutting-down"

let error_code_of_label = function
  | "version-mismatch" -> Some Version_mismatch
  | "bad-request" -> Some Bad_request
  | "unknown-graph" -> Some Unknown_graph
  | "shutting-down" -> Some Shutting_down
  | _ -> None

type reply_body =
  | Result of run_reply
  | Metrics_text of string
  | Pong
  | Error of error_code * string

type reply = {
  p_id : int;
  p_body : reply_body;
}

type decode_error =
  | Wrong_version of string
  | Malformed of string

let decode_error_message = function
  | Wrong_version v -> Printf.sprintf "protocol version mismatch: peer speaks %S, this end %S" v proto
  | Malformed m -> "malformed frame: " ^ m

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let envelope id fields = J.Obj (("proto", J.Str proto) :: ("id", J.Str (string_of_int id)) :: fields)

let json_of_slots slots = J.Arr (List.map json_of_slot slots)

let encode_request { q_id; q_body } =
  let fields =
    match q_body with
    | Run rq ->
      [ ("type", J.Str "run"); ("graph", J.Str rq.rq_graph); ("inputs", json_of_slots rq.rq_inputs) ]
      @ (match rq.rq_deadline_ms with
         | Some d -> [ ("deadline_ms", J.Num d) ]
         | None -> [])
      @ (match rq.rq_seed with
         | Some s -> [ ("seed", J.Str (string_of_int s)) ]
         | None -> [])
    | Metrics -> [ ("type", J.Str "metrics") ]
    | Ping -> [ ("type", J.Str "ping") ]
  in
  J.to_string (envelope q_id fields)

let reply_json { p_id; p_body } =
  let fields =
    match p_body with
    | Result rp ->
      [
        ("type", J.Str "result");
        ("outcome", J.Str (run_outcome_label rp.rp_outcome));
        ("attempts", J.Num (float_of_int rp.rp_attempts));
        ("domain", J.Num (float_of_int rp.rp_domain));
        ("server_ns", J.Num rp.rp_server_ns);
        ("run_ns", J.Num rp.rp_run_ns);
      ]
      @ (match rp.rp_outcome with
         | Completed outs -> [ ("outputs", json_of_slots outs) ]
         | Deadline { d_parked; d_last_kernel; _ } ->
           [ ("parked", J.Arr (List.map (fun s -> J.Str s) d_parked)) ]
           @ (match d_last_kernel with
              | Some k -> [ ("last_kernel", J.Str k) ]
              | None -> [])
         | Failed { x_kernel; x_message } ->
           [ ("kernel", J.Str x_kernel); ("message", J.Str x_message) ]
         | Cancelled | Shed -> [])
    | Metrics_text body -> [ ("type", J.Str "metrics"); ("body", J.Str body) ]
    | Pong -> [ ("type", J.Str "pong") ]
    | Error (code, msg) ->
      [ ("type", J.Str "error"); ("code", J.Str (error_code_label code)); ("message", J.Str msg) ]
  in
  envelope p_id fields

let encode_reply reply = J.to_string (reply_json reply)

(* One connection's reply encoder: the JSON text goes into [rw_json] and
   the frame into [rw_frame], both kept across replies, so a reply
   allocates only its JSON tree.  Buffers of 2 KB and more bypass the
   minor heap, so a fresh pair per reply would be major-heap garbage on
   every reply. *)
type reply_writer = {
  rw_json : Buffer.t;
  mutable rw_frame : Bytes.t;
}

let reply_writer () = { rw_json = Buffer.create 4096; rw_frame = Bytes.create 4096 }

let write_reply w fd reply =
  Buffer.clear w.rw_json;
  J.to_buffer w.rw_json (reply_json reply);
  let n = Buffer.length w.rw_json in
  if Bytes.length w.rw_frame < 4 + n then
    w.rw_frame <- Bytes.create (max (4 + n) (2 * Bytes.length w.rw_frame));
  put_len w.rw_frame 0 n;
  Buffer.blit w.rw_json 0 w.rw_frame 4 n;
  write_all fd w.rw_frame 0 (4 + n)

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

let str_field j name =
  match J.member name j with
  | Some (J.Str s) -> Ok s
  | Some _ -> Error (Malformed (Printf.sprintf "field %S must be a string" name))
  | None -> Error (Malformed (Printf.sprintf "missing field %S" name))

let int_str_field j name =
  let* s = str_field j name in
  match int_of_string_opt s with
  | Some i -> Ok i
  | None -> Error (Malformed (Printf.sprintf "field %S must be a decimal int string" name))

(* Check version first, then pull the id: every later error can carry
   the request id back to the peer. *)
let check_envelope payload =
  match J.of_string payload with
  | Error m -> Stdlib.Error (Malformed m)
  | Ok j ->
    let* v = str_field j "proto" in
    if not (String.equal v proto) then Error (Wrong_version v)
    else
      let* id = int_str_field j "id" in
      let* ty = str_field j "type" in
      Ok (j, id, ty)

let slots_field j name =
  match J.member name j with
  | Some (J.Arr slots) ->
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | slot :: rest -> (
        match slot_of_json slot with
        | Ok elems -> go (elems :: acc) rest
        | Error m -> Stdlib.Error (Malformed (Printf.sprintf "field %S: %s" name m)))
    in
    go [] slots
  | Some _ -> Error (Malformed (Printf.sprintf "field %S must be an array of slots" name))
  | None -> Error (Malformed (Printf.sprintf "missing field %S" name))

let decode_request payload =
  let* j, q_id, ty = check_envelope payload in
  match ty with
  | "run" ->
    let* rq_graph = str_field j "graph" in
    let* rq_inputs = slots_field j "inputs" in
    let* rq_deadline_ms =
      match J.member "deadline_ms" j with
      | Some (J.Num d) -> Ok (Some d)
      | Some _ -> Error (Malformed "field \"deadline_ms\" must be a number")
      | None -> Ok None
    in
    let* rq_seed =
      match J.member "seed" j with
      | Some (J.Str _) ->
        let* s = int_str_field j "seed" in
        Ok (Some s)
      | Some _ -> Error (Malformed "field \"seed\" must be a decimal int string")
      | None -> Ok None
    in
    Ok { q_id; q_body = Run { rq_graph; rq_inputs; rq_deadline_ms; rq_seed } }
  | "metrics" -> Ok { q_id; q_body = Metrics }
  | "ping" -> Ok { q_id; q_body = Ping }
  | other -> Error (Malformed (Printf.sprintf "unknown request type %S" other))

let num_field j name =
  match J.member name j with
  | Some (J.Num n) -> Ok n
  | Some _ -> Error (Malformed (Printf.sprintf "field %S must be a number" name))
  | None -> Error (Malformed (Printf.sprintf "missing field %S" name))

let decode_reply payload =
  let* j, p_id, ty = check_envelope payload in
  match ty with
  | "result" ->
    let* label = str_field j "outcome" in
    let* attempts = num_field j "attempts" in
    let* domain = num_field j "domain" in
    let* server_ns = num_field j "server_ns" in
    let* run_ns = num_field j "run_ns" in
    let* rp_outcome =
      match label with
      | "completed" ->
        let* outs = slots_field j "outputs" in
        Ok (Completed outs)
      | "deadline" | "max-steps" ->
        let d_parked =
          match J.member "parked" j with
          | Some (J.Arr l) -> List.filter_map J.to_str l
          | _ -> []
        in
        let d_last_kernel =
          match J.member "last_kernel" j with
          | Some (J.Str k) -> Some k
          | _ -> None
        in
        Ok (Deadline { d_reason = label; d_parked; d_last_kernel })
      | "cancelled" -> Ok Cancelled
      | "failed" ->
        let* x_kernel = str_field j "kernel" in
        let* x_message = str_field j "message" in
        Ok (Failed { x_kernel; x_message })
      | "shed" -> Ok Shed
      | other -> Error (Malformed (Printf.sprintf "unknown outcome %S" other))
    in
    Ok
      {
        p_id;
        p_body =
          Result
            {
              rp_outcome;
              rp_attempts = int_of_float attempts;
              rp_domain = int_of_float domain;
              rp_server_ns = server_ns;
              rp_run_ns = run_ns;
            };
      }
  | "metrics" ->
    let* body = str_field j "body" in
    Ok { p_id; p_body = Metrics_text body }
  | "pong" -> Ok { p_id; p_body = Pong }
  | "error" ->
    let* code_label = str_field j "code" in
    let* message = str_field j "message" in
    (match error_code_of_label code_label with
     | Some code -> Ok { p_id; p_body = Error (code, message) }
     | None -> Error (Malformed (Printf.sprintf "unknown error code %S" code_label)))
  | other -> Error (Malformed (Printf.sprintf "unknown reply type %S" other))
