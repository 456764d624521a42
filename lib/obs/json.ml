(* Minimal JSON support: enough of a writer to emit Chrome trace-event
   files and enough of a parser to validate them (the test suite parses
   exported traces back).  Kept dependency-free on purpose — the
   container image has no yojson. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

let escape_slow buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

(* Most strings (keys, labels, packed hex payloads) need no escaping:
   one scan, then one blit. *)
let rec plain s i n =
  i = n
  ||
  let c = String.unsafe_get s i in
  c <> '"' && c <> '\\' && c >= ' ' && plain s (i + 1) n

let escape_to buf s =
  Buffer.add_char buf '"';
  if plain s 0 (String.length s) then Buffer.add_string buf s else escape_slow buf s;
  Buffer.add_char buf '"'

let number_to buf f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.0f" f)
  else if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.6g" f)
  else Buffer.add_string buf "0"

let rec to_buffer buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num f -> number_to buf f
  | Str s -> escape_to buf s
  | Arr items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        to_buffer buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape_to buf k;
        Buffer.add_char buf ':';
        to_buffer buf v)
      fields;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 4096 in
  to_buffer buf v;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

type state = { src : string; mutable pos : int }

let perr st fmt =
  Format.kasprintf (fun m -> raise (Parse_error (Printf.sprintf "at %d: %s" st.pos m))) fmt

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance st;
    skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some d when d = c -> advance st
  | Some d -> perr st "expected %c, found %c" c d
  | None -> perr st "expected %c, found end of input" c

let parse_literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = word then begin
    st.pos <- st.pos + n;
    value
  end
  else perr st "invalid literal"

let parse_string_slow st =
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> perr st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' ->
      advance st;
      (match peek st with
       | Some '"' -> Buffer.add_char buf '"'; advance st
       | Some '\\' -> Buffer.add_char buf '\\'; advance st
       | Some '/' -> Buffer.add_char buf '/'; advance st
       | Some 'n' -> Buffer.add_char buf '\n'; advance st
       | Some 'r' -> Buffer.add_char buf '\r'; advance st
       | Some 't' -> Buffer.add_char buf '\t'; advance st
       | Some 'b' -> Buffer.add_char buf '\b'; advance st
       | Some 'f' -> Buffer.add_char buf '\012'; advance st
       | Some 'u' ->
         advance st;
         if st.pos + 4 > String.length st.src then perr st "truncated \\u escape";
         let hex = String.sub st.src st.pos 4 in
         let code =
           try int_of_string ("0x" ^ hex) with _ -> perr st "bad \\u escape %s" hex
         in
         st.pos <- st.pos + 4;
         (* Keep it simple: non-ASCII escapes round-trip as '?'. *)
         Buffer.add_char buf (if code < 0x80 then Char.chr code else '?')
       | _ -> perr st "bad escape");
      go ()
    | Some c ->
      Buffer.add_char buf c;
      advance st;
      go ()
  in
  go ();
  Buffer.contents buf

(* Fast path: scan to the closing quote; a string with no backslash is
   one [String.sub].  Otherwise re-read it through the escape decoder. *)
let parse_string st =
  expect st '"';
  let src = st.src and start = st.pos in
  let n = String.length src in
  let rec scan i =
    if i = n then i
    else
      match String.unsafe_get src i with
      | '"' | '\\' -> i
      | _ -> scan (i + 1)
  in
  let stop = scan start in
  if stop < n && String.unsafe_get src stop = '"' then begin
    st.pos <- stop + 1;
    String.sub src start (stop - start)
  end
  else parse_string_slow st

let parse_number st =
  let start = st.pos in
  let is_num_char c =
    match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
  in
  while (match peek st with Some c when is_num_char c -> true | _ -> false) do
    advance st
  done;
  let text = String.sub st.src start (st.pos - start) in
  match float_of_string_opt text with
  | Some f -> f
  | None -> perr st "invalid number %S" text

let max_depth = 512

(* [depth] counts the enclosing arrays and objects.  The parser
   recurses once per level, so the cap bounds both its stack and the
   time a hostile document can hold it. *)
let rec parse_value st depth =
  skip_ws st;
  match peek st with
  | None -> perr st "unexpected end of input"
  | Some ('{' | '[') when depth >= max_depth -> perr st "nesting deeper than %d" max_depth
  | Some '{' ->
    advance st;
    skip_ws st;
    if peek st = Some '}' then begin
      advance st;
      Obj []
    end
    else begin
      let rec fields acc =
        skip_ws st;
        let k = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st (depth + 1) in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          fields ((k, v) :: acc)
        | Some '}' ->
          advance st;
          List.rev ((k, v) :: acc)
        | _ -> perr st "expected , or } in object"
      in
      Obj (fields [])
    end
  | Some '[' ->
    advance st;
    skip_ws st;
    if peek st = Some ']' then begin
      advance st;
      Arr []
    end
    else begin
      let rec items acc =
        let v = parse_value st (depth + 1) in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          items (v :: acc)
        | Some ']' ->
          advance st;
          List.rev (v :: acc)
        | _ -> perr st "expected , or ] in array"
      in
      Arr (items [])
    end
  | Some '"' -> Str (parse_string st)
  | Some 't' -> parse_literal st "true" (Bool true)
  | Some 'f' -> parse_literal st "false" (Bool false)
  | Some 'n' -> parse_literal st "null" Null
  | Some _ -> Num (parse_number st)

let of_string s =
  let st = { src = s; pos = 0 } in
  match parse_value st 0 with
  | v ->
    skip_ws st;
    if st.pos <> String.length s then Error (Printf.sprintf "trailing data at %d" st.pos)
    else Ok v
  | exception Parse_error m -> Error m

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None

let to_list = function Arr items -> Some items | _ -> None

let to_float = function Num f -> Some f | _ -> None

let to_str = function Str s -> Some s | _ -> None
