(* cgx serve tests: the wire codec must be bit-exact (fuzzed over NaN
   payloads, signed zeros, subnormals and extreme ints) and reject every
   malformed frame shape without raising; a live daemon over a Unix
   socket must serve all four evaluation apps bit-identically to
   in-process execution, expose valid Prometheus metrics showing
   warm-cache hits, shed at the door when the breaker is open, answer a
   cgx-serve/1 peer with a structured version-mismatch error, count a
   peer reset as a connection error and keep serving, and drain on stop
   without dropping an in-flight request. *)

module W = Serve.Wire
module R = Cgsim.Runtime

(* ------------------------------------------------------------------ *)
(* Helpers                                                            *)
(* ------------------------------------------------------------------ *)

(* Structural equality that distinguishes every float bit pattern (the
   wire codec's exactness claim is about bits, not [=], which conflates
   0.0 with -0.0 and fails on NaN). *)
let rec value_bits_equal a b =
  match a, b with
  | Cgsim.Value.Float x, Cgsim.Value.Float y ->
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Cgsim.Value.Int x, Cgsim.Value.Int y -> x = y
  | Cgsim.Value.Vec xs, Cgsim.Value.Vec ys ->
    Array.length xs = Array.length ys
    && Array.for_all2 (fun x y -> value_bits_equal x y) xs ys
  | Cgsim.Value.Rec xs, Cgsim.Value.Rec ys ->
    List.length xs = List.length ys
    && List.for_all2 (fun (k, x) (l, y) -> k = l && value_bits_equal x y) xs ys
  | _ -> false

let values_bits_equal a b =
  List.length a = List.length b && List.for_all2 value_bits_equal a b

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let temp_sock tag =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "cgx-test-%s-%d.sock" tag (Unix.getpid ()))
  in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  path

let all_graphs =
  List.map (fun h -> h.Apps.Harness.name, h.Apps.Harness.graph ()) Apps.Harness.all

(* Run [h] in-process under the default config and return the primary
   output — the reference the served outputs must match bit for bit. *)
let local_primary (h : Apps.Harness.t) ~reps =
  let sinks, contents = h.Apps.Harness.make_sinks () in
  (match
     R.execute (h.Apps.Harness.graph ()) ~sources:(h.Apps.Harness.sources ~reps) ~sinks
   with
   | R.Completed _ -> ()
   | o -> Alcotest.failf "local %s: %s" h.Apps.Harness.name (R.outcome_label o));
  contents ()

(* ------------------------------------------------------------------ *)
(* Codec                                                              *)
(* ------------------------------------------------------------------ *)

let awkward_values =
  [
    Cgsim.Value.Float 0.1;
    Cgsim.Value.Float (1.0 /. 3.0);
    Cgsim.Value.Float 1e-300;
    Cgsim.Value.Float (-0.0);
    Cgsim.Value.Float (4.0 *. atan 1.0);
    Cgsim.Value.Float (Float.succ 1.0);
    Cgsim.Value.Float (Int64.float_of_bits 0xfff0000000000001L);
    Cgsim.Value.Float Float.infinity;
    Cgsim.Value.Int 42;
    Cgsim.Value.Int (-1);
    Cgsim.Value.Int max_int;
    Cgsim.Value.Int min_int;
    Cgsim.Value.Vec [| Cgsim.Value.Float 1.5; Cgsim.Value.Int 7 |];
    Cgsim.Value.Rec
      [ "re", Cgsim.Value.Float 0.30000000000000004; "im", Cgsim.Value.Float (-2.5) ];
  ]

let test_value_roundtrip () =
  List.iter
    (fun v ->
      let j = W.json_of_value v in
      (* Through the printer and the strict parser, as on the wire. *)
      match Obs.Json.of_string (Obs.Json.to_string j) with
      | Error m -> Alcotest.failf "reparse failed for %s: %s" (Cgsim.Value.to_string v) m
      | Ok j' -> (
        match W.value_of_json j' with
        | Error m -> Alcotest.failf "decode failed for %s: %s" (Cgsim.Value.to_string v) m
        | Ok v' ->
          if not (value_bits_equal v v') then
            Alcotest.failf "not bit-identical: %s vs %s" (Cgsim.Value.to_string v)
              (Cgsim.Value.to_string v')))
    awkward_values

let test_request_roundtrip () =
  let rq =
    {
      W.q_id = 123456789;
      q_body =
        W.Run
          {
            rq_graph = "bitonic";
            rq_inputs = [ awkward_values; [ Cgsim.Value.Int 1 ] ];
            rq_deadline_ms = Some 250.0;
            rq_seed = Some 99;
          };
    }
  in
  (match W.decode_request (W.encode_request rq) with
   | Error e -> Alcotest.failf "run request: %s" (W.decode_error_message e)
   | Ok rq' -> (
     Alcotest.(check int) "id" rq.W.q_id rq'.W.q_id;
     match rq.W.q_body, rq'.W.q_body with
     | W.Run a, W.Run b ->
       Alcotest.(check string) "graph" a.W.rq_graph b.W.rq_graph;
       Alcotest.(check (option (float 0.0))) "deadline" a.W.rq_deadline_ms b.W.rq_deadline_ms;
       Alcotest.(check (option int)) "seed" a.W.rq_seed b.W.rq_seed;
       if not (List.for_all2 values_bits_equal a.W.rq_inputs b.W.rq_inputs) then
         Alcotest.fail "inputs not bit-identical"
     | _ -> Alcotest.fail "body type changed"));
  List.iter
    (fun body ->
      match W.decode_request (W.encode_request { W.q_id = 7; q_body = body }) with
      | Ok { W.q_id = 7; q_body = W.Metrics } when body = W.Metrics -> ()
      | Ok { W.q_id = 7; q_body = W.Ping } when body = W.Ping -> ()
      | Ok _ -> Alcotest.fail "body type changed"
      | Error e -> Alcotest.failf "metrics/ping: %s" (W.decode_error_message e))
    [ W.Metrics; W.Ping ]

let test_reply_roundtrip () =
  let result outcome =
    {
      W.p_id = 5;
      p_body =
        W.Result
          {
            rp_outcome = outcome;
            rp_attempts = 3;
            rp_domain = 1;
            (* Timings cross as %.6g-printed numbers; exactly
               representable values keep [=] meaningful here. *)
            rp_server_ns = 125000.0;
            rp_run_ns = 42.0;
          };
    }
  in
  let replies =
    [
      result (W.Completed [ awkward_values ]);
      result
        (W.Deadline { d_reason = "deadline"; d_parked = [ "k1"; "k2" ]; d_last_kernel = Some "k1" });
      result (W.Deadline { d_reason = "max-steps"; d_parked = []; d_last_kernel = None });
      result W.Cancelled;
      result (W.Failed { x_kernel = "iir_core"; x_message = "boom: 42" });
      result W.Shed;
      { W.p_id = 6; p_body = W.Metrics_text "# HELP x y\n" };
      { W.p_id = 7; p_body = W.Pong };
      { W.p_id = -1; p_body = W.Error (W.Version_mismatch, "speak cgx-serve/1") };
      { W.p_id = 8; p_body = W.Error (W.Unknown_graph, "no graph named \"nope\"") };
    ]
  in
  List.iter
    (fun rp ->
      match W.decode_reply (W.encode_reply rp) with
      | Error e -> Alcotest.failf "reply: %s" (W.decode_error_message e)
      | Ok rp' -> (
        Alcotest.(check int) "id" rp.W.p_id rp'.W.p_id;
        match rp.W.p_body, rp'.W.p_body with
        | W.Result a, W.Result b -> (
          Alcotest.(check string) "outcome label" (W.run_outcome_label a.W.rp_outcome)
            (W.run_outcome_label b.W.rp_outcome);
          Alcotest.(check int) "attempts" a.W.rp_attempts b.W.rp_attempts;
          Alcotest.(check int) "domain" a.W.rp_domain b.W.rp_domain;
          Alcotest.(check (float 0.0)) "server_ns" a.W.rp_server_ns b.W.rp_server_ns;
          match a.W.rp_outcome, b.W.rp_outcome with
          | W.Completed xs, W.Completed ys ->
            if not (List.for_all2 values_bits_equal xs ys) then
              Alcotest.fail "outputs not bit-identical"
          | ( W.Deadline { d_reason = ra; d_parked = pa; d_last_kernel = la },
              W.Deadline { d_reason = rb; d_parked = pb; d_last_kernel = lb } ) ->
            Alcotest.(check string) "reason" ra rb;
            Alcotest.(check (list string)) "parked" pa pb;
            Alcotest.(check (option string)) "last" la lb
          | ( W.Failed { x_kernel = ka; x_message = ma },
              W.Failed { x_kernel = kb; x_message = mb } ) ->
            Alcotest.(check string) "kernel" ka kb;
            Alcotest.(check string) "message" ma mb
          | _ -> ())
        | W.Metrics_text a, W.Metrics_text b -> Alcotest.(check string) "metrics" a b
        | W.Pong, W.Pong -> ()
        | W.Error (ca, ma), W.Error (cb, mb) ->
          Alcotest.(check string) "code" (W.error_code_label ca) (W.error_code_label cb);
          Alcotest.(check string) "message" ma mb
        | _ -> Alcotest.fail "body type changed"))
    replies

let run_request inputs =
  {
    W.q_id = 1;
    q_body = W.Run { rq_graph = "g"; rq_inputs = inputs; rq_deadline_ms = None; rq_seed = None };
  }

let completed_reply outputs =
  {
    W.p_id = 1;
    p_body =
      W.Result
        {
          rp_outcome = W.Completed outputs;
          rp_attempts = 1;
          rp_domain = 0;
          rp_server_ns = 1.0;
          rp_run_ns = 1.0;
        };
  }

(* A run frame with [slots] spliced in verbatim as its "inputs". *)
let raw_run slots =
  Printf.sprintf "{\"proto\":%S,\"id\":\"1\",\"type\":\"run\",\"graph\":\"g\",\"inputs\":[%s]}"
    W.proto slots

let test_slot_forms () =
  let module V = Cgsim.Value in
  let slots =
    [
      [ V.Float 1.5; V.Float (-0.0) ];
      [ V.Int (-1); V.Int 42 ];
      [ V.Rec [ "re", V.Float 1.0 ] ];
      [ V.Float 1.0; V.Int 1 ];
      [];
    ]
  in
  let j =
    match Obs.Json.of_string (W.encode_request (run_request slots)) with
    | Ok j -> j
    | Error m -> Alcotest.failf "encoded request is not JSON: %s" m
  in
  let form = function
    | Obs.Json.Obj [ (tag, Obs.Json.Str hex) ] -> tag ^ ":" ^ hex
    | Obs.Json.Arr l -> Printf.sprintf "tagged:%d" (List.length l)
    | _ -> "other"
  in
  Alcotest.(check (list string))
    "one form per slot"
    [
      "F64:3ff80000000000008000000000000000";
      "I64:ffffffffffffffff000000000000002a";
      "tagged:1";
      "tagged:2";
      "F64:";
    ]
    (match Obs.Json.member "inputs" j with
     | Some (Obs.Json.Arr l) -> List.map form l
     | _ -> [])

let test_strict_packed_decoder () =
  List.iter
    (fun (what, slots) ->
      match W.decode_request (raw_run slots) with
      | Error (W.Malformed _) -> ()
      | Error (W.Wrong_version _) -> Alcotest.failf "%s: read as version skew" what
      | Ok _ -> Alcotest.failf "%s: decoded" what
      | exception e -> Alcotest.failf "%s: raised %s" what (Printexc.to_string e))
    [
      "short word", {|{"F64":"3ff800000000000"}|};
      "word and a half", {|{"F64":"3ff80000000000003ff80000"}|};
      "non-hex digit", {|{"F64":"3ff800000000000g"}|};
      "uppercase digit", {|{"F64":"3FF8000000000000"}|};
      "escaped control character", {|{"I64":"000000000000002\n"}|};
      "tagged float literal", {|[{"F":"0x1.8p+3"}]|};
      "tagged two words", {|[{"I":"00000000000000010000000000000002"}]|};
      "int wider than a native int", {|{"I64":"4000000000000000"}|};
      "unknown packed tag", {|{"F32":"3fc00000"}|};
      "packed number", {|{"F64":1.5}|};
    ];
  match W.decode_request (raw_run {|{"I64":"c000000000000000"},{"F64":"7ff0000000000001"}|}) with
  | Ok { W.q_body = W.Run { rq_inputs = [ [ Cgsim.Value.Int i ]; [ Cgsim.Value.Float f ] ]; _ }; _ } ->
    Alcotest.(check int) "min_int" min_int i;
    Alcotest.(check int64) "NaN payload" 0x7ff0000000000001L (Int64.bits_of_float f)
  | Ok _ -> Alcotest.fail "wrong slots"
  | Error e -> Alcotest.failf "valid packed slots refused: %s" (W.decode_error_message e)

(* qcheck: slots of every form, with the awkward scalars over-drawn. *)
let gen_float =
  QCheck.Gen.(
    frequency
      [
        ( 1,
          oneofl
            [ 0.0; -0.0; Float.infinity; Float.neg_infinity; Float.nan; 5e-324; -2.2e-308;
              Float.max_float ] );
        (* Any bit pattern: NaN payloads and subnormals included. *)
        2, map Int64.float_of_bits ui64;
        1, float;
      ])

let gen_int = QCheck.Gen.(frequency [ 1, oneofl [ 0; -1; max_int; min_int ]; 3, int ])

let gen_value =
  QCheck.Gen.(
    fix (fun self depth ->
        let scalar =
          [ 2, map (fun f -> Cgsim.Value.Float f) gen_float; 2, map (fun i -> Cgsim.Value.Int i) gen_int ]
        in
        if depth = 0 then frequency scalar
        else
          frequency
            (scalar
            @ [
                1, map (fun l -> Cgsim.Value.Vec (Array.of_list l)) (list_size (int_bound 4) (self (depth - 1)));
                ( 1,
                  map
                    (fun l -> Cgsim.Value.Rec (List.mapi (fun i v -> Printf.sprintf "f%d" i, v) l))
                    (list_size (int_bound 3) (self (depth - 1))) );
              ]))
      2)

let gen_slot =
  QCheck.Gen.(
    frequency
      [
        3, list_size (int_bound 40) (map (fun f -> Cgsim.Value.Float f) gen_float);
        2, list_size (int_bound 40) (map (fun i -> Cgsim.Value.Int i) gen_int);
        2, list_size (int_bound 8) gen_value;
        1, return [];
      ])

let gen_slots = QCheck.Gen.(list_size (int_bound 4) gen_slot)

let show_slots slots =
  String.concat " | " (List.map (fun l -> String.concat " " (List.map Cgsim.Value.to_string l)) slots)

let slots_bits_equal a b = List.length a = List.length b && List.for_all2 values_bits_equal a b

let prop_roundtrip =
  QCheck.Test.make ~name:"codec round-trip is bit-exact on random slots" ~count:500
    (QCheck.make ~print:show_slots gen_slots)
    (fun slots ->
      (match W.decode_request (W.encode_request (run_request slots)) with
       | Ok { W.q_body = W.Run { rq_inputs; _ }; _ } ->
         if not (slots_bits_equal slots rq_inputs) then QCheck.Test.fail_report "request inputs differ"
       | Ok _ -> QCheck.Test.fail_report "request body changed"
       | Error e -> QCheck.Test.fail_reportf "request: %s" (W.decode_error_message e));
      match W.decode_reply (W.encode_reply (completed_reply slots)) with
      | Ok { W.p_body = W.Result { rp_outcome = W.Completed outs; _ }; _ } ->
        slots_bits_equal slots outs || QCheck.Test.fail_report "reply outputs differ"
      | Ok _ -> QCheck.Test.fail_report "reply body changed"
      | Error e -> QCheck.Test.fail_reportf "reply: %s" (W.decode_error_message e))

(* Ways to damage a valid frame. *)
type mutation =
  | Truncate of int
  | Flip of int * int  (* byte, bit *)
  | Length_prefix of int
  | Drop_hex of int * int  (* which packed digit, how many (1..15) *)
  | Bad_digit of int * char

let show_mutation = function
  | Truncate n -> Printf.sprintf "truncate to %d" n
  | Flip (i, b) -> Printf.sprintf "flip bit %d of byte %d" b i
  | Length_prefix n -> Printf.sprintf "length prefix %d" n
  | Drop_hex (i, k) -> Printf.sprintf "drop %d hex digits at %d" k i
  | Bad_digit (i, c) -> Printf.sprintf "hex digit %d := %C" i c

let gen_mutation =
  QCheck.Gen.(
    let pos = int_bound 1_000_000 in
    let non_hex = map (function '0' .. '9' | 'a' .. 'f' -> 'G' | c -> c) char in
    oneof
      [
        map (fun n -> Truncate n) pos;
        map2 (fun i b -> Flip (i, b)) pos (int_bound 7);
        map (fun n -> Length_prefix n) (oneof [ int_bound 4096; int_bound (W.max_frame_bytes * 2) ]);
        map2 (fun i k -> Drop_hex (i, 1 + k)) pos (int_bound 14);
        map2 (fun i c -> Bad_digit (i, c)) pos non_hex;
      ])

(* Byte offsets of every packed hex digit in [payload]. *)
let hex_positions payload =
  let n = String.length payload in
  let rec scan i acc =
    if i + 7 > n then List.rev acc
    else
      let tag = String.sub payload i 7 in
      if tag = {|"F64":"|} || tag = {|"I64":"|} then begin
        let j = ref (i + 7) and acc = ref acc in
        while payload.[!j] <> '"' do
          acc := !j :: !acc;
          incr j
        done;
        scan !j !acc
      end
      else scan (i + 1) acc
  in
  scan 0 []

(* The damaged frame of [payload] (which must hold a packed digit), and
   whether the damage can never leave a decodable frame: every mutation
   but a bit flip, and a length prefix other than the true one. *)
let mutate payload m =
  let framed = W.frame payload in
  let n = String.length framed in
  let splice i cut by =
    W.frame (String.sub payload 0 i ^ by ^ String.sub payload (i + cut) (String.length payload - i - cut))
  in
  let hex i =
    let ps = hex_positions payload in
    List.nth ps (i mod List.length ps)
  in
  match m with
  | Truncate k -> (String.sub framed 0 (k mod n), true)
  | Flip (i, bit) ->
    let b = Bytes.of_string framed in
    let i = i mod n in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)));
    (Bytes.to_string b, false)
  | Length_prefix len ->
    let b = Bytes.of_string framed in
    Bytes.set_int32_be b 0 (Int32.of_int len);
    (Bytes.to_string b, len <> n - 4)
  | Drop_hex (i, k) ->
    let p = hex i in
    (splice p (min k (String.length payload - p)) "", true)
  | Bad_digit (i, c) -> (splice (hex i) 1 (String.make 1 c), true)

let prop_mutation =
  QCheck.Test.make ~name:"damaged frames are refused, never raise" ~count:1000
    (QCheck.make
       ~print:(fun (slots, m) -> show_slots slots ^ " / " ^ show_mutation m)
       QCheck.Gen.(pair gen_slots gen_mutation))
    (fun (slots, m) ->
      (* A float slot in front guarantees packed digits to damage. *)
      let slots = [ Cgsim.Value.Float 1.0; Cgsim.Value.Float Float.nan ] :: slots in
      let check payload decodes =
        let damaged, must_fail = mutate payload m in
        match W.unframe (Bytes.of_string damaged) ~pos:0 with
        | Error _ -> true
        | Ok (payload, _) ->
          (* Both decoders see every payload: neither may raise. *)
          ignore (W.decode_request payload, W.decode_reply payload);
          (not (must_fail && decodes payload))
          || QCheck.Test.fail_reportf "decoded after %s" (show_mutation m)
      in
      try
        check (W.encode_request (run_request slots)) (fun p -> Result.is_ok (W.decode_request p))
        && check (W.encode_reply (completed_reply slots)) (fun p -> Result.is_ok (W.decode_reply p))
      with e -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string e))

(* ------------------------------------------------------------------ *)
(* Framing and rejection                                              *)
(* ------------------------------------------------------------------ *)

let test_frame_roundtrip () =
  let payloads = [ ""; "x"; String.make 100_000 'z'; "{\"a\":[1,2,3]}" ] in
  let buf = Buffer.create 1024 in
  List.iter (fun p -> Buffer.add_string buf (W.frame p)) payloads;
  let b = Buffer.to_bytes buf in
  let pos = ref 0 in
  List.iter
    (fun p ->
      match W.unframe b ~pos:!pos with
      | Error e -> Alcotest.failf "unframe: %s" (W.frame_error_message e)
      | Ok (p', next) ->
        Alcotest.(check string) "payload" p p';
        pos := next)
    payloads;
  (match W.unframe b ~pos:!pos with
   | Error W.Eof -> ()
   | Error e -> Alcotest.failf "expected Eof, got %s" (W.frame_error_message e)
   | Ok _ -> Alcotest.fail "expected Eof at end of buffer")

(* One connection's reply writer reuses its buffers: a reply after a
   longer one must not carry the longer one's tail, and a reply longer
   than the buffers so far must grow them.  Each frame read back is
   exactly the frame write_frame sends for encode_reply. *)
let test_reply_writer_reuse () =
  let long =
    completed_reply [ List.init 3000 (fun i -> Cgsim.Value.Float (float_of_int i *. 0.25)) ]
  in
  let short = { W.p_id = 9; p_body = W.Pong } in
  let replies = [ short; long; short; completed_reply [ [ Cgsim.Value.Int 7 ] ] ] in
  let r, w = Unix.pipe ~cloexec:true () in
  Fun.protect
    ~finally:(fun () -> Unix.close r; Unix.close w)
    (fun () ->
      let writer = W.reply_writer () in
      List.iter
        (fun rp ->
          W.write_reply writer w rp;
          match W.read_frame r with
          | Error e -> Alcotest.failf "read_frame: %s" (W.frame_error_message e)
          | Ok payload -> (
            Alcotest.(check string) "frame == encode_reply" (W.encode_reply rp) payload;
            match W.decode_reply payload with
            | Error e -> Alcotest.failf "decode: %s" (W.decode_error_message e)
            | Ok rp' ->
              Alcotest.(check int) "id" rp.W.p_id rp'.W.p_id;
              (match rp.W.p_body, rp'.W.p_body with
               | W.Result { rp_outcome = W.Completed xs; _ },
                 W.Result { rp_outcome = W.Completed ys; _ } ->
                 if not (List.for_all2 values_bits_equal xs ys) then
                   Alcotest.fail "outputs not bit-identical"
               | W.Pong, W.Pong -> ()
               | _ -> Alcotest.fail "body type changed")))
        replies)

let test_frame_rejection () =
  let framed = W.frame (Printf.sprintf "{\"proto\":%S}" W.proto) in
  (* Truncated inside the payload and inside the length prefix. *)
  List.iter
    (fun keep ->
      let b = Bytes.of_string (String.sub framed 0 keep) in
      match W.unframe b ~pos:0 with
      | Error W.Truncated -> ()
      | Error e -> Alcotest.failf "keep=%d: expected Truncated, got %s" keep
                     (W.frame_error_message e)
      | Ok _ -> Alcotest.failf "keep=%d: truncated frame decoded" keep)
    [ String.length framed - 1; 5; 2 ];
  (* A hostile length prefix must be refused before any allocation. *)
  let huge = Bytes.create 4 in
  Bytes.set_int32_be huge 0 (Int32.of_int (W.max_frame_bytes + 1));
  (match W.unframe huge ~pos:0 with
   | Error (W.Oversized n) -> Alcotest.(check int) "declared size" (W.max_frame_bytes + 1) n
   | Error e -> Alcotest.failf "expected Oversized, got %s" (W.frame_error_message e)
   | Ok _ -> Alcotest.fail "oversized frame decoded");
  (* Garbage payloads frame fine but must not decode. *)
  List.iter
    (fun garbage ->
      match W.decode_request garbage with
      | Error (W.Malformed _) -> ()
      | Error (W.Wrong_version _) -> Alcotest.failf "%S read as version skew" garbage
      | Ok _ -> Alcotest.failf "garbage decoded: %S" garbage)
    [
      "not json at all";
      "[1,2,3]";
      "{}";
      Printf.sprintf "{\"proto\":%S,\"id\":\"0\"}" W.proto;
      Printf.sprintf "{\"proto\":%S,\"id\":\"0\",\"type\":\"frobnicate\"}" W.proto;
      Printf.sprintf "{\"proto\":%S,\"id\":12,\"type\":\"ping\"}" W.proto;
    ];
  (* Version skew is distinguished from malformedness — and checked
     before anything else in the envelope. *)
  (match W.decode_request "{\"proto\":\"cgx-serve/999\",\"id\":\"0\",\"type\":\"ping\"}" with
   | Error (W.Wrong_version v) -> Alcotest.(check string) "peer proto" "cgx-serve/999" v
   | Error (W.Malformed m) -> Alcotest.failf "version skew read as malformed: %s" m
   | Ok _ -> Alcotest.fail "wrong-version frame decoded");
  match W.decode_request "{\"proto\":\"cgx-serve/999\"}" with
  | Error (W.Wrong_version _) -> ()
  | Error (W.Malformed m) -> Alcotest.failf "proto must be checked first: %s" m
  | Ok _ -> Alcotest.fail "wrong-version frame decoded"

(* Nesting is capped: a legal-size frame of 8M nested arrays is refused
   at the cap instead of holding the reader for a minute. *)
let test_deep_nesting_rejected () =
  let nested d = String.make d '[' ^ String.make d ']' in
  (match Obs.Json.of_string (nested Obs.Json.max_depth) with
   | Ok _ -> ()
   | Error m -> Alcotest.failf "depth %d refused: %s" Obs.Json.max_depth m);
  (match Obs.Json.of_string (nested (Obs.Json.max_depth + 1)) with
   | Ok _ -> Alcotest.fail "nesting past the cap parsed"
   | Error _ -> ());
  let framed = W.frame (nested 8_000_000) in
  let payload =
    match W.unframe (Bytes.unsafe_of_string framed) ~pos:0 with
    | Ok (p, _) -> p
    | Error e -> Alcotest.failf "8M-deep frame not legal: %s" (W.frame_error_message e)
  in
  let t0 = Unix.gettimeofday () in
  (match W.decode_request payload with
   | Error (W.Malformed _) -> ()
   | Error (W.Wrong_version v) -> Alcotest.failf "read as version %S" v
   | Ok _ -> Alcotest.fail "8M-deep frame decoded");
  let dt = Unix.gettimeofday () -. t0 in
  if dt > 0.25 then Alcotest.failf "8M-deep frame took %.3f s to refuse" dt

(* ------------------------------------------------------------------ *)
(* Daemon lifecycle                                                   *)
(* ------------------------------------------------------------------ *)

let test_daemon_lifecycle () =
  let path = temp_sock "life" in
  let server =
    Serve.Server.create ~graphs:all_graphs ~domains:2 ~listen:(Serve.Addr.Unix_path path) ()
  in
  let serving = Domain.spawn (fun () -> Serve.Server.serve server) in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.stop server;
      Domain.join serving)
    (fun () ->
      let client = Serve.Client.connect ~retries:10 (Serve.Addr.Unix_path path) in
      Fun.protect ~finally:(fun () -> Serve.Client.close client) (fun () ->
          (* Liveness. *)
          (match Serve.Client.ping client with
           | Ok rtt -> Alcotest.(check bool) "rtt positive" true (rtt > 0.0)
           | Error m -> Alcotest.failf "ping: %s" m);
          (* Every app must round-trip bit-identically to an in-process
             run: same primary output bits, and the golden check holds
             on what came over the wire. *)
          List.iter
            (fun (h : Apps.Harness.t) ->
              let reps = 2 in
              let inputs = List.map Cgsim.Io.elements (h.Apps.Harness.sources ~reps) in
              match Serve.Client.run client ~graph:h.Apps.Harness.name inputs with
              | Error m -> Alcotest.failf "%s: %s" h.Apps.Harness.name m
              | Ok rp -> (
                match rp.W.rp_outcome with
                | W.Completed outputs ->
                  let primary = match outputs with o :: _ -> o | [] -> [] in
                  (match h.Apps.Harness.check ~reps primary with
                   | Ok () -> ()
                   | Error m -> Alcotest.failf "%s: served output: %s" h.Apps.Harness.name m);
                  let reference = local_primary h ~reps in
                  if not (values_bits_equal reference primary) then
                    Alcotest.failf "%s: served output differs from in-process run"
                      h.Apps.Harness.name;
                  Alcotest.(check bool)
                    (h.Apps.Harness.name ^ " attempts") true (rp.W.rp_attempts >= 1)
                | o ->
                  Alcotest.failf "%s: outcome %s" h.Apps.Harness.name (W.run_outcome_label o)))
            Apps.Harness.all;
          (* A repeat request hits the warm instance cache, and the
             daemon's merged exposition validates strictly. *)
          let h = Apps.Harness.bitonic in
          let inputs = List.map Cgsim.Io.elements (h.Apps.Harness.sources ~reps:2) in
          (match Serve.Client.run client ~graph:"bitonic" inputs with
           | Ok { W.rp_outcome = W.Completed _; _ } -> ()
           | Ok _ | Error _ -> Alcotest.fail "repeat bitonic request failed");
          (match Serve.Client.run client ~graph:"no_such_graph" inputs with
           | Error m ->
             Alcotest.(check bool) "unknown-graph error names the code" true
               (contains ~needle:(W.error_code_label W.Unknown_graph) m)
           | Ok _ -> Alcotest.fail "unknown graph served");
          match Serve.Client.metrics client with
          | Error m -> Alcotest.failf "metrics: %s" m
          | Ok exposition ->
            (match Obs.Prom.validate exposition with
             | Ok () -> ()
             | Error m -> Alcotest.failf "exposition invalid: %s" m);
            List.iter
              (fun family ->
                Alcotest.(check bool) (family ^ " present") true
                  (contains ~needle:family exposition))
              [
                "cgsim_pool_warm_hit_total";
                "cgsim_pool_outcome_total";
                "cgsim_serve_request_total";
                "cgsim_serve_connection_total";
              ]))

let test_drain_completes_inflight () =
  let path = temp_sock "drain" in
  let server =
    Serve.Server.create ~graphs:all_graphs ~domains:2 ~listen:(Serve.Addr.Unix_path path) ()
  in
  let serving = Domain.spawn (fun () -> Serve.Server.serve server) in
  let client = Serve.Client.connect ~retries:10 (Serve.Addr.Unix_path path) in
  let reps = 4 in
  let h = Apps.Harness.farrow in
  let inputs = List.map Cgsim.Io.elements (h.Apps.Harness.sources ~reps) in
  (* Pipeline a batch, wait until the reader has handed all of it to the
     pool, then stop the server with replies still pending: drain must
     deliver every one before the EOF.  (A request the reader only picks
     up after stop is refused with a structured shutting-down error
     instead — also not a drop — but this test wants the completion
     path; [served] counts a run only once it is submitted.) *)
  let ids = List.init 3 (fun _ -> Serve.Client.send_run client ~graph:"farrow" inputs) in
  let give_up = Unix.gettimeofday () +. 10.0 in
  while Serve.Server.served server < List.length ids && Unix.gettimeofday () < give_up do
    Unix.sleepf 0.001
  done;
  Serve.Server.stop server;
  let got =
    List.map
      (fun _ ->
        match Serve.Client.recv client with
        | Error m -> Alcotest.failf "in-flight reply dropped by drain: %s" m
        | Ok { W.p_id; p_body = W.Result { W.rp_outcome = W.Completed outputs; _ } } ->
          let primary = match outputs with o :: _ -> o | [] -> [] in
          (match h.Apps.Harness.check ~reps primary with
           | Ok () -> ()
           | Error m -> Alcotest.failf "drained output: %s" m);
          p_id
        | Ok { W.p_body; _ } ->
          Alcotest.failf "in-flight request not completed: %s"
            (match p_body with
             | W.Result r -> W.run_outcome_label r.W.rp_outcome
             | W.Error (c, _) -> W.error_code_label c
             | W.Metrics_text _ -> "metrics"
             | W.Pong -> "pong"))
      ids
  in
  Alcotest.(check (list int)) "every id answered" (List.sort compare ids)
    (List.sort compare got);
  (* After the last reply the server closes: clean EOF, not garbage. *)
  (match Serve.Client.recv client with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "reply after drain");
  Serve.Client.close client;
  Domain.join serving;
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists path)

let test_breaker_shed_and_version_mismatch () =
  let path = temp_sock "breaker" in
  let config =
    Cgsim.Run_config.(
      default |> with_breaker 1
      |> with_faults
           (Cgsim.Faults.plan [ Cgsim.Faults.raise_on ~kernel:"*" ~after:1 ~fires:(-1) () ]))
  in
  let server =
    Serve.Server.create ~config ~graphs:all_graphs ~domains:1
      ~listen:(Serve.Addr.Unix_path path) ()
  in
  let serving = Domain.spawn (fun () -> Serve.Server.serve server) in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.stop server;
      Domain.join serving)
    (fun () ->
      (* A peer still on the previous protocol gets a structured
         version-mismatch error, not a dropped connection. *)
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      W.write_frame fd "{\"proto\":\"cgx-serve/1\",\"id\":\"0\",\"type\":\"ping\"}";
      (match W.read_frame fd with
       | Error e -> Alcotest.failf "no reply to version skew: %s" (W.frame_error_message e)
       | Ok payload -> (
         match W.decode_reply payload with
         | Ok { W.p_body = W.Error (W.Version_mismatch, _); _ } -> ()
         | Ok _ -> Alcotest.fail "expected a version-mismatch error reply"
         | Error e -> Alcotest.failf "reply undecodable: %s" (W.decode_error_message e)));
      Unix.close fd;
      (* First request fails (the fault plan raises in every kernel),
         opening the threshold-1 breaker; the second is refused at the
         door: shed, zero attempts. *)
      let client = Serve.Client.connect ~retries:10 (Serve.Addr.Unix_path path) in
      Fun.protect ~finally:(fun () -> Serve.Client.close client) (fun () ->
          let h = Apps.Harness.bitonic in
          let inputs = List.map Cgsim.Io.elements (h.Apps.Harness.sources ~reps:1) in
          (match Serve.Client.run client ~graph:"bitonic" inputs with
           | Ok { W.rp_outcome = W.Failed _; rp_attempts = 1; _ } -> ()
           | Ok rp ->
             Alcotest.failf "expected failed/1 attempt, got %s/%d"
               (W.run_outcome_label rp.W.rp_outcome) rp.W.rp_attempts
           | Error m -> Alcotest.failf "first request: %s" m);
          match Serve.Client.run client ~graph:"bitonic" inputs with
          | Ok { W.rp_outcome = W.Shed; rp_attempts = 0; _ } -> ()
          | Ok rp ->
            Alcotest.failf "expected shed/0 attempts, got %s/%d"
              (W.run_outcome_label rp.W.rp_outcome) rp.W.rp_attempts
          | Error m -> Alcotest.failf "second request: %s" m))

(* The value of an unlabelled counter in a Prometheus exposition. *)
let prom_counter exposition name =
  List.find_map
    (fun line ->
      match String.split_on_char ' ' line with
      | [ n; v ] when String.equal n name -> float_of_string_opt v
      | _ -> None)
    (String.split_on_char '\n' exposition)

(* A peer that resets mid-frame kills only its own reader: the error is
   counted and named, and the daemon keeps serving other connections.
   TCP, because only a TCP reset (SO_LINGER 0, then close) makes the
   reader's read raise instead of seeing EOF. *)
let test_peer_reset_counted () =
  let server =
    Serve.Server.create ~graphs:all_graphs ~domains:1 ~listen:(Serve.Addr.Tcp ("127.0.0.1", 0)) ()
  in
  let addr = Serve.Server.addr server in
  let serving = Domain.spawn (fun () -> Serve.Server.serve server) in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.stop server;
      Domain.join serving)
    (fun () ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd (Serve.Addr.sockaddr addr);
      let half = W.frame (W.encode_request { W.q_id = 0; q_body = W.Ping }) in
      ignore (Unix.write_substring fd half 0 (String.length half / 2));
      Unix.setsockopt_optint fd Unix.SO_LINGER (Some 0);
      Unix.close fd;
      let client = Serve.Client.connect ~retries:10 addr in
      Fun.protect ~finally:(fun () -> Serve.Client.close client) (fun () ->
          let scrape () =
            match Serve.Client.metrics client with
            | Ok text -> prom_counter text "cgsim_serve_conn_error_total"
            | Error m -> Alcotest.failf "metrics: %s" m
          in
          let give_up = Unix.gettimeofday () +. 10.0 in
          let rec wait () =
            match scrape () with
            | Some n when n >= 1.0 || Unix.gettimeofday () > give_up -> n
            | _ ->
              Unix.sleepf 0.005;
              wait ()
          in
          Alcotest.(check (float 0.0)) "conn_error counted once" 1.0 (wait ());
          let h = Apps.Harness.bitonic in
          let inputs = List.map Cgsim.Io.elements (h.Apps.Harness.sources ~reps:1) in
          match Serve.Client.run client ~graph:"bitonic" inputs with
          | Ok { W.rp_outcome = W.Completed _; _ } -> ()
          | Ok rp -> Alcotest.failf "after the reset: %s" (W.run_outcome_label rp.W.rp_outcome)
          | Error m -> Alcotest.failf "after the reset: %s" m))

(* A per-request deadline is a run budget, not part of the compiled
   graph: requests that differ only in [rq_deadline_ms] share one warm
   cache entry, so a pool of [domains] builds at most [domains]
   instances however many distinct deadlines it serves. *)
let test_deadlines_stay_warm () =
  let path = temp_sock "deadline" in
  let domains = 2 and requests = 40 in
  let server =
    Serve.Server.create ~graphs:all_graphs ~domains ~listen:(Serve.Addr.Unix_path path) ()
  in
  let serving = Domain.spawn (fun () -> Serve.Server.serve server) in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.stop server;
      Domain.join serving)
    (fun () ->
      let client = Serve.Client.connect ~retries:10 (Serve.Addr.Unix_path path) in
      Fun.protect ~finally:(fun () -> Serve.Client.close client) (fun () ->
          let h = Apps.Harness.bitonic in
          let inputs = List.map Cgsim.Io.elements (h.Apps.Harness.sources ~reps:1) in
          for i = 1 to requests do
            let deadline_ms = 60_000.0 +. float_of_int i in
            match Serve.Client.run client ~deadline_ms ~graph:"bitonic" inputs with
            | Ok { W.rp_outcome = W.Completed _; _ } -> ()
            | Ok rp -> Alcotest.failf "request %d: %s" i (W.run_outcome_label rp.W.rp_outcome)
            | Error m -> Alcotest.failf "request %d: %s" i m
          done;
          let cold =
            match Serve.Client.metrics client with
            | Ok text -> Option.value (prom_counter text "cgsim_pool_cold_total") ~default:0.0
            | Error m -> Alcotest.failf "metrics: %s" m
          in
          Alcotest.(check bool)
            (Printf.sprintf "cold builds (%.0f) <= domains for %d distinct deadlines" cold
               requests)
            true
            (cold <= float_of_int domains)))

let () =
  Alcotest.run "serve"
    [
      ( "codec",
        [
          Alcotest.test_case "value round-trip is bit-exact" `Quick test_value_roundtrip;
          Alcotest.test_case "request round-trip" `Quick test_request_roundtrip;
          Alcotest.test_case "reply round-trip" `Quick test_reply_roundtrip;
          Alcotest.test_case "slot forms: F64, I64, tagged" `Quick test_slot_forms;
          Alcotest.test_case "packed decoder is strict" `Quick test_strict_packed_decoder;
          QCheck_alcotest.to_alcotest prop_roundtrip;
          QCheck_alcotest.to_alcotest prop_mutation;
        ] );
      ( "framing",
        [
          Alcotest.test_case "frame/unframe round-trip" `Quick test_frame_roundtrip;
          Alcotest.test_case "reply writer: long then short reply" `Quick test_reply_writer_reuse;
          Alcotest.test_case "truncated, oversized and garbage frames rejected" `Quick
            test_frame_rejection;
          Alcotest.test_case "deep nesting refused at the cap" `Quick test_deep_nesting_rejected;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "lifecycle: apps bit-identical, warm hit, metrics" `Quick
            test_daemon_lifecycle;
          Alcotest.test_case "stop drains in-flight pipelined requests" `Quick
            test_drain_completes_inflight;
          Alcotest.test_case "breaker shed at the door; version mismatch answered" `Quick
            test_breaker_shed_and_version_mismatch;
          Alcotest.test_case "peer reset counted as a connection error" `Quick
            test_peer_reset_counted;
          Alcotest.test_case "distinct per-request deadlines stay warm" `Quick
            test_deadlines_stay_warm;
        ] );
    ]
