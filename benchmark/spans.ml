(* In-memory spans recorded by the benchmark around its calls into each
   layer's public functions.  Nothing inside the program is traced: a
   span covers one call (or one request) as seen from the caller.

   Spans are recorded only while [enabled]; otherwise [wrap] is just the
   call.  Records are appended under a mutex (the serve receiver and
   pool completion callbacks run on other domains) and written out at
   exit as Chrome trace-event JSON. *)

type span = {
  sid : int;
  parent : int;  (* -1: root *)
  req : int;  (* request id shared by the spans of one request; -1: none *)
  name : string;
  t0 : float;
  t1 : float;
  tid : int;
}

let enabled = ref false

let lock = Mutex.create ()

let recorded : span list ref = ref []

let next_sid = Atomic.make 0

let fresh () = Atomic.fetch_and_add next_sid 1

(* Request ids are process-wide, so no two requests of one trace share
   one.  [requests n] reserves [n] consecutive ids and returns the first. *)
let next_req = Atomic.make 0

let requests n = Atomic.fetch_and_add next_req n

let reset () =
  Mutex.protect lock (fun () -> recorded := []);
  Atomic.set next_sid 0;
  Atomic.set next_req 0

(* [record] with a caller-allocated [sid], for parents whose children
   are recorded before they end. *)
let record ?sid ?(parent = -1) ?(req = -1) name ~t0 ~t1 =
  if !enabled then begin
    let sid = match sid with Some s -> s | None -> fresh () in
    let s = { sid; parent; req; name; t0; t1; tid = (Domain.self () :> int) } in
    Mutex.protect lock (fun () -> recorded := s :: !recorded)
  end

let wrap ?parent ?req name f =
  if not !enabled then f ()
  else begin
    let t0 = Util.now_ns () in
    let x = f () in
    record ?parent ?req name ~t0 ~t1:(Util.now_ns ());
    x
  end

let all () = Mutex.protect lock (fun () -> List.rev !recorded)

let durations name =
  List.filter_map (fun s -> if String.equal s.name name then Some (s.t1 -. s.t0) else None) (all ())
  |> Array.of_list

(* Self time: a span's duration minus the part its children cover
   (children never overlap one another in the benchmark's own spans). *)
let self_ns_by_name () =
  let spans = all () in
  let child_ns = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let prev = Option.value (Hashtbl.find_opt child_ns s.parent) ~default:0.0 in
        Hashtbl.replace child_ns s.parent (prev +. (s.t1 -. s.t0)))
    spans;
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let children = Option.value (Hashtbl.find_opt child_ns s.sid) ~default:0.0 in
      let self = Float.max 0.0 (s.t1 -. s.t0 -. children) in
      let n, total = Option.value (Hashtbl.find_opt by_name s.name) ~default:(0, 0.0) in
      Hashtbl.replace by_name s.name (n + 1, total +. self))
    spans;
  Hashtbl.fold (fun name (n, total) acc -> (name, n, total) :: acc) by_name []
  |> List.sort compare

let chrome_json () =
  let spans = all () in
  let origin = List.fold_left (fun acc s -> Float.min acc s.t0) Float.infinity spans in
  let event s =
    Obs.Json.Obj
      [
        "name", Obs.Json.Str s.name;
        "cat", Obs.Json.Str (List.hd (String.split_on_char '.' s.name));
        "ph", Obs.Json.Str "X";
        "ts", Obs.Json.Num ((s.t0 -. origin) /. 1e3);
        "dur", Obs.Json.Num ((s.t1 -. s.t0) /. 1e3);
        "pid", Obs.Json.Num 1.0;
        "tid", Obs.Json.Num (float_of_int s.tid);
        ( "args",
          Obs.Json.Obj
            [
              "sid", Obs.Json.Num (float_of_int s.sid);
              "parent", Obs.Json.Num (float_of_int s.parent);
              "id", Obs.Json.Num (float_of_int s.req);
            ] );
      ]
  in
  Util.json_to_string
    (Obs.Json.Obj
       [ "traceEvents", Obs.Json.Arr (List.map event spans); "displayTimeUnit", Obs.Json.Str "ns" ])
