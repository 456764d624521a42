(* Shared helpers: clock, exact sample statistics, peak RSS, a
   full-precision JSON writer, file lookup from the working directory,
   the host probe. *)

(* CLOCK_MONOTONIC in ns: [Obs.Clock] is gettimeofday-based, whose
   microsecond steps would read a sub-microsecond call (reset, submit)
   as 0. *)
let now_ns () = Int64.to_float (Monotonic_clock.now ())

let time f =
  let t0 = now_ns () in
  let x = f () in
  x, now_ns () -. t0

(* Growable sample buffer; statistics are exact order statistics over
   the recorded values (HDR buckets would quantize a median into the
   same reading on every run). *)
module Samples = struct
  type t = {
    mutable data : float array;
    mutable len : int;
  }

  let create () = { data = Array.make 1024 0.0; len = 0 }

  let add t v =
    if t.len = Array.length t.data then begin
      let bigger = Array.make (2 * t.len) 0.0 in
      Array.blit t.data 0 bigger 0 t.len;
      t.data <- bigger
    end;
    t.data.(t.len) <- v;
    t.len <- t.len + 1

  let to_array t = Array.sub t.data 0 t.len
end

(* Quantile with linear interpolation between closest ranks. *)
let quantile xs q =
  let n = Array.length xs in
  if n = 0 then 0.0
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    s.(lo) +. (frac *. (s.(hi) -. s.(lo)))
  end

let median xs = quantile xs 0.5

(* What an end-to-end metric reports of a run's per-round (or
   per-set-up) values: the median of the better half, which is the
   lower quartile of times and the upper quartile of rates.  The hosts
   this runs on have slow spells of several seconds in which everything
   runs up to half again slower; they cover a varying share of a run,
   and a plain median moves with that share. *)
let fast_time xs = quantile xs 0.25

let fast_rate xs = quantile xs 0.75

let mean xs =
  if Array.length xs = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let max_of xs = Array.fold_left Float.max 0.0 xs

(* VmHWM (peak resident set) of a process, in MB, from /proc. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> 0.0
  | text ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] -> (
          match String.split_on_char ' ' (String.trim v) with
          | kb :: _ -> float_of_string kb /. 1024.0
          | [] -> acc)
        | _ -> acc)
      0.0
      (String.split_on_char '\n' text)

(* JSON with every digit of every number: [Obs.Json.to_string] prints
   [%.6g], which truncates timings and trace timestamps.  The output
   parses back with [Obs.Json.of_string]. *)
let json_to_string (j : Obs.Json.t) =
  let b = Buffer.create 4096 in
  let rec go = function
    | Obs.Json.Num f ->
      if Float.is_integer f && Float.abs f < 1e15 then Buffer.add_string b (Printf.sprintf "%.0f" f)
      else if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.17g" f)
      else Buffer.add_string b "null"
    | Obs.Json.Arr items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          go v)
        items;
      Buffer.add_char b ']'
    | Obs.Json.Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b (Obs.Json.to_string (Obs.Json.Str k));
          Buffer.add_char b ':';
          go v)
        fields;
      Buffer.add_char b '}'
    | (Obs.Json.Null | Obs.Json.Bool _ | Obs.Json.Str _) as leaf ->
      Buffer.add_string b (Obs.Json.to_string leaf)
  in
  go j;
  Buffer.contents b

(* The benchmark runs from the repository root (or, under [dune
   runtest], from its build copy of [benchmark/]); repository files are
   found by walking up from the working directory. *)
let find_up rel =
  let rec go dir =
    let candidate = Filename.concat dir rel in
    if Sys.file_exists candidate then Some candidate
    else
      let parent = Filename.dirname dir in
      if String.equal parent dir then None else go parent
  in
  go (Sys.getcwd ())

(* A fixed integer loop that touches no code of the program and does not
   allocate: when it slows down, the host did.  In ms, about 10. *)
let host_probe_ms () =
  let x = ref 88172645463325252 in
  let (), dt =
    time (fun () ->
        for _ = 1 to 2_500_000 do
          x := !x lxor (!x lsl 13);
          x := !x lxor (!x lsr 7);
          x := !x lxor (!x lsl 17)
        done)
  in
  ignore (Sys.opaque_identity !x);
  dt /. 1e6

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Workloads.Prng.int_range rng ~lo:0 ~hi:i in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done
