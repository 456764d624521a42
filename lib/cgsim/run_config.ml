(* The single knob record for every execution path.

   Before this existed, Runtime/Pool/X86sim each grew their own sprawl of
   optional arguments (?queue_capacity ?lint ...) and every new
   capability (deadlines, retries, faults) would have tripled the
   sprawl.  A Run_config is built once — [default |> with_*] — and
   threaded through instantiate/execute/Pool.run/X86sim.Sim.run. *)

type lint_level =
  [ `Off
  | `Warn
  | `Error
  ]

type t = {
  queue_capacity : int option;
  lint : lint_level;
  deadline_ns : float option;
  max_steps : int option;
  retries : int;
  retry_base_ns : float;
  retry_cap_ns : float;
  breaker_threshold : int option;
  faults : Faults.t option;
  seed : int;
  warm : bool;
  auto_capacity : bool;
}

let default =
  {
    queue_capacity = None;
    lint = `Warn;
    deadline_ns = None;
    max_steps = None;
    retries = 0;
    retry_base_ns = 1e6 (* 1 ms *);
    retry_cap_ns = 1e8 (* 100 ms *);
    breaker_threshold = None;
    faults = None;
    seed = 1;
    warm = true;
    auto_capacity = false;
  }

let with_queue_capacity c t = { t with queue_capacity = Some c }
let with_lint lint t = { t with lint }
let with_deadline_ns d t = { t with deadline_ns = Some d }
let with_deadline_ms d t = { t with deadline_ns = Some (d *. 1e6) }
let with_max_steps n t = { t with max_steps = Some n }
let with_retries n t = { t with retries = n }

let with_backoff ?base_ns ?cap_ns t =
  {
    t with
    retry_base_ns = Option.value base_ns ~default:t.retry_base_ns;
    retry_cap_ns = Option.value cap_ns ~default:t.retry_cap_ns;
  }

let with_breaker threshold t = { t with breaker_threshold = Some threshold }
let with_faults faults t = { t with faults = Some faults }
let with_seed seed t = { t with seed }
let with_warm warm t = { t with warm }

let with_auto_capacity auto_capacity t = { t with auto_capacity }
