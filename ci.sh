#!/bin/sh
# CI entry point: build, test, (optionally) check formatting, then smoke
# the profiling path with tracing enabled and validate its trace output.
set -eu

cd "$(dirname "$0")"

echo "== dune build =="
dune build

echo "== dune runtest =="
dune runtest

echo "== x86sim sim group, 20 runs =="
# Tqueue defers some writer wakes, so a lost wake shows as a rare hang
# (a deadline outcome) that one run can miss.  The sim group runs real
# graphs on one domain per kernel; 20 runs in a row make a rare loss
# fail CI.
for i in $(seq 1 20); do
  out=$(dune exec test/test_x86sim.exe -- test sim 2>&1) || {
    echo "$out" >&2
    echo "ci: test_x86sim's sim group failed on run $i" >&2
    exit 1
  }
done
echo "sim group passed 20 runs"

if command -v ocamlformat >/dev/null 2>&1; then
  echo "== dune fmt check =="
  dune build @fmt
else
  echo "== fmt check skipped (ocamlformat not installed) =="
fi

echo "== profile smoke (tracing on) =="
TRACE=$(mktemp -t ci-trace-XXXXXX.json)
MICRO_JSON=$(mktemp -t ci-micro-XXXXXX.json)
trap 'rm -f "$TRACE" "$MICRO_JSON"' EXIT
dune exec bench/main.exe -- profile --smoke --trace "$TRACE"

test -s "$TRACE" || { echo "ci: trace file is empty" >&2; exit 1; }
grep -q '"traceEvents"' "$TRACE" || { echo "ci: trace file has no traceEvents" >&2; exit 1; }
echo "trace OK: $(wc -c < "$TRACE") bytes"

echo "== micro smoke (block transfer, chain, warm and alloc rows, JSON output) =="
dune exec bench/main.exe -- micro --smoke --json "$MICRO_JSON"
test -s "$MICRO_JSON" || { echo "ci: micro JSON is empty" >&2; exit 1; }
# check-json re-parses with the strict Obs.Json parser and fails on
# malformed output, a missing schema marker, or a schema mismatch.
dune exec bench/main.exe -- check-json "$MICRO_JSON" --schema cgsim-bench-micro/7

echo "== graph lint (examples/cgc, JSON output) =="
LINT_JSON=$(mktemp -t ci-lint-XXXXXX.json)
trap 'rm -f "$TRACE" "$MICRO_JSON" "$LINT_JSON"' EXIT
for f in examples/cgc/*.cgc; do
  # Exit status: 0 clean/info, 1 warnings (tolerated), 2 errors (fail).
  rc=0
  dune exec bin/cgx.exe -- lint --json "$f" > "$LINT_JSON" || rc=$?
  if [ "$rc" -ge 2 ]; then
    echo "ci: $f has lint errors" >&2
    cat "$LINT_JSON" >&2
    exit 1
  fi
  dune exec bench/main.exe -- check-json "$LINT_JSON" --schema cgsim-lint/2
  echo "lint OK: $f (rc=$rc)"
done

echo "== fuzz smoke (lint-vs-runtime differential oracle, JSON output) =="
FUZZ_JSON=$(mktemp -t ci-fuzz-XXXXXX.json)
trap 'rm -f "$TRACE" "$MICRO_JSON" "$LINT_JSON" "$FUZZ_JSON"' EXIT
# ~50 seeded SDF graphs (clean + labelled defects): the linter's verdict
# must agree with actual cgsim/x86sim behaviour on every one; the bench
# exits nonzero on any disagreement.  Schema cgsim-bench-fuzz/1.
dune exec bench/main.exe -- fuzz --smoke --json "$FUZZ_JSON"
test -s "$FUZZ_JSON" || { echo "ci: fuzz JSON is empty" >&2; exit 1; }
dune exec bench/main.exe -- check-json "$FUZZ_JSON" --schema cgsim-bench-fuzz/1

echo "== loadtest smoke (open-loop Poisson arrivals + chaos, JSON + Prometheus output) =="
LOAD_JSON=$(mktemp -t ci-load-XXXXXX.json)
LOAD_PROM=$(mktemp -t ci-load-XXXXXX.prom)
trap 'rm -f "$TRACE" "$MICRO_JSON" "$LINT_JSON" "$FUZZ_JSON" "$LOAD_JSON" "$LOAD_PROM"' EXIT
# Open-loop arrivals against the pool under a transient-fault plan with
# retries; exits nonzero if nothing completed or chaos never forced a
# retry.  Schema cgsim-bench-load/2.
dune exec bench/main.exe -- loadtest --smoke --chaos --json "$LOAD_JSON" --metrics "$LOAD_PROM"
test -s "$LOAD_JSON" || { echo "ci: loadtest JSON is empty" >&2; exit 1; }
dune exec bench/main.exe -- check-json "$LOAD_JSON"
# check-prom validates the Prometheus text exposition with the strict
# Obs.Prom parser (TYPE lines, label syntax, bucket monotonicity).
test -s "$LOAD_PROM" || { echo "ci: loadtest exposition is empty" >&2; exit 1; }
dune exec bench/main.exe -- check-prom "$LOAD_PROM"

echo "== serve daemon smoke (cgx serve over a Unix socket, wire protocol cgx-serve/2) =="
SERVE_SOCK=$(mktemp -u -t ci-serve-XXXXXX.sock)
DAEMON_PROM=$(mktemp -t ci-daemon-XXXXXX.prom)
REMOTE_JSON=$(mktemp -t ci-remote-XXXXXX.json)
SERVE_PID=""
trap 'rm -f "$TRACE" "$MICRO_JSON" "$LINT_JSON" "$FUZZ_JSON" "$LOAD_JSON" "$LOAD_PROM" "$DAEMON_PROM" "$REMOTE_JSON" "$SERVE_SOCK"; [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true' EXIT
# Launch the daemon binary directly — not through dune exec — so the
# SIGTERM at the end reaches cgx itself and the drain path is what is
# actually tested.  Every built-in app round-trips through `cgx
# request`, which checks the served output against the golden reference
# and exits nonzero on any mismatch; the daemon's /metrics dump must
# validate with the strict Obs.Prom parser; the open-loop loadtest runs
# the same Poisson sweep remotely through the socket.
dune build bin/cgx.exe bench/main.exe
./_build/default/bin/cgx.exe serve --listen "unix:$SERVE_SOCK" --domains 2 &
SERVE_PID=$!
for app in bitonic farrow iir bilinear; do
  ./_build/default/bin/cgx.exe request --connect "unix:$SERVE_SOCK" --app "$app"
done
./_build/default/bin/cgx.exe request --connect "unix:$SERVE_SOCK" --metrics "$DAEMON_PROM"
test -s "$DAEMON_PROM" || { echo "ci: daemon exposition is empty" >&2; exit 1; }
dune exec bench/main.exe -- check-prom "$DAEMON_PROM"
./_build/default/bench/main.exe loadtest --smoke --remote "unix:$SERVE_SOCK" --json "$REMOTE_JSON"
dune exec bench/main.exe -- check-json "$REMOTE_JSON" --schema cgsim-bench-load/2
# Graceful drain: SIGTERM must complete in-flight work and exit 0.
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || { echo "ci: serve daemon did not drain cleanly on SIGTERM" >&2; exit 1; }
SERVE_PID=""
echo "serve daemon OK: clean SIGTERM drain"

echo "== cgx --metrics smoke (Prometheus exposition from the extractor CLI) =="
CGX_PROM=$(mktemp -t ci-cgx-XXXXXX.prom)
trap 'rm -f "$TRACE" "$MICRO_JSON" "$LINT_JSON" "$FUZZ_JSON" "$LOAD_JSON" "$LOAD_PROM" "$DAEMON_PROM" "$REMOTE_JSON" "$SERVE_SOCK" "$CGX_PROM"' EXIT
dune exec bin/cgx.exe -- simulate examples/cgc/bitonic.cgc --reps 4 --metrics "$CGX_PROM"
test -s "$CGX_PROM" || { echo "ci: cgx exposition is empty" >&2; exit 1; }
dune exec bench/main.exe -- check-prom "$CGX_PROM"

echo "== deprecated-shim gate =="
# The optional-argument bridges (instantiate_opts/run_opts/execute_opts)
# were removed; Run_config is the only entry point.  The grep stays as a
# regression gate so the names cannot creep back in.
if grep -rnE '(Runtime|Pool|Sim)\.(instantiate|execute|run)_opts' lib bin bench examples; then
  echo "ci: caller references a removed _opts shim (use Run_config)" >&2
  exit 1
fi
echo "no shim references"

echo "== one-serving-path gate =="
# Cgsim.Pool serves one way: one FIFO shared by every domain, and warm
# instances always.  The per-domain queues with stealing, the cold-only
# Run_config.warm switch and the `bench serve` harness that compared
# them were removed; warm-versus-fresh outputs and chaos recovery are
# asserted by test_robust.
if grep -rnE 'with_warm|Run_config\.warm|stolen|steals|Serve_bench|BENCH_serve' lib bin bench test; then
  echo "ci: caller references the removed stealing queues, warm switch or bench serve" >&2
  exit 1
fi
echo "no stealing queues, warm switch or bench serve"

echo "== one-data-path gate =="
# The block_io / spsc / unboxed switches and their element-loop and
# boxed-scalar second paths were removed: storage follows the dtype and
# ports always take the block transfers.
if grep -rnE 'with_block_io|with_spsc|with_unboxed|~unboxed|seal ~spsc' lib bin bench test; then
  echo "ci: caller references a removed data-path switch" >&2
  exit 1
fi
# Every queue takes the one broadcast path: the SPSC seal (and its lint
# CG-W302) was deleted because it did not pay.  Port interception is one
# access tap per port, applied by Port.tap_reader/tap_writer: the Hooks
# record, its per-interceptor wrappers and Run_config.hooks are gone.
if grep -rnE 'Hooks\.|wrap_reader|wrap_writer|around_body|with_hooks|compose_hooks|obs_hooks|Bqueue\.seal|is_spsc|CG-W302' lib bin bench test; then
  echo "ci: caller references the removed SPSC seal or Hooks wrappers" >&2
  exit 1
fi
echo "no data-path switch, SPSC seal or Hooks references"

echo "== one I/O path gate =="
# A source is a name and one immutable payload (floats, ints or boxed
# values), and both simulators move it with the same per-kind copies:
# cgsim's source and sink fibers run Io.feed and Io.drain, and x86sim's
# the queue core (Netq, under x86sim's Tqueue) pulls through Io.transfer
# and pushes through Io.emit on the kernels' own domains.  The one drain,
# read_upto, takes a payload kind like the block read and serves
# Io.drain.  The per-source pull closures, the constructors that had no
# caller and the allocating flat drains must not come back.
if grep -rnE 'source_pull_(block|floats|ints)|make_pull|Io\.(of_fun|repeat|counter|of_consumer)|with_(source|sink)_name|get_(floats|ints)_some' lib bin bench test examples; then
  echo "ci: caller references a removed source pull, Io constructor or allocating flat drain" >&2
  exit 1
fi
echo "no source pulls, removed Io constructors or allocating flat drains"

echo "== one flat accumulator gate =="
# The buffer sinks share one accumulator that copies each push into flat
# chunks tagged by kind and converts or boxes only when read.  The boxed
# cons list (reversed at read) and the typed sinks' doubling arrays were
# deleted and must not come back.
if grep -nE 'flat_buffer|List\.rev !acc' lib/cgsim/io.ml; then
  echo "ci: Io's buffer sinks keep a second accumulator (push into the chunked one)" >&2
  exit 1
fi
echo "one flat accumulator behind Io's buffer sinks"

echo "== no orphaned transfer forms gate =="
# Kernel ports read and write through Port's get/put and window forms
# only, and each queue exports the transfers some caller makes.  The
# typed Port codecs, put_window, the r_peek / r_available probes, the
# peeks and x86sim's drain forms (get_some, the flat _into drains) that
# lost their last caller, Bqueue.available that only tests read, and the
# graph-text reader that nothing loaded were deleted and must not come
# back.  Neither may the exports outside callers never used (printers,
# probes and constants each module keeps for itself).
if grep -rnE 'Port\.(Codec|read|write|put_window)\b|r_peek|r_available|Bqueue\.(peek|is_closed|available)\b|Tqueue\.(peek|available|get_some|get_floats_into|get_ints_into|total_put|is_poisoned)\b|read_some|pull_if_empty|Graph_text\.(of_string|dtype_of_string)|settings_of_tokens|of_compact' lib bin bench test examples; then
  echo "ci: caller references a deleted transfer form, port probe or graph-text reader" >&2
  exit 1
fi
# The queue has one block write, one block read and one drain that take
# a payload kind (Ring.floats, ints, lanes or values), and a port one
# r_read / w_write: the typed block forms, the port
# fields that carried them, the boxed Port.get_window and the ring's
# per-kind copies were deleted.
if grep -rnE '(Bqueue|Tqueue)\.(put_block|get_block|get_some|put_floats|put_ints|get_floats|get_ints|put_lanes|get_lanes|get_floats_into|get_ints_into)\b|r_get_(block|floats|ints|lanes)|w_put_(block|floats|ints|lanes)|Port\.get_window\b|Ring\.(push|read)_(floats|ints|lanes|values)' lib bin bench test examples; then
  echo "ci: caller references a deleted typed block form (pass a Ring kind to the one write or read)" >&2
  exit 1
fi
if grep -rnE 'Diagnostic\.severity_to_string|Faults\.action_to_string|Runtime\.failure_message|Serialized\.endpoint_display|Hazards\.fanout_threshold|Pool\.count_outcomes|Prom\.default_namespace|Flight\.(is_enabled|pp_entry|Wake)\b|Hdr\.record_n|Array_model\.pp_coord|Cfg\.ns_per_cycle|Sched\.(wake|parked_count|parked_names|stop_reason_to_string)\b' lib bin bench test examples; then
  echo "ci: caller references an export that was module-private in use" >&2
  exit 1
fi
echo "no orphaned transfer forms, port probes, graph-text reader or private exports"

echo "== one queue gate =="
# The broadcast queue is written once, in lib/cgsim/netq.ml, over a wait
# policy; Bqueue (fibers) and Tqueue (domains) only bind the policy.  So
# cursors are added, advanced and taken from, fibers park on a queue and
# domains wait on a condition only there.  The domain pool's job queue
# (pool.ml) and a daemon connection's input (server.ml) wait on their
# own conditions, not on a net, and sched.ml names Sched.park in its
# own error message.  The two bindings hold no chunk loop.
if grep -rnE 'Ring\.(add_cursor|advance|take)\b|Sched\.park\b|Condition\.wait\b' lib --include='*.ml' \
    | grep -vE '^lib/(cgsim/(netq|bqueue|pool|sched)|x86sim/tqueue|serve/server)\.ml:'; then
  echo "ci: a second queue implementation moves cursors or waits outside Netq and its two policies" >&2
  exit 1
fi
if grep -nE '\bwhile\b' lib/cgsim/bqueue.ml lib/x86sim/tqueue.ml; then
  echo "ci: a chunk loop in a wait policy binding (transfers live in Netq)" >&2
  exit 1
fi
echo "one queue implementation: Netq over the fiber and domain policies"

echo "== no fiber locals gate =="
# A kernel gets what its run hands it (aiesim's trace recorder) through
# its binding's context, as an AIE kernel gets everything as an
# argument.  The scheduler's fiber-local slot, its process-wide live
# count and the spawn option that set it were deleted.
if grep -rnE 'Sched\.local|live_locals|No_local|~local:' lib bin bench test examples; then
  echo "ci: fiber-local state is back (pass it in the kernel binding's context)" >&2
  exit 1
fi
echo "no fiber locals"

echo "== one ring storage kind gate =="
# Every ring stores flat: a Vector or Struct net is scalar lanes in
# bigarrays like a scalar net's, and Value.t exists only at the
# element and value-block edges.  The boxed storage kind was deleted,
# and bilinear and farrow move their aggregate nets through the lane
# forms, with no Value.field / Value.to_vec or boxed window read.
if grep -nwE 'Boxed' lib/cgsim/ring.ml; then
  echo "ci: Cgsim.Ring has a boxed storage kind again (store aggregates as lanes)" >&2
  exit 1
fi
if grep -nE 'Value\.(field|to_vec)|Port\.get_window\b' lib/apps/bilinear.ml lib/apps/farrow.ml; then
  echo "ci: bilinear or farrow reads its aggregate net as boxed values (use the lane forms)" >&2
  exit 1
fi
echo "one ring storage kind; bilinear and farrow move lanes"

echo "== thread-per-kernel gate =="
# x86sim runs one domain per kernel instance and nothing else: a reader
# that finds a source net empty pulls from the source, and a writer
# that finds a sink net full (or closes it) pushes into the sink.  The
# pump threads that ran cgsim's Io.feed / Io.drain were deleted.
if grep -rnE 'Io\.(feed|drain)' lib/x86sim; then
  echo "ci: x86sim runs an I/O pump (serve global I/O from the kernels' domains)" >&2
  exit 1
fi
echo "no I/O pumps in lib/x86sim"

echo "== intrinsics-only kernels gate =="
# Kernel bodies charge architectural costs only through Aie.Intrinsics,
# which emits each op's event with its slot count: a kernel that calls
# the Trace emitters by hand can drift from the intrinsic it imitates.
# Iteration marks and pipelined-loop regions stay kernel-level.
if grep -rnE 'Aie\.Trace\.(vop|sop|load|store|emit)' lib/apps; then
  echo "ci: a kernel under lib/apps emits trace costs by hand (use Aie.Intrinsics)" >&2
  exit 1
fi
echo "no hand-emitted costs in lib/apps"

echo "== allocation-free lane ops gate =="
# Every Aie.Vec / Aie.Intrinsics op writes into a caller-owned [~dst]
# (an AIE kernel computes into a fixed vector register file), so kernel
# bodies allocate their lanes once, not per call.  An array allocation
# in either file is a result array creeping back; fsum reduces in the
# caller's lanes too.
if grep -nE 'Array\.(make|create_float|init|map|sub|copy|append)' lib/aie/vec.ml lib/aie/intrinsics.ml; then
  echo "ci: an AIE lane op allocates an array (write into the caller's dst)" >&2
  exit 1
fi
echo "no array allocation in lib/aie/vec.ml or lib/aie/intrinsics.ml"

echo "== fp32 lanes in C gate =="
# Aie.Vec's fp32 lane loops run in lib/aie/vec_stubs.c, one call per op
# instead of an OCaml loop step and a rounding call per lane.  The file
# is built with -ffp-contract=off: without it GCC may fuse acc + a*b
# into one FMA, whose single rounding differs from today's results.
if grep -n round_f32 lib/aie/vec.ml; then
  echo "ci: lib/aie/vec.ml rounds fp32 lanes in OCaml (run the loop in vec_stubs.c)" >&2
  exit 1
fi
if ! grep -q -- '-ffp-contract=off' lib/aie/dune; then
  echo "ci: lib/aie/dune builds vec_stubs.c without -ffp-contract=off" >&2
  exit 1
fi
echo "fp32 lane loops in C, built without FMA contraction"

echo "== GC-settings gate =="
# Library code must not mutate process-wide GC state: a Gc.set reaches
# only the calling domain's minor heap (domains spawned later start at
# the default size) and leaks into every other user of the process.
if grep -rn 'Gc\.set' lib; then
  echo "ci: library code calls Gc.set" >&2
  exit 1
fi
echo "no Gc.set in lib/"

echo "== environment-read gate =="
# Library code takes its settings as arguments.  An environment read
# under lib/ is an undocumented option, and on a hot path a per-call
# cost (aiesim's replay once read AIESIM_DEBUG on every engine step).
if grep -rn 'getenv' lib; then
  echo "ci: library code reads the environment (pass the setting as an argument)" >&2
  exit 1
fi
echo "no environment reads in lib/"

echo "== no kernel registry gate =="
# A serialized graph holds each instance's Kernel.t, and the CGC front
# end resolves kernel names against the twins its caller passes.  The
# process-wide registry, the runtime's name lookup and the instance's
# name key were deleted: which kernels a graph runs must not depend on
# which libraries a binary links.
if grep -rnE '\bRegistry\.|compiled_kernel|Serialized\.key\b' lib bin bench examples test; then
  echo "ci: caller references the deleted kernel registry (hold the Kernel.t, pass twins)" >&2
  exit 1
fi
echo "no kernel registry"

echo "== one home for graph invariants gate =="
# Serialized.validate_diags is a graph's one structural check, run by
# Builder.freeze and by Runtime.compile, which adds only the consumer
# check a run needs (CG-E008).  The builder's own settings, dtype and
# dangling-connector checks, the runtime's wiring check and the port
# dtype check duplicated it and were deleted; they must not come back.
if grep -rn 'Settings\.validate' lib | grep -vE '^lib/cgsim/(settings|serialized)\.ml:' \
    || grep -rnE 'check_wiring|check_dtype|dangling connector' lib; then
  echo "ci: a graph invariant is checked outside Serialized.validate_diags" >&2
  exit 1
fi
echo "one home for graph invariants"

echo "== top-level mutable state gate =="
# Data reaches the runtime through explicit arguments, not through
# process-wide refs.  Every top-level binding under lib/ that holds
# mutable state (a ref, Hashtbl, Atomic, Mutex, Queue or domain-local
# key, on its `let` line or the line after) is listed here with its
# reason.  An unlisted binding fails the gate, and so does a listed one
# that no longer exists.
ALLOWED_STATE=$(mktemp -t ci-state-allowed-XXXXXX)
FOUND_STATE=$(mktemp -t ci-state-found-XXXXXX)
trap 'rm -f "$TRACE" "$MICRO_JSON" "$LINT_JSON" "$FUZZ_JSON" "$LOAD_JSON" "$LOAD_PROM" "$DAEMON_PROM" "$REMOTE_JSON" "$SERVE_SOCK" "$CGX_PROM" "$ALLOWED_STATE" "$FOUND_STATE"' EXIT
sed -e 's/ *#.*//' -e '/^$/d' > "$ALLOWED_STATE" <<'EOF_STATE'
lib/cgsim/builder.ml next_builder_id # unique builder ids, so nets of two builders cannot be mixed
lib/cgsim/sched.ml current_key       # domain-local: the fiber running on this domain
lib/obs/trace.ml on                  # the observability session switch: one load and a branch per instrumented site
lib/obs/trace.ml active              # the observability session that switch guards
lib/obs/trace.ml label_key           # domain-local: the thread label of trace events
lib/obs/clock.ml last                # the monotonic clock's high-water mark
lib/obs/flight.ml ring_key           # domain-local: this domain's flight-recorder ring
lib/obs/flight.ml enabled            # the always-on flight recorder's off switch, for overhead A/B runs
lib/apps/bilinear.ml image_lock      # serializes the first force of the lazy test image across domains
lib/workloads/sdf_gen.ml kernel_cache # generated kernels, one definition per name, as a graph needs (CG-E007)
EOF_STATE
find lib -name '*.ml' | sort | xargs awk '
  function check(text) {
    if (text ~ /^let [a-z_][A-Za-z0-9_'"'"']*( *:[^=]*)? *= *(ref[ (]|Hashtbl\.create|Atomic\.make|Mutex\.create|Queue\.create|Domain\.DLS\.new_key)/) {
      split(text, w, /[ :=]+/);
      print FILENAME " " w[2];
      return 1
    }
    return 0
  }
  FNR == 1 { pending = "" }
  {
    if (pending != "") check(pending " " $0);
    pending = "";
    if ($0 ~ /^let / && !check($0)) pending = $0
  }' | sort -u > "$FOUND_STATE"
UNLISTED=$(cut -d' ' -f1,2 "$ALLOWED_STATE" | sort -u | comm -13 - "$FOUND_STATE")
STALE=$(cut -d' ' -f1,2 "$ALLOWED_STATE" | sort -u | comm -23 - "$FOUND_STATE")
if [ -n "$UNLISTED" ]; then
  echo "ci: top-level mutable state not on the allowed list (add it with a reason, or pass it as an argument):" >&2
  echo "$UNLISTED" >&2
  exit 1
fi
if [ -n "$STALE" ]; then
  echo "ci: allowed-state entries that no longer exist (delete them):" >&2
  echo "$STALE" >&2
  exit 1
fi
echo "top-level mutable state: $(wc -l < "$FOUND_STATE") bindings, all listed"

echo "== analysis-in-compile gate =="
# Lint and capacity synthesis are part of Runtime.compile: the
# link-time hooks that used to install them into global refs, and the
# separate analysis / sdf_oracle libraries they forced, must not return.
if grep -rnE 'set_lint_hook|set_fusion_hook|set_capacity_hook|install_runtime_hook|linkall' lib bin bench test; then
  echo "ci: caller references a removed analysis hook or -linkall" >&2
  exit 1
fi
# The runtime has one execution mode, one fiber per kernel and one
# queue per net: operator fusion and multi-request batching were
# removed, and their entry points must not come back.
if grep -rnE 'Fused\.|Fusion\.|with_fuse|with_batch|execute_batch|batching_safe|CG-I103' lib bin bench test; then
  echo "ci: caller references removed operator fusion or request batching" >&2
  exit 1
fi
if find . -path ./_build -prune -o -name dune -print | xargs grep -nwE 'analysis|sdf_oracle' | grep -v ':[0-9]*: *;'; then
  echo "ci: a dune file still names the analysis or sdf_oracle library" >&2
  exit 1
fi
echo "no analysis hooks, split libraries, fusion or batching"

echo "== ci passed =="
