#!/usr/bin/env bash
# Local CI gate: formatting, lints, release build, full test suite, perf
# baseline smokes, CLI smokes and short runs of the benchmark's four
# workloads. Run from the repo root; every step must pass. See README.md
# ("Install & build").
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> cargo test"
cargo test --workspace -q

echo "==> criterion benches compile"
cargo bench --workspace --no-run

echo "==> perf baseline (smoke)"
cargo run --release -p ssmdvfs-bench --bin perf_baseline -- --smoke

echo "==> train/RFE perf baseline (smoke, JSON well-formed, parallel SGD identical)"
cargo run --release -p ssmdvfs-bench --bin perf_baseline -- --smoke --train
python3 - <<'EOF'
import json
b = json.load(open("target/ssmdvfs-artifacts/BENCH_train.json"))
for key in ("epochs_per_sec", "parallel_epochs_per_sec", "train_speedup",
            "rfe_serial_secs", "rfe_parallel_secs"):
    assert b[key] > 0, (key, b)
assert b["smoke"] is True, b
assert b["parallel_identical"] is True, "parallel SGD diverged from serial"
assert b["grad_shards_per_batch"] > 1, b
# The >=1.3x speedup gate only means something when the container actually
# has cores to parallelize over (see the 1-core caveat in
# docs/performance.md).
if b["workers"] >= 4:
    assert b["train_speedup"] >= 1.3, \
        f"parallel SGD must be >=1.3x at {b['train_jobs']} jobs: {b}"
print(f"train baseline: {b['epochs_per_sec']:.0f} epochs/s serial, "
      f"{b['parallel_epochs_per_sec']:.0f} at {b['train_jobs']} jobs "
      f"({b['train_speedup']:.2f}x, {b['grad_shards_per_batch']} shards/batch, "
      f"identical), RFE {b['rfe_serial_secs']:.2f}s -> "
      f"{b['rfe_parallel_secs']:.2f}s at {b['rfe_jobs']} workers")
EOF

echo "==> decide perf baseline (smoke, plan beats reference oracle, decisions identical)"
cargo run --release -p ssmdvfs-bench --bin perf_baseline -- --smoke --decide
python3 - <<'EOF'
import json
b = json.load(open("target/ssmdvfs-artifacts/BENCH_decide.json"))
for key in ("kernel_int8_ns",
            "reference_decision_ns", "plan_decision_ns", "plan_quantized_ns",
            "plan_memo_hit_ns", "memo_hit_rate"):
    assert b[key] > 0, (key, b)
assert b["smoke"] is True, b
assert b["decisions_identical"] is True, "plan/memo/reference decisions diverged"
assert b["plan_decision_ns"] < b["reference_decision_ns"], \
    f"fused plan must beat the allocating reference oracle: {b}"
assert b["plan_memo_hit_ns"] < b["plan_decision_ns"], b
assert b["memo_hits"] > 0, "phase-structured replay produced no memo hits"
print(f"decide baseline: int8 kernel {b['kernel_int8_ns']:.0f} ns; "
      f"decision {b['reference_decision_ns']:.0f} ns reference -> "
      f"{b['plan_decision_ns']:.0f} ns plan, {b['plan_memo_hit_ns']:.0f} ns "
      f"memo hit ({b['memo_hit_rate']*100:.1f}% hit rate, identical)")
EOF

echo "==> no stray print macros in library crates"
# Library code logs through obs; println!/eprintln! are reserved for the
# CLI binary and bench bin/ entry points. Comment lines are ignored.
if grep -rn --include='*.rs' -E '(println!|eprintln!)' crates/*/src \
    | grep -v '/bin/' \
    | grep -v 'crates/cli/src/main.rs' \
    | grep -vE ':[0-9]+:\s*(//|///|//!)'; then
  echo "error: stray println!/eprintln! in library code (use obs log macros)" >&2
  exit 1
fi

echo "==> observability smoke (metrics + Chrome trace parse as JSON)"
OBS_TMP="$(mktemp -d)"
trap 'rm -rf "$OBS_TMP"' EXIT
cargo run --release -p ssmdvfs-cli --bin ssmdvfs -- datagen \
  --out "$OBS_TMP/data.json" --benchmarks sgemm --scale 0.05 \
  --clusters 2 --jobs 2 \
  --metrics-out "$OBS_TMP/metrics.json" --trace-out "$OBS_TMP/trace.json"
python3 - "$OBS_TMP" <<'EOF'
import json, sys, os
tmp = sys.argv[1]
metrics = json.load(open(os.path.join(tmp, "metrics.json")))
assert "datagen.replays" in metrics["counters"], metrics
trace = json.load(open(os.path.join(tmp, "trace.json")))
assert isinstance(trace["traceEvents"], list) and trace["traceEvents"], trace
print(f"metrics: {len(metrics['counters'])} counters; "
      f"trace: {len(trace['traceEvents'])} events")
EOF

SSMDVFS_BIN=target/release/ssmdvfs

echo "==> kill-and-resume smoke (resumed dataset is byte-identical)"
# Reference: one uninterrupted run. Then the same sweep journaled, killed
# with SIGKILL mid-flight, and resumed from the journal; the resumed
# dataset must match the reference byte for byte. If the journaled run
# happens to finish before the kill lands, resume still has to reproduce
# the identical bytes, so the step is robust to timing.
"$SSMDVFS_BIN" datagen --out "$OBS_TMP/ref.json" \
  --benchmarks sgemm,lbm --scale 0.1 --clusters 2 --jobs 2 --log-level warn
: > "$OBS_TMP/ck.jsonl"
"$SSMDVFS_BIN" datagen --out "$OBS_TMP/killed.json" \
  --benchmarks sgemm,lbm --scale 0.1 --clusters 2 --jobs 2 --log-level warn \
  --checkpoint "$OBS_TMP/ck.jsonl" &
KILL_PID=$!
sleep 1
kill -9 "$KILL_PID" 2>/dev/null || true
wait "$KILL_PID" 2>/dev/null || true
echo "journal lines at kill: $(wc -l < "$OBS_TMP/ck.jsonl")"
"$SSMDVFS_BIN" datagen --out "$OBS_TMP/resumed.json" \
  --benchmarks sgemm,lbm --scale 0.1 --clusters 2 --jobs 2 --log-level warn \
  --resume "$OBS_TMP/ck.jsonl"
cmp "$OBS_TMP/ref.json" "$OBS_TMP/resumed.json"
echo "resumed dataset identical to uninterrupted run"

echo "==> replay-cache determinism smoke (warm rerun hits cache, bytes identical)"
# Cold run populates the cache; the warm rerun (different worker count on
# purpose) must satisfy every replay from the cache and still produce
# byte-identical dataset output. `inspect --metrics` surfaces the counters.
"$SSMDVFS_BIN" datagen --out "$OBS_TMP/cache-cold.json" \
  --benchmarks sgemm --scale 0.05 --clusters 2 --jobs 2 --log-level warn \
  --replay-cache "$OBS_TMP/replay-cache.json" \
  --metrics-out "$OBS_TMP/cache-cold-metrics.json"
"$SSMDVFS_BIN" datagen --out "$OBS_TMP/cache-warm.json" \
  --benchmarks sgemm --scale 0.05 --clusters 2 --jobs 4 --log-level warn \
  --replay-cache "$OBS_TMP/replay-cache.json" \
  --metrics-out "$OBS_TMP/cache-warm-metrics.json"
cmp "$OBS_TMP/cache-cold.json" "$OBS_TMP/cache-warm.json"
"$SSMDVFS_BIN" inspect --metrics "$OBS_TMP/cache-warm-metrics.json" \
  | tee "$OBS_TMP/cache-inspect.log"
grep -q "cache hits" "$OBS_TMP/cache-inspect.log"

echo "==> fleet smoke (batched serving drives a small fleet, 0 panics)"
# A tiny fleet through the flat-combining decision service; the metrics
# snapshot must surface the serve plane, including the deadline-miss
# counter pre-registered at zero.
"$SSMDVFS_BIN" fleet --gpus 3 --max-batch 4 --shards 1 --jobs 2 \
  --clusters 2 --scale 0.02 --horizon-us 300 --log-level warn \
  --metrics-out "$OBS_TMP/fleet-metrics.json" | tee "$OBS_TMP/fleet.log"
grep -q "misses    : 0 past deadline" "$OBS_TMP/fleet.log"
python3 - "$OBS_TMP" <<'EOF'
import json, sys, os
m = json.load(open(os.path.join(sys.argv[1], "fleet-metrics.json")))
assert "serve.deadline_misses" in m["counters"], sorted(m["counters"])
assert m["counters"]["serve.deadline_misses"] == 0, m["counters"]
assert any(h.startswith("serve.batch_size") for h in m["histograms"]), m
assert any(h.startswith("serve.decision_latency_us") for h in m["histograms"]), m
decided = m["counters"].get("decide.memo_hits", 0) + m["counters"].get("decide.memo_misses", 0)
assert decided > 0, ("no decide.* memo counters from the plan", sorted(m["counters"]))
assert any(h.startswith("decide.plan_latency_ns") for h in m["histograms"]), m
print(f"fleet metrics: serve.deadline_misses=0, batch/latency histograms present, "
      f"{decided} plan decisions counted")
EOF
"$SSMDVFS_BIN" inspect --metrics "$OBS_TMP/fleet-metrics.json" \
  | tee "$OBS_TMP/fleet-inspect.log"
grep -q "memo hits" "$OBS_TMP/fleet-inspect.log"
grep -q "plan decisions" "$OBS_TMP/fleet-inspect.log"
python3 - "$OBS_TMP" <<'EOF'
import json, sys, os
tmp = sys.argv[1]
cold = json.load(open(os.path.join(tmp, "cache-cold-metrics.json")))["counters"]
warm = json.load(open(os.path.join(tmp, "cache-warm-metrics.json")))["counters"]
assert cold.get("sim.cache_hits", 0) == 0, cold
assert cold["sim.cache_misses"] > 0, cold
assert warm["sim.cache_hits"] > 0, warm
assert warm.get("sim.cache_misses", 0) == 0, warm
print(f"replay cache: {cold['sim.cache_misses']} misses cold, "
      f"{warm['sim.cache_hits']} hits warm; dataset bytes identical")
EOF

echo "==> benchmark workloads (all four, every check ok, seed-7 paper numbers pinned)"
# Short runs of the repo benchmark's four workloads. bench_e2e exits 1 when
# any `check` fails: a pipeline pass that fails an output check or differs
# from the first pass, a replayed decision that differs from the recording,
# an answer that falls back or differs from a sequential plan replay, an
# unanswered request, or an unfinished fleet GPU. The seed-7 pipeline must
# also print the paper numbers below digit for digit: any change to them is
# a declared behaviour change.
cargo build --offline --release --manifest-path bench_e2e/Cargo.toml
BENCH_E2E=bench_e2e/target/release/bench_e2e
"$BENCH_E2E" --workload paper-pipeline --seed 7 --seconds 2 --trace 0 \
  | tee "$OBS_TMP/paper-pipeline.log"
grep -qxF 'quality: accuracy 0.7310606060606061  calibrator MAPE 2.7986321803497387%  EDP 0.8264543708122039 full / 0.8131783633926426 compressed  8 preset violations  RFE ["compute_instr_ratio", "occupancy", "mem_stall_frac", "l1_read_access", "power_total_w"]' \
  "$OBS_TMP/paper-pipeline.log"
for workload in decide-replay serve-load fleet; do
  "$BENCH_E2E" --workload "$workload" --seed 1 --seconds 2 --trace 0
done

echo "==> train-determinism smoke (--jobs 1 and --jobs 4 models byte-identical)"
# The sharded-gradient SGD engine must produce the same serialized model at
# any worker count; the metrics snapshot must surface the new training
# counters (grad shards, parallel batches, batch-latency histogram).
"$SSMDVFS_BIN" train --dataset "$OBS_TMP/data.json" \
  --out "$OBS_TMP/model-j1.json" --epochs 6 --jobs 1 --log-level warn \
  --metrics-out "$OBS_TMP/train-j1-metrics.json"
"$SSMDVFS_BIN" train --dataset "$OBS_TMP/data.json" \
  --out "$OBS_TMP/model-j4.json" --epochs 6 --jobs 4 --log-level warn \
  --metrics-out "$OBS_TMP/train-j4-metrics.json"
cmp "$OBS_TMP/model-j1.json" "$OBS_TMP/model-j4.json"
echo "trained models identical at --jobs 1 and --jobs 4"
python3 - "$OBS_TMP" <<'EOF'
import json, sys, os
tmp = sys.argv[1]
j1 = json.load(open(os.path.join(tmp, "train-j1-metrics.json")))
j4 = json.load(open(os.path.join(tmp, "train-j4-metrics.json")))
for m, jobs in ((j1, 1), (j4, 4)):
    # 6 epochs x 2 heads; the default patience (25) never stops 6 epochs
    # early, so a second count of the same epochs would read 24.
    assert m["counters"]["train.epochs"] == 12, (jobs, m["counters"])
    # Each layer has one metric prefix: tinynn counts under train.*.
    stray = [k for kind in ("counters", "gauges", "histograms")
             for k in m[kind] if k.startswith("tinynn.")]
    assert not stray, (jobs, stray)
    assert m["counters"]["train.grad_shards"] > 0, (jobs, m["counters"])
    assert "train.parallel_batches" in m["counters"], (jobs, sorted(m["counters"]))
    assert any(h.startswith("train.batch_latency_us") for h in m["histograms"]), \
        (jobs, sorted(m["histograms"]))
assert j1["counters"]["train.parallel_batches"] == 0, j1["counters"]
assert j4["counters"]["train.parallel_batches"] > 0, j4["counters"]
assert j1["counters"]["train.grad_shards"] == j4["counters"]["train.grad_shards"], \
    (j1["counters"], j4["counters"])
print(f"train metrics: 12 epochs at 1 and 4 jobs, "
      f"{j4['counters']['train.grad_shards']} grad shards "
      f"(same at 1 and 4 jobs), {j4['counters']['train.parallel_batches']} "
      f"parallel batches at 4 jobs, latency histogram present")
EOF

echo "==> fault-injection smoke (quarantine survives an injected panic)"
# Arm job #0 to panic more times than the retry budget: the sweep must
# still complete, write a dataset, and print a non-empty fault report
# naming the dropped unit.
SSMDVFS_FAILPOINTS="datagen.replay=0x99" "$SSMDVFS_BIN" datagen \
  --out "$OBS_TMP/faulted.json" --benchmarks sgemm --scale 0.05 \
  --clusters 2 --jobs 2 --log-level warn --quarantine --max-retries 1 \
  | tee "$OBS_TMP/fault.log"
test -s "$OBS_TMP/faulted.json"
grep -q "fault report: .* 1 dropped units" "$OBS_TMP/fault.log"
grep -q "failpoint datagen.replay#0" "$OBS_TMP/fault.log"

echo "==> live telemetry smoke (exporter scraped mid-run, watch renders rates)"
# A datagen run serves /metrics on an ephemeral port and lingers briefly
# after finishing so the scrape can never race completion. The exporter
# logs its bound address to stderr; the scrape checks Prometheus text
# exposition validity and the presence of the counters the SLO gates key
# on (pre-registered, so they appear even at zero).
"$SSMDVFS_BIN" datagen --out "$OBS_TMP/live.json" \
  --benchmarks sgemm --scale 0.05 --clusters 2 --jobs 2 \
  --replay-cache "$OBS_TMP/replay-cache.json" \
  --serve-metrics 127.0.0.1:0 --serve-linger 20 \
  2> "$OBS_TMP/live.stderr" &
LIVE_PID=$!
METRICS_ADDR=""
for _ in $(seq 1 100); do
  METRICS_ADDR="$(sed -n 's/.*serving metrics on \([0-9.:]*\).*/\1/p' \
    "$OBS_TMP/live.stderr" | head -n1)"
  [ -n "$METRICS_ADDR" ] && break
  sleep 0.1
done
test -n "$METRICS_ADDR" || { cat "$OBS_TMP/live.stderr"; exit 1; }
echo "exporter at $METRICS_ADDR"
python3 - "$METRICS_ADDR" "$OBS_TMP" <<'EOF'
import sys, urllib.request
addr, tmp = sys.argv[1], sys.argv[2]
health = urllib.request.urlopen(f"http://{addr}/healthz", timeout=10).read().decode()
assert "ok" in health, health
text = urllib.request.urlopen(f"http://{addr}/metrics", timeout=10).read().decode()
open(f"{tmp}/metrics.prom", "w").write(text)
families = set()
for line in text.splitlines():
    if line.startswith("# TYPE "):
        name, kind = line.split()[2:4]
        assert kind in ("counter", "gauge", "histogram"), line
        families.add(name)
    elif line and not line.startswith("#"):
        sample = line.split()
        assert len(sample) == 2, line
        float(sample[1])  # every sample value must parse
for required in ("sim_cache_hits", "train_epochs", "exec_quarantine_dropped"):
    assert required in families, (required, sorted(families))
print(f"scraped {len(families)} metric families, required counters present")
EOF
"$SSMDVFS_BIN" watch "$METRICS_ADDR" | tee "$OBS_TMP/watch.log"
grep -q "cache hit ratio" "$OBS_TMP/watch.log"
wait "$LIVE_PID"
cmp "$OBS_TMP/live.json" "$OBS_TMP/cache-cold.json"
echo "live-scraped dataset identical to unobserved run"

echo "==> phase profiler smoke (collapsed stacks + inspect --profile, trace joins profile)"
# One scope feeds both exports: in a run with both enabled, the Chrome
# trace's complete-event names must be exactly the profile's leaf phases,
# and each event's category the first dot segment of its name.
"$SSMDVFS_BIN" datagen --out "$OBS_TMP/prof.json" \
  --benchmarks sgemm --scale 0.05 --clusters 2 --jobs 2 --log-level warn \
  --profile-out "$OBS_TMP/profile.json" \
  --profile-collapsed "$OBS_TMP/profile.folded" \
  --trace-out "$OBS_TMP/prof-trace.json"
"$SSMDVFS_BIN" inspect --profile "$OBS_TMP/profile.json" \
  | tee "$OBS_TMP/profile.log"
grep -q "datagen" "$OBS_TMP/profile.log"
grep -q "datagen.replay" "$OBS_TMP/profile.folded"
# At least one nested path (datagen.suite -> replay on the calling
# thread, which runs tasks too) proves stacks collapse.
grep -q ";" "$OBS_TMP/profile.folded"
python3 - "$OBS_TMP" <<'EOF'
import json, sys, os
tmp = sys.argv[1]
profile = json.load(open(os.path.join(tmp, "profile.json")))
trace = json.load(open(os.path.join(tmp, "prof-trace.json")))
leaves = {path.split(";")[-1] for path in profile["phases"]}
events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
names = {e["name"] for e in events}
assert names == leaves, (sorted(names), sorted(leaves))
bad = [e for e in events if e["cat"] != e["name"].split(".")[0]]
assert not bad, bad[:3]
print(f"trace/profile join: {len(events)} events, phases {sorted(names)}")
EOF

echo "==> SLO gate (passes on the current trajectory)"
"$SSMDVFS_BIN" slo-check --baseline docs/perf \
  --current target/ssmdvfs-artifacts \
  --metrics "$OBS_TMP/cache-warm-metrics.json" \
  --slo docs/perf/slo.toml
"$SSMDVFS_BIN" slo-check --baseline docs/perf --slo docs/perf/slo.toml

echo "==> SLO gate (tightened rules must fail with the named rule)"
# A cache hit ratio above 1.0 is unsatisfiable by construction, so the
# tightened policy must exit nonzero and name the violated rule.
cat > "$OBS_TMP/slo-tight.toml" <<'EOF'
[[rule]]
name = "impossible-cache-ratio"
kind = "min_ratio"
numerator = "sim.cache_hits"
denominator = "sim.cache_hits, sim.cache_misses"
min = 1.01
EOF
if "$SSMDVFS_BIN" slo-check --baseline docs/perf \
    --metrics "$OBS_TMP/cache-warm-metrics.json" \
    --slo "$OBS_TMP/slo-tight.toml" > "$OBS_TMP/slo-tight.log" 2>&1; then
  echo "error: tightened SLO policy unexpectedly passed" >&2
  cat "$OBS_TMP/slo-tight.log" >&2
  exit 1
fi
grep -q "impossible-cache-ratio" "$OBS_TMP/slo-tight.log"
echo "tightened SLO failed as intended, naming the violated rule"

echo "==> CI passed"
