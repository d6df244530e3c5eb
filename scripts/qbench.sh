#!/usr/bin/env bash
# End-to-end overhead A/Bs on the fig2-shaped qbench run: the flight
# recorder (NoopProbe vs recorder attached), the invariant auditor
# (NoopAudit vs watchdogs) and the shard count (DRILL_SHARDS=1/2/8). Every
# pair must report an identical event count — observation and sharding
# never change the simulation. Updates the `telemetry_ab`, `audit_ab` and
# `shard_ab` sections of results/qbench.json; the file's other sections
# are kept as a historical record (see results/README.md).
# Offline-safe: no external deps. Per-layer costs live in perfbench/.
#
# The binary is built once and copied aside, then the runs alternate
# sides so background-load drift on the host hits both sides evenly
# instead of biasing whichever ran last.
set -euo pipefail
cd "$(dirname "$0")/.."

E2E_RUNS="${E2E_RUNS:-5}"

mkdir -p results
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "== building =="
cargo build --release -p drill-bench
cp target/release/qbench "$tmp/qbench"

# Keep the previous noop result (if any) as the cross-run reference
# before this run overwrites it.
baseline="null"
if [ -f results/qbench.json ]; then
  baseline=$(python3 -c 'import json; d = json.load(open("results/qbench.json")); print(json.dumps(d.get("telemetry_ab", {}).get("noop", {}).get("wall_secs")))')
fi

echo "== e2e telemetry overhead, interleaved noop/recording x $E2E_RUNS each =="
: > "$tmp/e2e-noop.jsonl"
: > "$tmp/e2e-telemetry.jsonl"
for i in $(seq "$E2E_RUNS"); do
  "$tmp/qbench" --e2e | tee -a "$tmp/e2e-noop.jsonl"
  "$tmp/qbench" --e2e-telemetry | tee -a "$tmp/e2e-telemetry.jsonl"
done

echo "== e2e audit overhead, interleaved noop/auditor x $E2E_RUNS each =="
: > "$tmp/e2e-auditoff.jsonl"
: > "$tmp/e2e-audit.jsonl"
for i in $(seq "$E2E_RUNS"); do
  "$tmp/qbench" --e2e | tee -a "$tmp/e2e-auditoff.jsonl"
  "$tmp/qbench" --e2e-audit | tee -a "$tmp/e2e-audit.jsonl"
done

echo "== e2e shard A/B, interleaved DRILL_SHARDS=1/2/8 x $E2E_RUNS each =="
: > "$tmp/e2e-shard1.jsonl"
: > "$tmp/e2e-shard2.jsonl"
: > "$tmp/e2e-shard8.jsonl"
for i in $(seq "$E2E_RUNS"); do
  DRILL_SHARDS=1 "$tmp/qbench" --e2e | tee -a "$tmp/e2e-shard1.jsonl"
  DRILL_SHARDS=2 "$tmp/qbench" --e2e | tee -a "$tmp/e2e-shard2.jsonl"
  DRILL_SHARDS=8 "$tmp/qbench" --e2e | tee -a "$tmp/e2e-shard8.jsonl"
done

python3 - "$tmp" "$baseline" <<'EOF'
import json, os, sys

tmp = sys.argv[1]
baseline = json.loads(sys.argv[2])
path = "results/qbench.json"
doc = json.load(open(path)) if os.path.exists(path) else {"bench": "qbench"}

def median_run(path):
    runs = [json.loads(l) for l in open(path) if l.strip()]
    runs.sort(key=lambda r: r["wall_secs"])
    med = runs[len(runs) // 2]
    med["runs"] = len(runs)
    return med

noop = median_run(f"{tmp}/e2e-noop.jsonl")
tel = median_run(f"{tmp}/e2e-telemetry.jsonl")
# Determinism contract: the flight recorder observes but never steers.
assert noop["events"] == tel["events"], "telemetry changed the simulation!"
doc["telemetry_ab"] = {
    "noop": noop,
    "recording": tel,
    # The previous run's noop median (null on first run; expect this to
    # sit within run-to-run noise).
    "noop_vs_previous_baseline_secs": baseline,
    "recording_overhead": round(tel["wall_secs"] / noop["wall_secs"] - 1, 3),
}

aoff = median_run(f"{tmp}/e2e-auditoff.jsonl")
aon = median_run(f"{tmp}/e2e-audit.jsonl")
# Determinism contract: the invariant auditor observes but never steers.
assert aoff["events"] == aon["events"], "auditor changed the simulation!"
doc["audit_ab"] = {
    "noop": aoff,
    "audited": aon,
    # Watchdog boundary-walk cost (no dump_dir, so the snapshot ring is
    # disarmed and no per-boundary DRILLSNAP is taken).
    "audit_overhead": round(aon["wall_secs"] / aoff["wall_secs"] - 1, 3),
}

s1 = median_run(f"{tmp}/e2e-shard1.jsonl")
s2 = median_run(f"{tmp}/e2e-shard2.jsonl")
s8 = median_run(f"{tmp}/e2e-shard8.jsonl")
# Determinism contract: sharding repartitions the engine, never the
# simulation — the event count must not move with the shard count.
assert s1["events"] == s2["events"] == s8["events"], "shard count changed the simulation!"
assert s2["shard_handoffs"] > 0 and s8["shard_handoffs"] > 0, "sharded run exchanged no handoffs"
cores = os.cpu_count() or 1
doc["shard_ab"] = {
    "shard1": s1,
    "shard2": s2,
    "shard8": s8,
    "host_cores": cores,
    "speedup_2_over_1": round(s1["wall_secs"] / s2["wall_secs"], 3),
    "speedup_8_over_1": round(s1["wall_secs"] / s8["wall_secs"], 3),
    # Honest accounting: the sharded engine is a deterministic global
    # merge (parallelism only in the barrier drain), so this section
    # records the true cost of windows + mailboxes + arena re-interning
    # on this host rather than claiming a speedup a 1-core box cannot
    # deliver. Speedups < 1.0 here are the measured sharding overhead.
    "expectation": "parity-or-overhead" if cores <= 1 else "speedup-or-parity",
}
json.dump(doc, open(path, "w"), indent=2)
print(f"updated {path}")
print(f"telemetry recording overhead: {doc['telemetry_ab']['recording_overhead']:.1%}")
print(f"invariant auditor overhead: {doc['audit_ab']['audit_overhead']:.1%}")
print(f"shard A/B ({cores}-core host, expect {doc['shard_ab']['expectation']}): "
      f"2-shard {doc['shard_ab']['speedup_2_over_1']:.3f}x, "
      f"8-shard {doc['shard_ab']['speedup_8_over_1']:.3f}x vs serial")
if baseline is not None:
    drift = noop["wall_secs"] / baseline - 1
    print(f"noop e2e vs previous run: {drift:+.1%}")
EOF
