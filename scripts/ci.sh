#!/usr/bin/env bash
# Tier-1 gate plus lint, all offline-safe (the workspace has no external
# dependencies and no cargo features: there is exactly one build).
#
# The test matrix crosses the two runtime knobs the determinism contract
# quantifies over: the executor (DRILL_THREADS=1 serial, =8
# oversubscribed) and the engine (DRILL_SHARDS=1/2/8). Results must not
# depend on either, nor on whether the flight recorder or the invariant
# auditor rides along.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --release

echo "== cargo test -q (DRILL_THREADS=1) =="
DRILL_THREADS=1 cargo test -q

echo "== cargo test -q (DRILL_THREADS=8) =="
DRILL_THREADS=8 cargo test -q

echo "== cargo test --workspace -q (crate unit tests) =="
# Root `cargo test` builds only the `drill` package; the unit tests inside
# crates/* (world, switch, wheel and its heap-queue differential, arena,
# the §3.4 symmetry engine and its signature-walk oracle, ...) run only
# under --workspace. The root package's own suites already ran above.
cargo test --workspace --exclude drill -q

echo "== engine goldens x DRILL_SHARDS=1/2/8 (plain, recorder, auditor) =="
# The sharding contract: every determinism golden — chaos schedule
# included — and every DRILLSNAP resume golden (a run checkpointed
# mid-flight and restored from bytes) must replay bit-identically at any
# shard count. DRILL_SHARDS=1 runs the serial engine, so the =1 rows also
# prove the env plumbing is inert. The observation contracts ride the
# same axis: the flight recorder (DRILL_TELEMETRY=1) and the invariant
# auditor (DRILL_AUDIT=1) observe, never steer, so every golden constant —
# captured with both off — must hold with either attached.
for shards in 1 2 8; do
    DRILL_SHARDS=$shards cargo test -q --test determinism_golden --test snapshot_resume
    DRILL_TELEMETRY=1 DRILL_SHARDS=$shards cargo test -q --test determinism_golden
    DRILL_AUDIT=1 DRILL_SHARDS=$shards cargo test -q --test determinism_golden
done

echo "== structural-vs-eager differential golden (DRILL_SHARDS=1/2) =="
# The §3.4 control-plane contract: the structural SymmetryEngine must
# install group tables bit-identical to the eager enumeration on every
# topology family and under random failure sets. Groups are a pure
# function of (topology, routes), so the shard count may not perturb
# them.
for shards in 1 2; do
    DRILL_SHARDS=$shards cargo test -q --test structural_groups
done

echo "== chaosbench --quick smoke =="
cargo build --release -p drill-bench
./target/release/chaosbench --quick > /dev/null

echo "== scalebench --quick smoke =="
# Seconds-scale scaling ladder (leaf-spine, small Clos, k=8 fat-tree)
# plus the sketch rank-error section. The small-Clos determinism golden
# itself rides in determinism_golden, which the DRILL_SHARDS=1/2/8 loop
# above already crosses.
./target/release/scalebench --quick > /dev/null
./target/release/scalebench --sketch --quick > /dev/null

echo "== scalebench asymmetric control-plane smoke =="
# The asymmetric quick point runs the full structural §3.4 probe (cold
# install + warm reconvergence on a fabric with failed uplinks) and a
# traffic run with asymmetry_handling on; demand the probe found real
# asymmetry and shared classes across entries.
./target/release/scalebench --quick --point fattree8_128h_asym2f | python3 -c "
import json, sys
d = json.load(sys.stdin)
assert d['failures'] == 2, 'asym point lost its failures'
assert d['asym_entries'] > 0, 'no asymmetric entries found'
assert d['cp_classes'] < d['cp_entries'], 'no class sharing across entries'
assert d['cp_entries_reused'] == d['cp_entries'] - d['cp_classes'], 'reuse mismatch'
assert d['cp_install_secs'] > 0 and d['cp_reconverge_secs'] > 0, 'probe not timed'
"

echo "== scalebench kill-and-resume crash-recovery smoke =="
# Checkpoint every 50k events, die mid-run (simulated kill, exit 42),
# resume the checkpoint in a fresh process, and demand the resumed totals
# match an uninterrupted run of the same point.
ckpt=$(mktemp -u)
clean=$(./target/release/scalebench --quick --point leafspine_320h)
rc=0
./target/release/scalebench --quick --point leafspine_320h \
    --checkpoint-every 50000 --die-after 120000 --checkpoint-path "$ckpt" \
    > /dev/null 2>&1 || rc=$?
[[ "$rc" == 42 ]] || { echo "expected simulated-kill exit 42, got $rc"; exit 1; }
[[ -f "$ckpt" ]] || { echo "no checkpoint file written before the kill"; exit 1; }
resumed=$(./target/release/scalebench --quick --point leafspine_320h --resume "$ckpt")
rm -f "$ckpt"
clean_ev=$(grep -o '"events": [0-9]*' <<<"$clean")
resumed_ev=$(grep -o '"events": [0-9]*' <<<"$resumed")
clean_bytes=$(grep -o '"bytes_delivered": [0-9]*' <<<"$clean")
resumed_bytes=$(grep -o '"bytes_delivered": [0-9]*' <<<"$resumed")
if [[ "$clean_ev" != "$resumed_ev" || "$clean_bytes" != "$resumed_bytes" ]]; then
    echo "resume diverged: clean [$clean_ev, $clean_bytes] vs resumed [$resumed_ev, $resumed_bytes]"
    exit 1
fi

echo "== auditor sabotage -> rewind-replay smoke =="
# The hands-free diagnostics loop: a deliberately broken runtime (leaked
# arena handle) must trip the conservation watchdog, dump the snapshot
# ring + faulted instant + anomaly.meta, and the replay mode must restore
# the newest clean ring snapshot and re-run exactly the window up to the
# anomaly with the flight recorder attached.
adir=$(mktemp -d)
sab_out=$(./target/release/tracedump --sabotage leak --audit-dir "$adir")
grep -q "packet_conservation" <<<"$sab_out" \
    || { echo "sabotage did not trip packet_conservation"; exit 1; }
[[ -f "$adir/anomaly.meta" && -f "$adir/faulted.drillsnap" ]] \
    || { echo "audit dump bundle incomplete"; exit 1; }
ls "$adir"/ring-*.drillsnap > /dev/null \
    || { echo "no ring snapshots in audit dump"; exit 1; }
replay_out=$(./target/release/tracedump --replay-from "$adir")
grep -q "replayed window" <<<"$replay_out" \
    || { echo "rewind-replay did not run the anomaly window"; exit 1; }
grep -q "decision quality" <<<"$replay_out" \
    || { echo "rewind-replay printed no decision-quality table"; exit 1; }
rm -rf "$adir"

echo "== snapbench --quick smoke =="
# DRILLSNAP size/latency + warm-start speedup, CI scale; the two
# bit-identity flags inside must both read true.
./target/release/snapbench --quick | tee /tmp/snapbench-ci.json
if grep -q "false" /tmp/snapbench-ci.json; then
    echo "snapbench reported a bit-identity failure"; exit 1
fi

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy -- -D warnings =="
cargo clippy --all-targets -- -D warnings

echo "CI OK"
