#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload fig2_trains --seed 7 --seconds 20 --trace 0

Builds the `perfbench` package (its own Cargo workspace, path-depending on
the simulator crates) into $CARGO_TARGET_DIR (default `.bench_build`),
then:

* `--trace 0`: runs the workload untraced, each repetition in a fresh
  process, in whole rotations until `--seconds` have passed. A rotation
  runs once at each of `derive_seed(seed, 0..ROTATION)` (the first is the
  seed itself), so every run covers the same inputs however many
  rotations fit. Each end-to-end metric is the mean over those seeds of
  the seed's median over its repetitions.
* `--trace 1`: one traced run, which also pairs untraced runs with traced
  ones to price the tracing overhead; reports every per-layer metric and
  writes the spans next to the build.

Every repetition checks the simulated outputs (see perfbench/README.md);
repetitions of the same derived seed must also agree on the outputs'
fingerprint.
The last line of stdout is the result object; the exit code is 0 only
when a result was printed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("fig2_trains", "fig6_sweep", "clos16k_flap")
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
)
# Host-time metrics only workloads with a fault schedule report; printed,
# but not part of the end-to-end set every workload shares.
EXTRA = (("reconverge_fail_s", "s"), ("reconverge_restore_s", "s"))
# Derived seeds a timed run rotates through. Flow sizes are heavy-tailed,
# so one seed's simulated work can sit 15% off the mean; covering four in
# every run keeps that out of the run-to-run spread.
ROTATION = 4
MASK = (1 << 64) - 1
# A run must end within 180 s of the build; stop starting repetitions that
# could not finish by this many seconds after it.
HARD_LIMIT_S = 165.0


def derive_seed(base, rep):
    """drill_runtime::derive_seed: rep 0 is the base, later reps SplitMix64."""
    if rep == 0:
        return base
    z = (base + 0x9E3779B97F4A7C15 + rep * 0x9E3779B97F4A7C15) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(env):
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join("perfbench", "Cargo.toml"),
    ]
    res = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    return res.returncode == 0


def run_child(cmd, env, timeout):
    """Run one perfbench process; return (returncode, stdout lines)."""
    try:
        res = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return None, []
    if res.stderr:
        sys.stderr.write(res.stderr)
    return res.returncode, res.stdout.splitlines()


def parse_result(lines):
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def timed(exe, args, env, started):
    per_seed = {derive_seed(args.seed, i): [] for i in range(ROTATION)}
    failed, attempted = 0, 0
    measure_start = time.monotonic()
    last = 0.0
    while True:
        now = time.monotonic()
        # Stop between rotations only, when the next rotation would end
        # nearer past the window than short of it.
        if attempted and now - measure_start + 0.5 * last >= args.seconds:
            break
        if attempted and now - started + 1.5 * last > HARD_LIMIT_S:
            break
        rotation_start = now
        for seed, results in per_seed.items():
            attempted += 1
            t0 = time.monotonic()
            code, lines = run_child(
                [exe, "run", args.workload, "--seed", str(seed)],
                env,
                max(1.0, HARD_LIMIT_S - (t0 - started)),
            )
            res = parse_result(lines)
            if code != 0 or res is None or not res.get("ok"):
                failed += 1
                log(f"repetition {attempted} (seed {seed}) failed (exit {code}): "
                    + "; ".join((res or {}).get("errors", ["no result"])))
                continue
            if attempted == 1:
                for line in lines[:-1]:
                    if line.startswith("output "):
                        print(line)
            results.append(res)
        last = time.monotonic() - rotation_start
    if not any(per_seed.values()):
        return None
    deterministic = True
    for seed, results in per_seed.items():
        fingerprints = {r["fingerprint"] for r in results}
        if len(fingerprints) > 1:
            deterministic = False
            log(f"repetitions of seed {seed} disagree: {fingerprints}")
    metrics = {}
    for name, unit in END_TO_END + EXTRA:
        medians = []
        for results in per_seed.values():
            values = [r["metrics"][name] for r in results if name in r["metrics"]]
            if values:
                medians.append(statistics.median(values))
        if not medians:
            continue
        value = statistics.fmean(medians)
        if (name, unit) in END_TO_END:
            metrics[name] = {"value": value, "unit": unit}
        print(f"metric {name} = {value:.9g} {unit} (mean of {len(medians)} "
              f"per-seed medians, min {min(medians):.9g}, max {max(medians):.9g})")
    return {
        "correct": failed == 0 and deterministic,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def traced(exe, args, env, target, started):
    spans = os.path.join(target, "perfbench-spans", f"{args.workload}-seed{args.seed}.json")
    code, lines = run_child(
        [exe, "trace", args.workload, "--seed", str(args.seed), "--out", spans],
        env,
        max(1.0, HARD_LIMIT_S - (time.monotonic() - started)),
    )
    res = parse_result(lines)
    for line in lines[:-1]:
        print(line)
    if res is None:
        log(f"traced run failed (exit {code})")
        return None
    ok = code == 0 and res.get("ok", False)
    if not ok:
        log("traced run failed its checks: " + "; ".join(res.get("errors", [])))
    return {
        "correct": ok,
        "attempted": 1,
        "failed": 0 if ok else 1,
        "metrics": {
            name: {"value": value, "unit": res["units"][name]}
            for name, value in res["metrics"].items()
        },
    }


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()

    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    if not build(env):
        log("building perfbench failed")
        return 1
    exe = os.path.join(target, "release", "perfbench")
    # The time limit counts from here: only a checkout's first run builds.
    started = time.monotonic()

    if args.trace:
        result = traced(exe, args, env, target, started)
    else:
        result = timed(exe, args, env, started)
    if result is None:
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
