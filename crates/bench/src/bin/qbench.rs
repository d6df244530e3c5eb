//! qbench: end-to-end wall clock of one fig2-shaped run, std-only.
//!
//! `--e2e` runs one fig2-shaped experiment (open-loop packet trains,
//! queue sampling on) and prints a single JSON object with the wall-clock
//! time and event count. `--e2e-telemetry` runs the identical experiment
//! with the `drill-telemetry` flight recorder + queue sampler attached,
//! and `--e2e-audit` with the `drill-audit` invariant watchdogs evaluated
//! at event-count boundaries. Probes and audits observe, never steer, so
//! all three modes must report the same event count; `scripts/qbench.sh`
//! interleaves them (and `DRILL_SHARDS=1/2/8`) and asserts exactly that.
//!
//! Per-layer costs (wheel, arena, switch, §3.4 control plane, TCP) are
//! measured by the `perfbench/` package instead.

use std::time::Instant;

use drill_net::{LeafSpineSpec, DEFAULT_PROP};
use drill_runtime::{run, AuditSpec, ExperimentConfig, Scheme, TelemetrySpec, TopoSpec};
use drill_sim::Time;

/// Which observation layer rides along on the e2e run. Every variant is
/// the identical simulation — the A/B harness asserts equal event counts.
#[derive(Clone, Copy, PartialEq, Eq)]
enum E2eMode {
    /// NoopProbe + NoopAudit: the plain build.
    Plain,
    /// Flight recorder + queue sampler attached.
    Telemetry,
    /// Invariant watchdogs evaluated at event-count boundaries.
    Audit,
}

/// One fig2-shaped run (open-loop packet trains, queue sampling). With
/// [`E2eMode::Telemetry`] the flight recorder + queue sampler ride along;
/// with [`E2eMode::Audit`] the invariant auditor does (same simulation,
/// extra observation).
fn e2e(mode: E2eMode) {
    let n = 20;
    let topo = TopoSpec::LeafSpine(LeafSpineSpec {
        spines: n,
        leaves: n,
        hosts_per_leaf: n,
        host_rate: 10_000_000_000,
        core_rate: 10_000_000_000,
        prop: DEFAULT_PROP,
    });
    let mut cfg = ExperimentConfig::new(
        topo,
        Scheme::Drill {
            d: 2,
            m: 1,
            shim: false,
        },
        0.8,
    );
    cfg.duration = Time::from_millis(4);
    cfg.raw_packet_mode = true;
    cfg.queue_limit_bytes = 20_000_000;
    cfg.workload.burst_sigma = 2.0;
    cfg.sample_queues = true;
    cfg.drain = Time::from_millis(5);
    cfg.engines = 4;
    let workload = match mode {
        E2eMode::Plain => "e2e_fig2",
        E2eMode::Telemetry => {
            cfg.telemetry = Some(TelemetrySpec::default());
            "e2e_fig2_telemetry"
        }
        E2eMode::Audit => {
            cfg.audit = Some(AuditSpec::default());
            "e2e_fig2_audit"
        }
    };
    // The run resolves its shard count from DRILL_SHARDS (cfg.shards stays
    // None here); record the same resolution so the shard_ab harness can
    // label each line. Note the auto partitioner may clamp below this.
    let shards = drill_exec::shards_from_env().unwrap_or(1);
    let start = Instant::now();
    let stats = run(&cfg);
    let wall = start.elapsed().as_secs_f64();
    println!(
        "{{\"workload\": \"{workload}\", \"shards\": {shards}, \"wall_secs\": {:.3}, \"events\": {}, \"events_per_sec\": {:.0}, \"shard_handoffs\": {}, \"shard_windows\": {}}}",
        wall,
        stats.events,
        stats.events as f64 / wall,
        stats.shard_handoffs,
        stats.shard_windows
    );
}

fn main() {
    let mode = match std::env::args().nth(1).as_deref() {
        Some("--e2e") => E2eMode::Plain,
        Some("--e2e-telemetry") => E2eMode::Telemetry,
        Some("--e2e-audit") => E2eMode::Audit,
        _ => {
            eprintln!("usage: qbench --e2e | --e2e-telemetry | --e2e-audit");
            std::process::exit(2);
        }
    };
    e2e(mode);
}
