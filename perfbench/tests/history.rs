//! Ties the benchmark workloads to the repository's historical numbers,
//! so `results/qbench.json` and `results/scalebench.json` stay comparable
//! with what this benchmark reports. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use drill_core::SymmetryEngine;
use drill_net::{RouteTable, SwitchId};
use drill_runtime::run;
use perfbench::workloads::{clos16k_config, fig2_config, Workload, DEFAULT_SEED};

/// `qbench --e2e` runs exactly this many events (results/qbench.json).
#[test]
fn fig2_trains_matches_qbench_event_count() {
    let stats = run(&fig2_config(DEFAULT_SEED));
    assert_eq!(stats.events, 9_183_190);
}

/// scalebench's `clos16k_asym4f` set-up install (results/scalebench.json):
/// 96,004 entries, 31 classes, 18,392 paths walked. The failure picks do
/// not depend on the workload seed, so neither does this report.
#[test]
fn clos16k_flap_setup_install_matches_scalebench() {
    for seed in [DEFAULT_SEED, 7] {
        let cfg = clos16k_config(seed);
        assert_eq!(cfg.failed_links.len(), 4);
        let mut topo = cfg.topo.build();
        for &(a, b) in &cfg.failed_links {
            assert!(
                topo.fail_switch_link(SwitchId(a), SwitchId(b), 0)
                    || topo.fail_switch_link(SwitchId(b), SwitchId(a), 0)
            );
        }
        let mut routes = RouteTable::compute(&topo);
        let report = SymmetryEngine::new().install(&topo, &mut routes);
        assert_eq!(
            (report.entries, report.classes, report.paths_enumerated),
            (96_004, 31, 18_392),
            "seed {seed}"
        );
    }
}

/// The grid `fig6_sweep` runs: 4 schemes x 2 loads on the 320-host
/// paper baseline, all at the run's seed.
#[test]
fn fig6_sweep_grid_shape() {
    let points = Workload::Fig6Sweep.points(5);
    assert_eq!(points.len(), 8);
    for p in &points {
        assert_eq!(p.seed, 5);
        assert_eq!(p.topo.build().num_hosts(), 320);
    }
}
