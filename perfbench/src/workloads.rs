//! The three benchmark workloads, each a fixed configuration whose only
//! input is the seed.
//!
//! * `fig2_trains` — §3.2.3 queue study (Figure 2): the exact config of
//!   `qbench --e2e`, so its event count at the default seed (9,183,190)
//!   stays comparable with `results/qbench.json`.
//! * `fig6_sweep` — the Figure 6 scheme-vs-load FCT sweep on the paper's
//!   baseline leaf-spine, run on the `drill-exec` pool.
//! * `clos16k_flap` — §3.4 asymmetry under failures (Figures 10-12) at
//!   scale: scalebench's `clos16k_asym4f` fabric and failure set plus one
//!   scheduled link flap, so set-up and both reconvergences run the
//!   structural control plane.

use drill_faults::FaultSchedule;
use drill_net::{ClosSpec, LeafSpineSpec, DEFAULT_PROP};
use drill_runtime::{
    random_leaf_spine_failures, ExperimentConfig, Scheme, ShardSpec, SweepSpec, TopoSpec,
};
use drill_sim::Time;

/// The seed whose outputs are pinned by recorded fingerprints (the
/// `ExperimentConfig` default, which `qbench --e2e` and scalebench use).
pub const DEFAULT_SEED: u64 = 1;

/// Every point runs the serial engine, whatever `DRILL_SHARDS` says: the
/// sharded engine is outside this benchmark (results are bit-identical at
/// every shard count, and a 2-core host cannot show its speed-up).
const SERIAL: ShardSpec = ShardSpec {
    count: 1,
    switch_map: None,
};

/// Worker count of the `fig6_sweep` pool.
pub const FIG6_WORKERS: usize = 2;

/// Seed of scalebench's failure picks (`random_leaf_spine_failures`).
pub const FAILURE_PICK_SEED: u64 = 0xA5F;

/// Leaf uplinks failed before the `clos16k_flap` run starts.
pub const CLOS16K_FAILURES: usize = 4;

/// The flap: the link goes down at `FLAP_DOWN`, comes back at `FLAP_UP`,
/// and each change is detected `FLAP_DETECT` later.
pub const FLAP_DOWN: Time = Time::from_micros(50);
/// See [`FLAP_DOWN`].
pub const FLAP_UP: Time = Time::from_micros(150);
/// See [`FLAP_DOWN`].
pub const FLAP_DETECT: Time = Time::from_micros(50);

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Open-loop packet trains on a 20x20x20 leaf-spine (Figure 2).
    Fig2Trains,
    /// {ECMP, CONGA, Presto, DRILL} x {0.3, 0.7} FCT sweep (Figure 6).
    Fig6Sweep,
    /// 16,384-host Clos with failed uplinks and a link flap (§3.4).
    Clos16kFlap,
}

impl Workload {
    /// Every workload, in benchmark order.
    pub const ALL: [Workload; 3] = [
        Workload::Fig2Trains,
        Workload::Fig6Sweep,
        Workload::Clos16kFlap,
    ];

    /// The workload's benchmark name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig2Trains => "fig2_trains",
            Workload::Fig6Sweep => "fig6_sweep",
            Workload::Clos16kFlap => "clos16k_flap",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Every simulation point of one run, in grid order.
    pub fn points(self, seed: u64) -> Vec<ExperimentConfig> {
        match self {
            Workload::Fig2Trains => vec![fig2_config(seed)],
            Workload::Fig6Sweep => fig6_points(seed),
            Workload::Clos16kFlap => vec![clos16k_config(seed)],
        }
    }

    /// `World::new` constructions per point that `setup_s` takes the
    /// median of: several where a set-up costs milliseconds, one where it
    /// costs seconds (`clos16k_flap`, whose repetitions it would double).
    pub fn setup_reps(self) -> usize {
        match self {
            Workload::Clos16kFlap => 1,
            _ => 5,
        }
    }

    /// Pool size the points run on.
    pub fn workers(self) -> usize {
        match self {
            Workload::Fig6Sweep => FIG6_WORKERS,
            _ => 1,
        }
    }

    /// Whether every packet leaves the fabric before the deadline, so the
    /// arena must end empty. `fig2_trains` keeps qbench's 5 ms drain and
    /// ends with packets still queued; its arena is checked by the
    /// auditor's packet-conservation walk in the traced run instead.
    pub fn drains(self) -> bool {
        !matches!(self, Workload::Fig2Trains)
    }

    /// Reconvergences the workload's own fault schedule causes per point.
    pub fn expected_reconvergences(self) -> u64 {
        match self {
            Workload::Clos16kFlap => 2,
            _ => 0,
        }
    }
}

/// `qbench --e2e`: 20x20x20 leaf-spine, DRILL(2,1) with 4 engines, load
/// 0.8, raw packet trains with lognormal bursts, queue sampling, a 4 ms
/// arrival window and a 5 ms drain.
pub fn fig2_config(seed: u64) -> ExperimentConfig {
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
    cfg.seed = seed;
    cfg.duration = Time::from_millis(4);
    cfg.raw_packet_mode = true;
    cfg.queue_limit_bytes = 20_000_000;
    cfg.workload.burst_sigma = 2.0;
    cfg.sample_queues = true;
    cfg.drain = Time::from_millis(5);
    cfg.engines = 4;
    cfg.shards = Some(SERIAL);
    cfg
}

/// The Figure 6 grid at benchmark size: paper-baseline leaf-spine (4x40G
/// spines, 16 leaves, 20 hosts each), trace-driven `fb_web` flows,
/// {ECMP, CONGA, Presto+shim, DRILL(2,1)+shim} x loads {0.3, 0.7}, a 2 ms
/// arrival window and a 200 ms drain. Warmup is zero so every flow of
/// the short window enters the FCT statistics.
pub fn fig6_points(seed: u64) -> Vec<ExperimentConfig> {
    let topo = TopoSpec::LeafSpine(LeafSpineSpec::paper_baseline());
    let mut base = ExperimentConfig::new(topo, Scheme::Ecmp, 0.3);
    base.seed = seed;
    base.duration = Time::from_millis(2);
    base.drain = Time::from_millis(200);
    base.warmup = Time::ZERO;
    base.shards = Some(SERIAL);
    SweepSpec::new(base)
        .schemes(vec![
            Scheme::Ecmp,
            Scheme::Conga,
            Scheme::presto(),
            Scheme::drill_default(),
        ])
        .loads(vec![0.3, 0.7])
        .points()
        .into_iter()
        .map(|(_, cfg)| cfg)
        .collect()
}

/// scalebench's 16,384-host three-tier Clos (16 pods x 16 leaves x 64
/// hosts, 8 aggs per pod, 64 cores, 40G fabric).
pub fn clos16k_topo() -> TopoSpec {
    TopoSpec::Clos(ClosSpec {
        pods: 16,
        leaves_per_pod: 16,
        aggs_per_pod: 8,
        cores: 64,
        hosts_per_leaf: 64,
        host_rate: 10_000_000_000,
        leaf_agg_rate: 40_000_000_000,
        agg_core_rate: 40_000_000_000,
        prop: DEFAULT_PROP,
    })
}

/// scalebench's failure picks on `spec`: the first `failed` pairs fail at
/// set-up, the next one is the flap link.
pub fn failure_picks(spec: &TopoSpec, failed: usize) -> (Vec<(u32, u32)>, (u32, u32)) {
    let topo = spec.build();
    let picked = random_leaf_spine_failures(&topo, failed + 1, FAILURE_PICK_SEED);
    assert_eq!(
        picked.len(),
        failed + 1,
        "fabric has too few leaf uplinks to fail"
    );
    (picked[..failed].to_vec(), picked[failed])
}

/// The flap schedule for link `(a, b)`.
pub fn flap_schedule((a, b): (u32, u32)) -> FaultSchedule {
    let mut sched = FaultSchedule::new(FLAP_DETECT);
    sched.link_flap(a, b, FLAP_DOWN, FLAP_UP);
    sched
}

/// The two instants at which the flap's `Reconverge` events fire.
pub fn reconverge_instants() -> [Time; 2] {
    [FLAP_DOWN + FLAP_DETECT, FLAP_UP + FLAP_DETECT]
}

/// `clos16k_asym4f` (4 failed leaf uplinks, raw trains at load 0.25,
/// DRILL(2,1), a 150 µs window and a 5 ms drain) plus a fifth uplink that
/// flaps down at 50 µs and up at 150 µs with a 50 µs detection delay.
pub fn clos16k_config(seed: u64) -> ExperimentConfig {
    let spec = clos16k_topo();
    let (failed, flap) = failure_picks(&spec, CLOS16K_FAILURES);
    let mut cfg = ExperimentConfig::new(
        spec,
        Scheme::Drill {
            d: 2,
            m: 1,
            shim: false,
        },
        0.25,
    );
    cfg.seed = seed;
    cfg.asymmetry_handling = true;
    cfg.failed_links = failed;
    cfg.raw_packet_mode = true;
    cfg.duration = Time::from_micros(150);
    cfg.drain = Time::from_millis(5);
    cfg.warmup = Time::ZERO;
    cfg.faults = Some(flap_schedule(flap));
    cfg.shards = Some(SERIAL);
    cfg
}
