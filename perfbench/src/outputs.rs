//! Simulated outputs, their fingerprint, and the output checks.
//!
//! Every run reports what it simulated, by name. At the default seed the
//! bit patterns of those outputs must hash to the value recorded below;
//! at every seed the invariants in [`check`] must hold. Host-time numbers
//! never enter the fingerprint.

use drill_runtime::RunStats;

use crate::workloads::{Workload, DEFAULT_SEED};

/// Fingerprints of each workload's outputs at [`DEFAULT_SEED`].
const RECORDED: [(Workload, u64); 3] = [
    (Workload::Fig2Trains, 0xe2d6_f54f_8608_474a),
    (Workload::Fig6Sweep, 0xc63a_94e8_4c2a_152c),
    (Workload::Clos16kFlap, 0x2802_6004_5b22_3a6a),
];

/// The simulated outputs of one point.
#[derive(Clone, Debug, PartialEq)]
pub struct Outputs {
    /// Events dispatched.
    pub events: u64,
    /// Flows started.
    pub flows_started: u64,
    /// Flows completed.
    pub flows_completed: u64,
    /// Median FCT, simulated ms.
    pub fct_p50_ms: f64,
    /// 99th-percentile FCT, simulated ms.
    pub fct_p99_ms: f64,
    /// Mean queue-length standard deviation, packets (0 without sampling).
    pub queue_stdv: f64,
    /// TCP retransmissions.
    pub retransmissions: u64,
    /// TCP timeouts.
    pub timeouts: u64,
    /// GRO batches delivered.
    pub gro_batches: u64,
    /// Packets dropped at switch ports and host NICs.
    pub drops: u64,
    /// Packets with no live route.
    pub blackholed: u64,
    /// Reconvergences run.
    pub reconvergences: u64,
    /// Packets still interned in the arena when the run ended.
    pub arena_live_at_end: u64,
}

impl Outputs {
    /// Extract the outputs of a finished run.
    pub fn of(stats: &mut RunStats) -> Outputs {
        Outputs {
            events: stats.events,
            flows_started: stats.flows_started,
            flows_completed: stats.flows_completed,
            fct_p50_ms: stats.fct_ms.quantile(0.5),
            fct_p99_ms: stats.fct_ms.quantile(0.99),
            queue_stdv: stats.queue_stdv.mean(),
            retransmissions: stats.retransmissions,
            timeouts: stats.timeouts,
            gro_batches: stats.gro_batches,
            drops: stats.hops.drops.iter().sum::<u64>() + stats.nic_drops,
            blackholed: stats.blackholed,
            reconvergences: stats.reconvergences,
            arena_live_at_end: stats.arena_live_at_end,
        }
    }

    /// The bit pattern of every output, in fingerprint order.
    pub fn words(&self) -> [u64; 13] {
        [
            self.events,
            self.flows_started,
            self.flows_completed,
            self.fct_p50_ms.to_bits(),
            self.fct_p99_ms.to_bits(),
            self.queue_stdv.to_bits(),
            self.retransmissions,
            self.timeouts,
            self.gro_batches,
            self.drops,
            self.blackholed,
            self.reconvergences,
            self.arena_live_at_end,
        ]
    }

    /// The outputs as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"events\": {}, \"flows_started\": {}, \"flows_completed\": {}, \
\"fct_p50_ms\": {}, \"fct_p99_ms\": {}, \"queue_stdv\": {}, \"retransmissions\": {}, \
\"timeouts\": {}, \"gro_batches\": {}, \"drops\": {}, \"blackholed\": {}, \
\"reconvergences\": {}, \"arena_live_at_end\": {}}}",
            self.events,
            self.flows_started,
            self.flows_completed,
            self.fct_p50_ms,
            self.fct_p99_ms,
            self.queue_stdv,
            self.retransmissions,
            self.timeouts,
            self.gro_batches,
            self.drops,
            self.blackholed,
            self.reconvergences,
            self.arena_live_at_end,
        )
    }
}

/// FNV-1a over the bit patterns of every point's outputs, in grid order.
pub fn fingerprint(points: &[Outputs]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for p in points {
        for w in p.words() {
            for b in w.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    h
}

/// The recorded default-seed fingerprint of `w`.
pub fn recorded(w: Workload) -> u64 {
    RECORDED
        .iter()
        .find(|(r, _)| *r == w)
        .map(|&(_, f)| f)
        .expect("every workload has a recorded fingerprint")
}

/// Every failed check of one run's outputs; empty means the run is
/// correct.
pub fn check(w: Workload, seed: u64, points: &[Outputs]) -> Vec<String> {
    let mut errors = Vec::new();
    let expected_points = w.points(seed).len();
    if points.len() != expected_points {
        errors.push(format!(
            "{} points, expected {expected_points}",
            points.len()
        ));
    }
    for (i, p) in points.iter().enumerate() {
        if p.events == 0 {
            errors.push(format!("point {i}: no events"));
        }
        if w.drains() && p.arena_live_at_end != 0 {
            errors.push(format!(
                "point {i}: {} packets leaked in the arena",
                p.arena_live_at_end
            ));
        }
        if p.reconvergences != w.expected_reconvergences() {
            errors.push(format!(
                "point {i}: {} reconvergences, expected {}",
                p.reconvergences,
                w.expected_reconvergences()
            ));
        }
    }
    if seed == DEFAULT_SEED {
        let got = fingerprint(points);
        if got != recorded(w) {
            errors.push(format!(
                "fingerprint {got:#018x} != recorded {:#018x} at the default seed",
                recorded(w)
            ));
        }
    }
    errors
}
