//! Fabric partitioner for conservative-lookahead sharded execution.
//!
//! DRILL's premise — switch-local decisions, no cross-switch coordination
//! — makes the fabric naturally partitionable: the only state that crosses
//! a switch boundary is a packet on a wire, and every wire has a physical
//! propagation delay. A [`ShardPlan`] splits switches and hosts into
//! disjoint shards and computes the **lookahead bound**: the minimum
//! propagation delay over all links whose endpoints live in different
//! shards. A packet emitted by shard A during the window `[W, W + L)`
//! cannot arrive in shard B before `W + L`, so shards may advance through
//! a whole window before exchanging handoffs at the barrier.
//!
//! The automatic partitioner puts the fabric tier (Agg/Spine switches) in
//! shard 0 and splits the leaves — each with its attached hosts — into
//! contiguous groups over the remaining shards. Hosts always live with
//! their ToR: the host↔leaf wire is the shortest link in every topology
//! this workspace builds, and keeping it intra-shard both maximizes the
//! lookahead bound and keeps NIC/host delivery local to one arena.

use drill_sim::Time;

use crate::ids::{HostId, NodeRef};
use crate::topology::Topology;

/// A partition of the fabric into shards plus its lookahead bound.
///
/// Invariants (checked by [`validate`](ShardPlan::validate), which every
/// constructor runs): the assignment vectors are a disjoint exact cover
/// of all switches and hosts, every shard id below `num_shards` is
/// non-empty, each host shares its leaf's shard, and with more than one
/// shard the lookahead is strictly positive.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    /// Number of shards (≥ 1).
    pub num_shards: u32,
    /// Shard of each switch, indexed by `SwitchId`.
    pub switch_shard: Vec<u32>,
    /// Shard of each host, indexed by `HostId` (always the shard of the
    /// host's leaf).
    pub host_shard: Vec<u32>,
    /// Minimum propagation delay over cross-shard links — the
    /// conservative window length. [`Time::MAX`] when nothing crosses
    /// (single shard).
    pub lookahead: Time,
}

impl ShardPlan {
    /// The trivial single-shard plan (everything in shard 0).
    pub fn single(topo: &Topology) -> ShardPlan {
        ShardPlan {
            num_shards: 1,
            switch_shard: vec![0; topo.num_switches()],
            host_shard: vec![0; topo.num_hosts()],
            lookahead: Time::MAX,
        }
    }

    /// Automatic partition into at most `requested` shards: fabric tier
    /// (non-leaf switches) in shard 0, leaves + their hosts split into
    /// contiguous groups over shards `1..`. The effective shard count is
    /// clamped to `1 + num_leaves` — asking for more shards than leaf
    /// groups cannot create parallelism, only empty shards.
    pub fn auto(topo: &Topology, requested: usize) -> ShardPlan {
        let leaves = topo.num_leaves();
        let groups = requested.saturating_sub(1).min(leaves);
        if groups == 0 {
            return ShardPlan::single(topo);
        }
        let mut switch_shard = vec![0u32; topo.num_switches()];
        for (i, &leaf) in topo.leaves().iter().enumerate() {
            switch_shard[leaf.index()] = 1 + (i * groups / leaves) as u32;
        }
        ShardPlan::manual(topo, switch_shard)
    }

    /// Manual override: an explicit per-switch shard assignment. Hosts
    /// inherit their leaf's shard (the engine requires host↔leaf
    /// locality; see the module docs). `num_shards` is taken as
    /// `max(assignment) + 1`; the plan is validated and panics on an
    /// assignment that is not a disjoint exact cover with positive
    /// lookahead.
    pub fn manual(topo: &Topology, switch_shard: Vec<u32>) -> ShardPlan {
        assert_eq!(
            switch_shard.len(),
            topo.num_switches(),
            "shard assignment must cover every switch exactly once"
        );
        let num_shards = switch_shard.iter().copied().max().unwrap_or(0) + 1;
        let host_shard: Vec<u32> = (0..topo.num_hosts())
            .map(|h| switch_shard[topo.host_leaf(HostId(h as u32)).index()])
            .collect();
        let mut plan = ShardPlan {
            num_shards,
            switch_shard,
            host_shard,
            lookahead: Time::MAX,
        };
        plan.lookahead = plan.compute_lookahead(topo);
        plan.validate(topo);
        plan
    }

    /// Shard owning a node.
    #[inline]
    pub fn shard_of(&self, node: NodeRef) -> u32 {
        match node {
            NodeRef::Switch(s) => self.switch_shard[s.index()],
            NodeRef::Host(h) => self.host_shard[h.index()],
        }
    }

    /// Minimum propagation delay over links whose endpoints live in
    /// different shards ([`Time::MAX`] if none do). Counts downed links
    /// too: a link can come back up mid-run (`LinkUp` faults) and the
    /// window length is fixed at build time.
    fn compute_lookahead(&self, topo: &Topology) -> Time {
        topo.links()
            .iter()
            .filter(|l| self.shard_of(l.src) != self.shard_of(l.dst))
            .map(|l| l.prop)
            .min()
            .unwrap_or(Time::MAX)
    }

    /// Check every plan invariant, panicking with a description on the
    /// first violation. Constructors call this; it is public so tests and
    /// manual-plan builders can re-check after surgery.
    pub fn validate(&self, topo: &Topology) {
        assert!(self.num_shards >= 1, "a plan needs at least one shard");
        assert_eq!(self.switch_shard.len(), topo.num_switches());
        assert_eq!(self.host_shard.len(), topo.num_hosts());
        let mut members = vec![0usize; self.num_shards as usize];
        for (s, &sh) in self.switch_shard.iter().enumerate() {
            assert!(
                sh < self.num_shards,
                "switch {s} assigned to out-of-range shard {sh}"
            );
            members[sh as usize] += 1;
        }
        for (h, &sh) in self.host_shard.iter().enumerate() {
            let leaf = topo.host_leaf(HostId(h as u32));
            assert_eq!(
                sh,
                self.switch_shard[leaf.index()],
                "host {h} not colocated with its leaf {}",
                leaf.index()
            );
        }
        for (sh, &n) in members.iter().enumerate() {
            assert!(n > 0, "shard {sh} owns no switch");
        }
        if self.num_shards > 1 {
            assert!(
                self.lookahead > Time::ZERO,
                "zero-latency cross-shard link: no conservative window exists"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{leaf_spine, vl2, LeafSpineSpec, Vl2Spec, DEFAULT_PROP};
    use crate::ids::SwitchId;
    use crate::topology::SwitchKind;
    use drill_sim::SimRng;

    fn spec(spines: usize, leaves: usize, hosts_per_leaf: usize) -> LeafSpineSpec {
        LeafSpineSpec {
            spines,
            leaves,
            hosts_per_leaf,
            host_rate: 10_000_000_000,
            core_rate: 40_000_000_000,
            prop: DEFAULT_PROP,
        }
    }

    /// Disjoint exact cover + per-shard non-emptiness + host colocation,
    /// asserted structurally (not via `validate`, which is under test).
    fn assert_exact_cover(plan: &ShardPlan, topo: &Topology) {
        assert_eq!(plan.switch_shard.len(), topo.num_switches());
        assert_eq!(plan.host_shard.len(), topo.num_hosts());
        let mut seen = vec![false; plan.num_shards as usize];
        for &sh in &plan.switch_shard {
            assert!(sh < plan.num_shards);
            seen[sh as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "an empty shard survived");
        for h in 0..topo.num_hosts() {
            assert_eq!(
                plan.host_shard[h],
                plan.switch_shard[topo.host_leaf(HostId(h as u32)).index()]
            );
        }
    }

    /// Every cross-shard link's latency is at or above the lookahead.
    fn assert_lookahead_bound(plan: &ShardPlan, topo: &Topology) {
        for l in topo.links() {
            if plan.shard_of(l.src) != plan.shard_of(l.dst) {
                assert!(
                    l.prop >= plan.lookahead,
                    "cross-shard link faster than the lookahead bound"
                );
            }
        }
        if plan.num_shards > 1 {
            assert!(plan.lookahead > Time::ZERO);
            assert_ne!(plan.lookahead, Time::MAX, "bound is a real link latency");
        }
    }

    #[test]
    fn auto_splits_fabric_from_leaf_groups() {
        let topo = leaf_spine(&spec(4, 4, 2));
        let plan = ShardPlan::auto(&topo, 3);
        assert_eq!(plan.num_shards, 3);
        // Spines in shard 0, leaves split 2+2.
        for s in 0..topo.num_switches() {
            let kind = topo.switch_kind(SwitchId(s as u32));
            if kind == SwitchKind::Leaf {
                assert_ne!(plan.switch_shard[s], 0);
            } else {
                assert_eq!(plan.switch_shard[s], 0);
            }
        }
        assert_exact_cover(&plan, &topo);
        assert_lookahead_bound(&plan, &topo);
        assert_eq!(plan.lookahead, DEFAULT_PROP);
    }

    #[test]
    fn auto_clamps_to_leaf_count_and_single() {
        let topo = leaf_spine(&spec(4, 4, 2));
        assert_eq!(ShardPlan::auto(&topo, 1).num_shards, 1);
        assert_eq!(ShardPlan::auto(&topo, 0).num_shards, 1);
        // 8 requested, only 4 leaves: 1 fabric + 4 leaf shards.
        let plan = ShardPlan::auto(&topo, 8);
        assert_eq!(plan.num_shards, 5);
        assert_exact_cover(&plan, &topo);
        let single = ShardPlan::single(&topo);
        assert_eq!(single.lookahead, Time::MAX);
        single.validate(&topo);
    }

    #[test]
    fn manual_override_round_trips() {
        let topo = leaf_spine(&spec(2, 4, 2));
        // Pair the leaves differently from the contiguous auto split.
        let mut assign = vec![0u32; topo.num_switches()];
        let leaves = topo.leaves().to_vec();
        assign[leaves[0].index()] = 1;
        assign[leaves[2].index()] = 1;
        assign[leaves[1].index()] = 2;
        assign[leaves[3].index()] = 2;
        let plan = ShardPlan::manual(&topo, assign);
        assert_eq!(plan.num_shards, 3);
        assert_exact_cover(&plan, &topo);
        assert_lookahead_bound(&plan, &topo);
    }

    #[test]
    #[should_panic(expected = "owns no switch")]
    fn manual_rejects_empty_shard() {
        let topo = leaf_spine(&spec(2, 2, 1));
        let mut assign = vec![0u32; topo.num_switches()];
        assign[topo.leaves()[0].index()] = 5; // shards 1..5 empty
        ShardPlan::manual(&topo, assign);
    }

    #[test]
    fn randomized_leaf_spine_and_vl2_plans_hold_invariants() {
        // Random topologies x random requested shard counts, exact
        // cover + lookahead bound (the root property suite widens this).
        let mut rng = SimRng::seed_from(0x5AAD);
        for _ in 0..40 {
            let topo = leaf_spine(&spec(2 + rng.below(5), 2 + rng.below(5), 1 + rng.below(4)));
            let requested = rng.below(10);
            let plan = ShardPlan::auto(&topo, requested);
            assert_exact_cover(&plan, &topo);
            assert_lookahead_bound(&plan, &topo);
            plan.validate(&topo);
        }
        for _ in 0..40 {
            let tors = 2 + rng.below(6);
            let aggs = 2 + rng.below(4);
            let topo = vl2(&Vl2Spec {
                tors,
                aggs,
                ints: 1 + rng.below(4),
                hosts_per_tor: 1 + rng.below(3),
                host_rate: 1_000_000_000,
                core_rate: 10_000_000_000,
                tor_uplinks: 1 + rng.below(aggs),
                prop: DEFAULT_PROP,
            });
            let plan = ShardPlan::auto(&topo, 1 + rng.below(10));
            assert_exact_cover(&plan, &topo);
            assert_lookahead_bound(&plan, &topo);
            plan.validate(&topo);
        }
    }
}
