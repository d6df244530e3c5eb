//! Topology constructors for every network evaluated in the paper.

use drill_sim::Time;

use crate::ids::SwitchId;
use crate::topology::{SwitchKind, Topology};

/// Default propagation delay per hop (intra-datacenter fiber, ~100 m).
pub const DEFAULT_PROP: Time = Time::from_nanos(500);

/// Parameters for a two-stage (leaf-spine) folded Clos.
#[derive(Clone, Debug)]
pub struct LeafSpineSpec {
    /// Number of spine switches.
    pub spines: usize,
    /// Number of leaf switches.
    pub leaves: usize,
    /// Hosts attached to each leaf.
    pub hosts_per_leaf: usize,
    /// Host-to-leaf link rate (bps).
    pub host_rate: u64,
    /// Leaf-to-spine link rate (bps).
    pub core_rate: u64,
    /// Per-hop propagation delay.
    pub prop: Time,
}

impl LeafSpineSpec {
    /// The paper's first evaluation topology (Figure 6): 4 spines, 16
    /// leaves, 20 hosts per leaf, 40 Gbps core, 10 Gbps edge.
    pub fn paper_baseline() -> LeafSpineSpec {
        LeafSpineSpec {
            spines: 4,
            leaves: 16,
            hosts_per_leaf: 20,
            host_rate: 10_000_000_000,
            core_rate: 40_000_000_000,
            prop: DEFAULT_PROP,
        }
    }

    /// The paper's scale-out topology (Figure 7): 16 spines, 16 leaves, 20
    /// hosts per leaf, all links 10 Gbps (same aggregate core capacity as
    /// the baseline).
    pub fn paper_scale_out() -> LeafSpineSpec {
        LeafSpineSpec {
            spines: 16,
            leaves: 16,
            hosts_per_leaf: 20,
            host_rate: 10_000_000_000,
            core_rate: 10_000_000_000,
            prop: DEFAULT_PROP,
        }
    }

    /// Total core capacity: sum of all leaf-uplink rates, one direction.
    pub fn core_capacity_bps(&self) -> u64 {
        (self.spines * self.leaves) as u64 * self.core_rate
    }
}

/// Build a symmetric two-stage leaf-spine Clos: every leaf connects to every
/// spine with one link.
pub fn leaf_spine(spec: &LeafSpineSpec) -> Topology {
    leaf_spine_custom(spec, |_leaf, _spine| vec![spec.core_rate])
}

/// Build a leaf-spine Clos with per-pair custom striping: `links(leaf,
/// spine)` returns the rate of each parallel link between that pair (empty
/// for none). Used for the paper's heterogeneous topology (Figure 13) and
/// the §3.4.3 examples.
pub fn leaf_spine_custom(
    spec: &LeafSpineSpec,
    links: impl Fn(usize, usize) -> Vec<u64>,
) -> Topology {
    let mut t = Topology::new();
    let leaves: Vec<SwitchId> = (0..spec.leaves)
        .map(|_| t.add_switch(SwitchKind::Leaf))
        .collect();
    let spines: Vec<SwitchId> = (0..spec.spines)
        .map(|_| t.add_switch(SwitchKind::Spine))
        .collect();
    for (li, &l) in leaves.iter().enumerate() {
        for (si, &s) in spines.iter().enumerate() {
            for rate in links(li, si) {
                t.connect_switches(l, s, rate, rate, spec.prop);
            }
        }
    }
    for &l in &leaves {
        for _ in 0..spec.hosts_per_leaf {
            t.add_host(l, spec.host_rate, spec.prop);
        }
    }
    t.validate();
    t
}

/// Parameters for a VL2-style three-stage Clos (ToR - Aggregation -
/// Intermediate).
#[derive(Clone, Debug)]
pub struct Vl2Spec {
    /// Number of ToR switches.
    pub tors: usize,
    /// Number of aggregation switches.
    pub aggs: usize,
    /// Number of intermediate switches.
    pub ints: usize,
    /// Hosts per ToR.
    pub hosts_per_tor: usize,
    /// Host link rate (bps).
    pub host_rate: u64,
    /// Core (ToR-Agg and Agg-Int) link rate (bps).
    pub core_rate: u64,
    /// ToR uplinks: how many aggregation switches each ToR attaches to.
    pub tor_uplinks: usize,
    /// Per-hop propagation delay.
    pub prop: Time,
}

impl Vl2Spec {
    /// The paper's VL2 experiment (Figure 10): 16 ToRs x 20 hosts at
    /// 1 Gbps, 8 aggregation and 4 intermediate switches, 10 Gbps core,
    /// each ToR dual-homed to 2 aggregation switches.
    pub fn paper() -> Vl2Spec {
        Vl2Spec {
            tors: 16,
            aggs: 8,
            ints: 4,
            hosts_per_tor: 20,
            host_rate: 1_000_000_000,
            core_rate: 10_000_000_000,
            tor_uplinks: 2,
            prop: DEFAULT_PROP,
        }
    }
}

/// Build a VL2 three-stage Clos: ToR `i` connects to `tor_uplinks`
/// consecutive aggregation switches starting at `(i * tor_uplinks) % aggs`;
/// every aggregation switch connects to every intermediate switch.
pub fn vl2(spec: &Vl2Spec) -> Topology {
    let mut t = Topology::new();
    let tors: Vec<SwitchId> = (0..spec.tors)
        .map(|_| t.add_switch(SwitchKind::Leaf))
        .collect();
    let aggs: Vec<SwitchId> = (0..spec.aggs)
        .map(|_| t.add_switch(SwitchKind::Agg))
        .collect();
    let ints: Vec<SwitchId> = (0..spec.ints)
        .map(|_| t.add_switch(SwitchKind::Spine))
        .collect();
    for (ti, &tor) in tors.iter().enumerate() {
        for u in 0..spec.tor_uplinks {
            let agg = aggs[(ti * spec.tor_uplinks + u) % spec.aggs];
            t.connect_switches(tor, agg, spec.core_rate, spec.core_rate, spec.prop);
        }
    }
    for &agg in &aggs {
        for &int in &ints {
            t.connect_switches(agg, int, spec.core_rate, spec.core_rate, spec.prop);
        }
    }
    for &tor in &tors {
        for _ in 0..spec.hosts_per_tor {
            t.add_host(tor, spec.host_rate, spec.prop);
        }
    }
    t.validate();
    t
}

/// Build a k-ary fat-tree: `k` pods of `k/2` edge and `k/2` aggregation
/// switches, `(k/2)^2` cores, `k/2` hosts per edge switch, all links equal
/// rate. `k` must be even.
pub fn fat_tree(k: usize, link_rate: u64, prop: Time) -> Topology {
    fat_tree_custom(k, k / 2, link_rate, link_rate, prop)
}

/// Build a k-ary fat-tree with a custom edge subscription: `hosts_per_edge`
/// hosts at `host_rate` bps on each edge switch instead of the rearrangeably
/// non-blocking `k/2`. `hosts_per_edge > k/2` yields an oversubscribed
/// fabric (ratio `hosts_per_edge / (k/2)` at the edge tier) — the common
/// production trade and the configuration `scalebench` uses to reach 16k
/// hosts on a k=32 fabric. Wiring above the edge tier is identical to
/// [`fat_tree`], including construction order, so `fat_tree(k, r, p)` ==
/// `fat_tree_custom(k, k/2, r, r, p)` switch-for-switch and link-for-link.
pub fn fat_tree_custom(
    k: usize,
    hosts_per_edge: usize,
    link_rate: u64,
    host_rate: u64,
    prop: Time,
) -> Topology {
    assert!(k >= 2 && k.is_multiple_of(2), "fat-tree arity must be even");
    let half = k / 2;
    let mut t = Topology::new();
    let mut edges = Vec::new();
    let mut aggs = Vec::new();
    for _pod in 0..k {
        edges.push(
            (0..half)
                .map(|_| t.add_switch(SwitchKind::Leaf))
                .collect::<Vec<_>>(),
        );
        aggs.push(
            (0..half)
                .map(|_| t.add_switch(SwitchKind::Agg))
                .collect::<Vec<_>>(),
        );
    }
    let cores: Vec<SwitchId> = (0..half * half)
        .map(|_| t.add_switch(SwitchKind::Spine))
        .collect();
    for pod in 0..k {
        for &e in &edges[pod] {
            for &a in &aggs[pod] {
                t.connect_switches(e, a, link_rate, link_rate, prop);
            }
        }
        for (j, &a) in aggs[pod].iter().enumerate() {
            for c in 0..half {
                t.connect_switches(a, cores[j * half + c], link_rate, link_rate, prop);
            }
        }
    }
    for pod_edges in &edges {
        for &e in pod_edges {
            for _ in 0..hosts_per_edge {
                t.add_host(e, host_rate, prop);
            }
        }
    }
    t.validate();
    t
}

/// Parameters for a general three-tier folded Clos (leaf - pod aggregation -
/// core), the fabric shape CAFT and the randomized fat-tree routing papers
/// evaluate on. Unlike [`fat_tree`], every tier width is independent, so
/// pod radix, core plane width, and edge subscription can each be swept.
#[derive(Clone, Debug)]
pub struct ClosSpec {
    /// Number of pods.
    pub pods: usize,
    /// Leaf switches per pod.
    pub leaves_per_pod: usize,
    /// Aggregation switches per pod.
    pub aggs_per_pod: usize,
    /// Core switches, split into `aggs_per_pod` equal planes; must be a
    /// positive multiple of `aggs_per_pod`.
    pub cores: usize,
    /// Hosts attached to each leaf.
    pub hosts_per_leaf: usize,
    /// Host-to-leaf link rate (bps).
    pub host_rate: u64,
    /// Leaf-to-aggregation link rate (bps).
    pub leaf_agg_rate: u64,
    /// Aggregation-to-core link rate (bps).
    pub agg_core_rate: u64,
    /// Per-hop propagation delay.
    pub prop: Time,
}

impl ClosSpec {
    /// A small three-tier Clos for CI goldens: 4 pods x (2 leaves + 2 aggs),
    /// 4 cores, 4 hosts per leaf (32 hosts), 10/40 Gbps edge/core.
    pub fn smoke() -> ClosSpec {
        ClosSpec {
            pods: 4,
            leaves_per_pod: 2,
            aggs_per_pod: 2,
            cores: 4,
            hosts_per_leaf: 4,
            host_rate: 10_000_000_000,
            leaf_agg_rate: 40_000_000_000,
            agg_core_rate: 40_000_000_000,
            prop: DEFAULT_PROP,
        }
    }

    /// Hosts in the fabric.
    pub fn num_hosts(&self) -> usize {
        self.pods * self.leaves_per_pod * self.hosts_per_leaf
    }

    /// Switches in the fabric across all three tiers.
    pub fn num_switches(&self) -> usize {
        self.pods * (self.leaves_per_pod + self.aggs_per_pod) + self.cores
    }

    /// Core uplinks per aggregation switch (its plane width).
    pub fn core_group(&self) -> usize {
        self.cores / self.aggs_per_pod
    }

    /// Closed-form count of directed link entries ([`Topology::links`]
    /// records each physical link twice, once per direction): per-pod
    /// leaf-agg full mesh, one agg-core link per (pod, core) pair, one
    /// access link per host.
    pub fn expected_link_entries(&self) -> usize {
        let leaf_agg = self.pods * self.leaves_per_pod * self.aggs_per_pod;
        let agg_core = self.pods * self.cores;
        let host = self.num_hosts();
        2 * (leaf_agg + agg_core + host)
    }

    /// One-direction bisection bandwidth of the core tier: every
    /// pod-to-pod path crosses a core, and each core carries one link per
    /// pod, so splitting the pods in half cuts `cores * pods/2` links.
    pub fn bisection_bps(&self) -> u64 {
        (self.cores * (self.pods / 2)) as u64 * self.agg_core_rate
    }
}

/// Build a three-tier folded Clos from `spec`.
///
/// Wiring rules (validated in unit tests and seeded property sweeps):
/// * within each pod, leaves and aggregation switches form a full bipartite
///   mesh (`leaves_per_pod * aggs_per_pod` links per pod);
/// * the core tier is split into `aggs_per_pod` planes of
///   `cores / aggs_per_pod` switches; aggregation switch `j` of every pod
///   connects to exactly the switches of plane `j`, so every core switch
///   sees every pod exactly once and has exactly `pods` ports.
///
/// Construction order (leaves+aggs per pod, then cores, then links, then
/// hosts) is fixed and documented because switch ids feed the deterministic
/// replay goldens.
pub fn clos(spec: &ClosSpec) -> Topology {
    assert!(spec.pods >= 2, "need at least two pods");
    assert!(
        spec.leaves_per_pod >= 1 && spec.aggs_per_pod >= 1 && spec.hosts_per_leaf >= 1,
        "tier widths must be positive"
    );
    assert!(
        spec.cores >= spec.aggs_per_pod && spec.cores.is_multiple_of(spec.aggs_per_pod),
        "cores ({}) must be a positive multiple of aggs_per_pod ({})",
        spec.cores,
        spec.aggs_per_pod
    );
    let group = spec.core_group();
    let mut t = Topology::new();
    let mut leaves = Vec::new();
    let mut aggs = Vec::new();
    for _pod in 0..spec.pods {
        leaves.push(
            (0..spec.leaves_per_pod)
                .map(|_| t.add_switch(SwitchKind::Leaf))
                .collect::<Vec<_>>(),
        );
        aggs.push(
            (0..spec.aggs_per_pod)
                .map(|_| t.add_switch(SwitchKind::Agg))
                .collect::<Vec<_>>(),
        );
    }
    let cores: Vec<SwitchId> = (0..spec.cores)
        .map(|_| t.add_switch(SwitchKind::Spine))
        .collect();
    for pod in 0..spec.pods {
        for &l in &leaves[pod] {
            for &a in &aggs[pod] {
                t.connect_switches(l, a, spec.leaf_agg_rate, spec.leaf_agg_rate, spec.prop);
            }
        }
        for (j, &a) in aggs[pod].iter().enumerate() {
            for c in 0..group {
                t.connect_switches(
                    a,
                    cores[j * group + c],
                    spec.agg_core_rate,
                    spec.agg_core_rate,
                    spec.prop,
                );
            }
        }
    }
    for pod_leaves in &leaves {
        for &l in pod_leaves {
            for _ in 0..spec.hosts_per_leaf {
                t.add_host(l, spec.host_rate, spec.prop);
            }
        }
    }
    t.validate();
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeRef;
    use crate::topology::HopClass;

    #[test]
    fn leaf_spine_counts() {
        let spec = LeafSpineSpec {
            spines: 4,
            leaves: 6,
            hosts_per_leaf: 5,
            host_rate: 10_000_000_000,
            core_rate: 40_000_000_000,
            prop: DEFAULT_PROP,
        };
        let t = leaf_spine(&spec);
        assert_eq!(t.num_switches(), 10);
        assert_eq!(t.num_hosts(), 30);
        assert_eq!(t.num_leaves(), 6);
        // Each leaf: 4 spine ports + 5 host ports.
        for &l in t.leaves() {
            assert_eq!(t.num_ports(l), 9);
        }
        // Link count: (4*6 core + 30 host) * 2 directions.
        assert_eq!(t.links().len(), (24 + 30) * 2);
    }

    #[test]
    fn paper_specs() {
        let base = LeafSpineSpec::paper_baseline();
        assert_eq!(base.core_capacity_bps(), 64 * 40_000_000_000);
        let so = LeafSpineSpec::paper_scale_out();
        // Identical aggregate core capacity.
        assert_eq!(so.core_capacity_bps(), 256 * 10_000_000_000);
        assert_eq!(base.core_capacity_bps(), so.core_capacity_bps());
    }

    #[test]
    fn custom_striping_adds_parallel_links() {
        // Figure 13 style: leaf i gets two links to spines i and i+1.
        let spec = LeafSpineSpec {
            spines: 4,
            leaves: 4,
            hosts_per_leaf: 1,
            host_rate: 10_000_000_000,
            core_rate: 10_000_000_000,
            prop: DEFAULT_PROP,
        };
        let t = leaf_spine_custom(&spec, |l, s| {
            if s == l || s == (l + 1) % 4 {
                vec![spec.core_rate; 2]
            } else {
                vec![spec.core_rate]
            }
        });
        let l0 = t.leaves()[0];
        // Spines are created after leaves: ids 4..8.
        assert_eq!(t.ports_to_switch(l0, SwitchId(4)).len(), 2);
        assert_eq!(t.ports_to_switch(l0, SwitchId(5)).len(), 2);
        assert_eq!(t.ports_to_switch(l0, SwitchId(6)).len(), 1);
    }

    #[test]
    fn vl2_structure() {
        let t = vl2(&Vl2Spec::paper());
        assert_eq!(t.num_leaves(), 16);
        assert_eq!(t.num_hosts(), 320);
        // 16 ToRs with 2 uplinks + 8*4 agg-int links + 320 host links, x2.
        assert_eq!(t.links().len(), (32 + 32 + 320) * 2);
        // ToR uplinks are LeafUp.
        let tor = t.leaves()[0];
        assert_eq!(t.egress(tor, 0).hop, HopClass::LeafUp);
    }

    #[test]
    fn vl2_tor_uplink_spread() {
        let t = vl2(&Vl2Spec::paper());
        // ToR 0 -> aggs {0,1}; ToR 1 -> aggs {2,3}; ... ToR 4 -> aggs {0,1}.
        let tor0_up: Vec<_> = (0..2).map(|p| t.egress(t.leaves()[0], p).dst).collect();
        let tor4_up: Vec<_> = (0..2).map(|p| t.egress(t.leaves()[4], p).dst).collect();
        assert_eq!(tor0_up, tor4_up, "striping wraps around");
    }

    #[test]
    fn fat_tree_structure() {
        let k = 4;
        let t = fat_tree(k, 10_000_000_000, DEFAULT_PROP);
        // k^2/2 edges? For k=4: 8 edge, 8 agg, 4 core, 16 hosts.
        assert_eq!(t.num_leaves(), 8);
        assert_eq!(t.num_switches(), 8 + 8 + 4);
        assert_eq!(t.num_hosts(), 16);
        // Every edge switch has k/2 agg ports + k/2 host ports.
        for &e in t.leaves() {
            assert_eq!(t.num_ports(e), 4);
        }
        // Each core sees k pods.
        let core = SwitchId((t.num_switches() - 1) as u32);
        assert_eq!(t.num_ports(core), k);
        for p in 0..k as u16 {
            assert!(matches!(t.egress(core, p).dst, NodeRef::Switch(_)));
        }
    }

    #[test]
    #[should_panic(expected = "even")]
    fn fat_tree_odd_arity_panics() {
        fat_tree(3, 1_000_000_000, DEFAULT_PROP);
    }

    #[test]
    fn fat_tree_custom_matches_fat_tree_at_full_subscription() {
        let a = fat_tree(4, 10_000_000_000, DEFAULT_PROP);
        let b = fat_tree_custom(4, 2, 10_000_000_000, 10_000_000_000, DEFAULT_PROP);
        assert_eq!(a.num_switches(), b.num_switches());
        assert_eq!(a.num_hosts(), b.num_hosts());
        assert_eq!(
            format!("{:?}", a.links()),
            format!("{:?}", b.links()),
            "identical wiring, link for link"
        );
    }

    #[test]
    fn fat_tree_custom_oversubscribed_edge() {
        // k=4 with 4 hosts per edge: 2:1 oversubscription, 32 hosts.
        let t = fat_tree_custom(4, 4, 10_000_000_000, 10_000_000_000, DEFAULT_PROP);
        assert_eq!(t.num_hosts(), 32);
        for &e in t.leaves() {
            // 2 agg uplinks + 4 host ports.
            assert_eq!(t.num_ports(e), 6);
        }
        // Core wiring unchanged by the edge subscription.
        let core = SwitchId((t.num_switches() - 1) as u32);
        assert_eq!(t.num_ports(core), 4);
    }

    #[test]
    fn clos_structure_and_closed_forms() {
        let spec = ClosSpec::smoke();
        let t = clos(&spec);
        assert_eq!(t.num_switches(), spec.num_switches());
        assert_eq!(t.num_hosts(), spec.num_hosts());
        assert_eq!(t.num_leaves(), spec.pods * spec.leaves_per_pod);
        assert_eq!(t.links().len(), spec.expected_link_entries());
        // Every leaf: aggs_per_pod uplinks + hosts_per_leaf host ports.
        for &l in t.leaves() {
            assert_eq!(t.num_ports(l), spec.aggs_per_pod + spec.hosts_per_leaf);
        }
        // Every core sees every pod exactly once.
        let first_core = spec.pods * (spec.leaves_per_pod + spec.aggs_per_pod);
        for c in 0..spec.cores {
            let core = SwitchId((first_core + c) as u32);
            assert_eq!(t.num_ports(core), spec.pods);
        }
        assert_eq!(spec.bisection_bps(), 8 * 40_000_000_000);
    }

    #[test]
    fn clos_core_planes_are_disjoint() {
        let spec = ClosSpec::smoke();
        let t = clos(&spec);
        // Aggregation switch j of pod p is switch p*(l+a) + l + j.
        let stride = spec.leaves_per_pod + spec.aggs_per_pod;
        let first_core = (spec.pods * stride) as u32;
        let group = spec.core_group();
        for pod in 0..spec.pods {
            for j in 0..spec.aggs_per_pod {
                let agg = SwitchId((pod * stride + spec.leaves_per_pod + j) as u32);
                // Up-ports (after the leaf-facing ones) land exactly on
                // plane j's cores.
                for c in 0..group {
                    let want = SwitchId(first_core + (j * group + c) as u32);
                    assert_eq!(
                        t.ports_to_switch(agg, want).len(),
                        1,
                        "agg {j} of pod {pod} must reach core plane {j} once"
                    );
                }
            }
        }
    }

    #[test]
    fn clos_hop_classes() {
        let t = clos(&ClosSpec::smoke());
        let leaf = t.leaves()[0];
        assert_eq!(t.egress(leaf, 0).hop, HopClass::LeafUp);
    }

    #[test]
    #[should_panic(expected = "multiple of aggs_per_pod")]
    fn clos_rejects_ragged_core_planes() {
        let spec = ClosSpec {
            cores: 3,
            ..ClosSpec::smoke()
        };
        clos(&spec);
    }
}
