//! Symmetric component decomposition (§3.4.1 step 2) and installation into
//! the routing table.

use std::collections::HashMap;

use drill_net::{PortGroup, RouteTable, SwitchId, Topology};

use crate::quiver::{enumerate_shortest_paths, Quiver};

/// Summary of a grouping pass over the whole fabric.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GroupingReport {
    /// (switch, dst-leaf) entries examined (those with >1 candidate).
    pub entries: usize,
    /// Entries that decomposed into more than one symmetric component.
    pub asymmetric_entries: usize,
    /// Largest number of components in any entry.
    pub max_components: usize,
    /// Shortest paths actually enumerated. The eager path walks every
    /// leaf-to-leaf path twice (once for the Quiver, once per entry in
    /// [`decompose_groups`]); the structural engine only enumerates inside
    /// entries whose fingerprint is new *and* not provably one component,
    /// so this is 0 on symmetric fabrics.
    pub paths_enumerated: u64,
    /// Distinct structural equivalence classes among the examined entries
    /// (eager path: every entry is its own class, `classes == entries`).
    pub classes: usize,
    /// Entries whose group table was replicated from an already-decomposed
    /// class representative instead of being recomputed
    /// (`entries - classes` for the structural engine, 0 for eager).
    pub entries_reused: usize,
    /// Wall-clock time of the install pass, in nanoseconds.
    pub build_ns: u64,
}

/// Decompose the shortest paths from `switch` toward `dst_leaf` into
/// symmetric components of egress ports, weighted by aggregate path
/// capacity (§3.4.1 step 2).
///
/// Returns one [`PortGroup`] per component. A fully symmetric entry yields
/// a single group containing every candidate port.
pub fn decompose_groups(
    topo: &Topology,
    routes: &RouteTable,
    quiver: &Quiver,
    switch: SwitchId,
    dst_leaf: u32,
) -> Vec<PortGroup> {
    decompose_groups_counted(topo, routes, quiver, switch, dst_leaf).0
}

/// [`decompose_groups`] plus the number of paths it enumerated.
fn decompose_groups_counted(
    topo: &Topology,
    routes: &RouteTable,
    quiver: &Quiver,
    switch: SwitchId,
    dst_leaf: u32,
) -> (Vec<PortGroup>, u64) {
    let paths = enumerate_shortest_paths(topo, routes, switch, dst_leaf, Quiver::DEFAULT_PATH_CAP);
    let n = paths.len() as u64;
    let groups = group_scored_paths(paths.into_iter().map(|links| {
        let info = quiver.path_info(topo, links);
        (info.first_port, info.score, info.cap_bps)
    }));
    (groups, n)
}

/// Core of the §3.4.1 step-2 decomposition, shared by the eager
/// ([`decompose_groups`]) and structural ([`crate::SymmetryEngine`]) paths:
/// group scored paths `(first_port, score, cap_bps)` into symmetric
/// components of ports, weighted by aggregate capacity and gcd-reduced.
///
/// The "ports" need not be real egress ports — the structural engine calls
/// this in candidate-index space and maps indices to ports afterwards; the
/// output is identical because the candidate list is in ascending port
/// order, so index order and port order agree.
pub(crate) fn group_scored_paths(
    scored: impl IntoIterator<Item = (u16, Vec<u64>, u64)>,
) -> Vec<PortGroup> {
    // Group paths by score; accumulate per-group ports and capacity.
    let mut by_score: HashMap<Vec<u64>, (Vec<u16>, u128)> = HashMap::new();
    for (first_port, score, cap_bps) in scored {
        let entry = by_score.entry(score).or_default();
        if !entry.0.contains(&first_port) {
            entry.0.push(first_port);
        }
        entry.1 += cap_bps as u128;
    }
    let mut groups: Vec<(Vec<u16>, u128)> = by_score.into_values().collect();

    // A port carrying paths of two different scores cannot be split at
    // port granularity: merge such groups (conservative fallback; does not
    // occur in layered Clos fabrics, where downstream asymmetry is resolved
    // by the downstream switch's own decomposition).
    let mut merged = true;
    while merged {
        merged = false;
        'outer: for i in 0..groups.len() {
            for j in (i + 1)..groups.len() {
                if groups[i].0.iter().any(|p| groups[j].0.contains(p)) {
                    let (ports, w) = groups.swap_remove(j);
                    for p in ports {
                        if !groups[i].0.contains(&p) {
                            groups[i].0.push(p);
                        }
                    }
                    groups[i].1 += w;
                    merged = true;
                    break 'outer;
                }
            }
        }
    }

    // Deterministic order + reduced integer weights.
    for g in &mut groups {
        g.0.sort_unstable();
    }
    groups.sort_by(|a, b| a.0.cmp(&b.0));
    let gcd_all = groups.iter().fold(0u128, |acc, g| gcd(acc, g.1.max(1)));
    groups
        .into_iter()
        .map(|(ports, w)| PortGroup {
            ports,
            weight: (w.max(1) / gcd_all.max(1)).max(1) as u64,
        })
        .collect()
}

fn gcd(mut a: u128, mut b: u128) -> u128 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Run DRILL's control plane over the whole fabric and install the
/// component groups into the routing table.
///
/// This is the structural (§3.4-at-scale) path: a one-shot
/// [`crate::SymmetryEngine`] install, which produces the exact same group
/// tables as [`install_symmetric_groups_eager`] without enumerating the
/// whole fabric's paths. Keep the engine itself (see
/// [`crate::SymmetryEngine::install`]) when reinstalling after faults to
/// also reuse work across reconvergences.
///
/// Entries that remain fully symmetric get their groups cleared (the data
/// plane then micro load balances over the whole candidate set with no
/// hashing step, exactly as in the symmetric design).
pub fn install_symmetric_groups(topo: &Topology, routes: &mut RouteTable) -> GroupingReport {
    crate::SymmetryEngine::new().install(topo, routes)
}

/// The original enumerative control plane: build the global [`Quiver`]
/// (every leaf-to-leaf shortest path), then decompose every
/// multi-candidate (switch, dst-leaf) entry independently — re-walking
/// each entry's paths a second time.
///
/// O(leaves² × paths) in time and memory; kept only as the
/// differential-test oracle for the structural engine.
pub fn install_symmetric_groups_eager(topo: &Topology, routes: &mut RouteTable) -> GroupingReport {
    let start = std::time::Instant::now();
    let quiver = Quiver::build(topo, routes);
    let mut report = GroupingReport {
        paths_enumerated: quiver.paths_enumerated,
        ..Default::default()
    };
    for si in 0..topo.num_switches() {
        let s = SwitchId(si as u32);
        for dst_leaf in 0..topo.num_leaves() as u32 {
            if routes.candidates(s, dst_leaf).len() < 2 {
                continue;
            }
            report.entries += 1;
            let (groups, walked) = decompose_groups_counted(topo, routes, &quiver, s, dst_leaf);
            // decompose_groups re-enumerated this entry's paths on top of
            // the Quiver's own walk: count the double work honestly.
            report.paths_enumerated += walked;
            report.max_components = report.max_components.max(groups.len());
            if groups.len() > 1 {
                report.asymmetric_entries += 1;
                routes.set_groups(s, dst_leaf, groups);
            } else {
                routes.set_groups(s, dst_leaf, Vec::new());
            }
        }
    }
    report.classes = report.entries;
    report.build_ns = start.elapsed().as_nanos() as u64;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use drill_net::{leaf_spine, leaf_spine_custom, vl2, LeafSpineSpec, Vl2Spec, DEFAULT_PROP};

    fn spec(spines: usize, leaves: usize) -> LeafSpineSpec {
        LeafSpineSpec {
            spines,
            leaves,
            hosts_per_leaf: 1,
            host_rate: 10_000_000_000,
            core_rate: 40_000_000_000,
            prop: DEFAULT_PROP,
        }
    }

    #[test]
    fn symmetric_fabric_single_group() {
        let topo = leaf_spine(&spec(4, 4));
        let mut routes = RouteTable::compute(&topo);
        let report = install_symmetric_groups(&topo, &mut routes);
        assert_eq!(report.asymmetric_entries, 0);
        assert_eq!(report.max_components, 1);
        // Routing table keeps implicit single groups.
        let l0 = topo.leaves()[0];
        assert!(routes.groups(l0, 1).is_empty());
    }

    #[test]
    fn figure4_decomposition() {
        // Fig 4: L0-S0 fails. L3's paths to L1 decompose into {P0} (via S0)
        // and {P1, P2} (via S1, S2) with weights 1:2.
        let mut topo = leaf_spine(&spec(3, 4));
        let l0 = topo.leaves()[0];
        topo.fail_switch_link(l0, SwitchId(4), 0);
        let mut routes = RouteTable::compute(&topo);
        let quiver = Quiver::build(&topo, &routes);
        let l3 = topo.leaves()[3];
        let groups = decompose_groups(&topo, &routes, &quiver, l3, 1);
        assert_eq!(groups.len(), 2);
        // Identify the group containing the S0 port.
        let s0_ports = topo.ports_to_switch(l3, SwitchId(4));
        let g_s0 = groups
            .iter()
            .find(|g| g.ports == s0_ports)
            .expect("S0 component");
        let g_rest = groups.iter().find(|g| g.ports != s0_ports).unwrap();
        assert_eq!(g_s0.ports.len(), 1);
        assert_eq!(g_rest.ports.len(), 2);
        // Aggregate capacities 40G vs 80G -> weights 1:2.
        assert_eq!(g_rest.weight, 2 * g_s0.weight);

        // install pass records the asymmetry fabric-wide.
        let report = install_symmetric_groups(&topo, &mut routes);
        assert!(report.asymmetric_entries > 0);
        // (The spine that lost its L0 link gains inert 3-hop detour routes
        // toward leaf 0 which decompose into singleton components, so the
        // fabric-wide max can exceed 2.)
        assert!(report.max_components >= 2);
        assert_eq!(routes.groups(l3, 1).len(), 2);
    }

    #[test]
    fn affected_leaf_keeps_symmetric_remainder() {
        // L0 itself (which lost its S0 uplink) has only S1/S2 paths left,
        // and those are symmetric with each other: a single group.
        let mut topo = leaf_spine(&spec(3, 4));
        let l0 = topo.leaves()[0];
        topo.fail_switch_link(l0, SwitchId(4), 0);
        let mut routes = RouteTable::compute(&topo);
        install_symmetric_groups(&topo, &mut routes);
        assert!(
            routes.groups(l0, 1).is_empty(),
            "two symmetric paths, one group"
        );
        assert_eq!(routes.candidates(l0, 1).len(), 2);
    }

    #[test]
    fn heterogeneous_striping_weights() {
        // §3.4.3 example: among L0->L1 paths, {H0 via S0, H2 via S2} form
        // one component (cap 40G + 10G), {H1 via S1} the other (cap 10G,
        // bottlenecked by S1-L1).
        let s = LeafSpineSpec {
            spines: 3,
            leaves: 4,
            hosts_per_leaf: 1,
            host_rate: 10_000_000_000,
            core_rate: 10_000_000_000,
            prop: DEFAULT_PROP,
        };
        let topo = leaf_spine_custom(&s, |leaf, spine| {
            let fat = (leaf == 0 && spine <= 1) || (leaf == 1 && spine == 0);
            vec![if fat { 40_000_000_000 } else { 10_000_000_000 }]
        });
        let mut routes = RouteTable::compute(&topo);
        let quiver = Quiver::build(&topo, &routes);
        let l0 = topo.leaves()[0];
        let groups = decompose_groups(&topo, &routes, &quiver, l0, 1);
        assert_eq!(groups.len(), 2);
        let s1_ports = topo.ports_to_switch(l0, SwitchId(5));
        let g_h1 = groups
            .iter()
            .find(|g| g.ports == s1_ports)
            .expect("S1 alone");
        let g_h02 = groups.iter().find(|g| g.ports != s1_ports).unwrap();
        assert_eq!(g_h02.ports.len(), 2);
        // Weights: (40+10) : 10 = 5 : 1.
        assert_eq!(g_h02.weight, 5);
        assert_eq!(g_h1.weight, 1);
        install_symmetric_groups(&topo, &mut routes);
        assert_eq!(routes.groups(l0, 1).len(), 2);
    }

    #[test]
    fn parallel_links_stay_one_group_when_symmetric() {
        // Figure 13-style extra parallel links, but uniform rates across
        // the fabric: leaf 0 has two links to spine 0. Both parallel links
        // carry identical labels, so everything stays one component.
        let s = spec(3, 3);
        let topo = leaf_spine_custom(&s, |leaf, spine| {
            if leaf == spine {
                vec![s.core_rate; 2]
            } else {
                vec![s.core_rate]
            }
        });
        let mut routes = RouteTable::compute(&topo);
        let report = install_symmetric_groups(&topo, &mut routes);
        // The doubled striping *is* an asymmetry between spine paths:
        // paths via the doubled spine differ from singles.
        assert!(report.entries > 0);
        let l0 = topo.leaves()[0];
        let groups = routes.groups(l0, 1);
        if !groups.is_empty() {
            // Whatever the decomposition, it must partition all 4 ports.
            let total: usize = groups.iter().map(|g| g.ports.len()).sum();
            assert_eq!(total, routes.candidates(l0, 1).len());
        }
    }

    #[test]
    fn vl2_failure_decomposes_at_remote_tor() {
        // Figure 5 analog: fail a ToR-Agg link and check that some remote
        // switch sees a multi-component decomposition.
        let mut topo = vl2(&Vl2Spec::paper());
        let tor0 = topo.leaves()[0];
        // ToR0's first uplink goes to Agg (id 16).
        assert!(topo.fail_switch_link(tor0, SwitchId(16), 0));
        let mut routes = RouteTable::compute(&topo);
        let report = install_symmetric_groups(&topo, &mut routes);
        assert!(
            report.asymmetric_entries > 0,
            "failure creates asymmetric entries"
        );
        // Groups always partition candidates wherever installed.
        for si in 0..topo.num_switches() {
            let s = SwitchId(si as u32);
            for leaf in 0..topo.num_leaves() as u32 {
                let groups = routes.groups(s, leaf);
                if groups.is_empty() {
                    continue;
                }
                let mut all: Vec<u16> = groups
                    .iter()
                    .flat_map(|g| g.ports.iter().copied())
                    .collect();
                all.sort_unstable();
                let mut cand = routes.candidates(s, leaf).to_vec();
                cand.sort_unstable();
                assert_eq!(all, cand);
            }
        }
    }

    #[test]
    fn weights_are_reduced() {
        let mut topo = leaf_spine(&spec(3, 4));
        let l0 = topo.leaves()[0];
        topo.fail_switch_link(l0, SwitchId(4), 0);
        let routes = RouteTable::compute(&topo);
        let quiver = Quiver::build(&topo, &routes);
        let groups = decompose_groups(&topo, &routes, &quiver, topo.leaves()[3], 1);
        let mut ws: Vec<u64> = groups.iter().map(|g| g.weight).collect();
        ws.sort_unstable();
        assert_eq!(ws, vec![1, 2], "weights reduced by gcd");
    }
}
