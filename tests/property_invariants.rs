//! Seeded property suite: randomized invariants across routing, the §3.4
//! control plane, DRILL selection, the shim, the packet arena, TCP, the
//! mergeable statistics and the shard partitioner.
//!
//! Std-only. Each property runs [`CASES`] cases; case `i` of property `p`
//! draws its inputs from `SimRng::derive(BASE_SEED, p, i)`, so every case
//! is reproducible from its name and index alone. A failing case prints
//! both and re-raises the original panic. There is no shrinking: the
//! input ranges are small enough that a failing case is readable as is.
//! The builder and sketch properties live in `builder_invariants.rs`.

use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

use drill::core::{
    decompose_groups, install_symmetric_groups_eager, DrillPolicy, Quiver, SymmetryEngine,
};
use drill::net::{
    clos, leaf_spine, leaf_spine_custom, vl2, ClosSpec, FlowId, HostId, LeafSpineSpec, Packet,
    PacketArena, PacketRef, QueueView, RouteTable, SelectCtx, ShardPlan, SwitchId, SwitchPolicy,
    Topology, Vl2Spec, DEFAULT_PROP,
};
use drill::runtime::random_leaf_spine_failures;
use drill::sim::{SimRng, Time};
use drill::stats::{Distribution, Histogram, Moments};
use drill::transport::{ShimBuffer, TcpConfig, TcpFlow};

/// Cases per property.
const CASES: u64 = 64;

/// Root of every case's generator stream.
const BASE_SEED: u64 = 0xD1_2017;

/// Input generator for one case. Ranges are half-open, like Rust ranges.
struct Gen(SimRng);

impl Gen {
    fn usize(&mut self, r: Range<usize>) -> usize {
        assert!(r.start < r.end, "empty range {r:?}");
        r.start + self.0.below(r.end - r.start)
    }

    fn u64(&mut self, r: Range<u64>) -> u64 {
        assert!(r.start < r.end, "empty range {r:?}");
        r.start + self.0.next_u64() % (r.end - r.start)
    }

    fn f64(&mut self, r: Range<f64>) -> f64 {
        r.start + self.0.unit() * (r.end - r.start)
    }

    fn bool(&mut self) -> bool {
        self.0.below(2) == 1
    }

    fn vec<T>(&mut self, len: Range<usize>, mut elem: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let n = self.usize(len);
        (0..n).map(|_| elem(self)).collect()
    }
}

/// Run `prop` on [`CASES`] generated cases; on the first failure, name
/// the case that reproduces it and re-raise its panic.
fn check(name: &str, prop: impl Fn(&mut Gen)) {
    for case in 0..CASES {
        let mut g = Gen(SimRng::derive(BASE_SEED, name, case));
        if let Err(panic) = catch_unwind(AssertUnwindSafe(|| prop(&mut g))) {
            eprintln!(
                "property `{name}` failed at case {case} of {CASES} \
                 (inputs: SimRng::derive({BASE_SEED:#x}, {name:?}, {case}))"
            );
            resume_unwind(panic);
        }
    }
}

/// Leaf-spine shapes: 2-5 spines and leaves, 1-3 hosts per leaf.
fn leaf_spine_spec(g: &mut Gen) -> LeafSpineSpec {
    LeafSpineSpec {
        spines: g.usize(2..6),
        leaves: g.usize(2..6),
        hosts_per_leaf: g.usize(1..4),
        host_rate: 10_000_000_000,
        core_rate: 40_000_000_000,
        prop: DEFAULT_PROP,
    }
}

/// Three-tier Clos shapes with independent tier widths; cores are always
/// a positive multiple of `aggs_per_pod` (the builder's precondition).
fn clos_spec(g: &mut Gen) -> ClosSpec {
    let pods = g.usize(2..5);
    let leaves_per_pod = g.usize(1..4);
    let aggs_per_pod = g.usize(1..4);
    let group = g.usize(1..4);
    ClosSpec {
        pods,
        leaves_per_pod,
        aggs_per_pod,
        cores: aggs_per_pod * group,
        hosts_per_leaf: g.usize(1..4),
        host_rate: 10_000_000_000,
        leaf_agg_rate: 40_000_000_000,
        agg_core_rate: 40_000_000_000,
        prop: DEFAULT_PROP,
    }
}

/// VL2 shapes, including under-connected ToRs (`tor_uplinks < aggs`).
fn vl2_spec(g: &mut Gen, hosts_per_tor: usize) -> Vl2Spec {
    let tors = g.usize(2..8);
    let aggs = g.usize(2..6);
    let ints = g.usize(1..5);
    let uplinks = g.usize(1..6);
    Vl2Spec {
        tors,
        aggs,
        ints,
        hosts_per_tor,
        host_rate: 1_000_000_000,
        core_rate: 10_000_000_000,
        tor_uplinks: uplinks.min(aggs),
        prop: DEFAULT_PROP,
    }
}

/// Fail `n` seeded random leaf uplinks in place (direction-agnostic).
fn fail_random_uplinks(topo: &mut Topology, n: usize, seed: u64) {
    for &(a, b) in &random_leaf_spine_failures(topo, n, seed) {
        let ok = topo.fail_switch_link(SwitchId(a), SwitchId(b), 0)
            || topo.fail_switch_link(SwitchId(b), SwitchId(a), 0);
        assert!(ok, "pair ({a}, {b}) matches no live link");
    }
}

/// The structural [`SymmetryEngine`] installs group tables identical to
/// the eager per-pair enumeration, and its report upholds the structural
/// invariants (classes never exceed entries, reuse is exactly the
/// difference, the lazy walk never enumerates more paths than eager).
/// Only fields both paths define identically are compared.
fn assert_structural_matches_eager(topo: &Topology) {
    let mut eager_routes = RouteTable::compute(topo);
    let eager = install_symmetric_groups_eager(topo, &mut eager_routes);
    let mut structural_routes = RouteTable::compute(topo);
    let structural = SymmetryEngine::new().install(topo, &mut structural_routes);
    for si in 0..topo.num_switches() as u32 {
        for d in 0..topo.num_leaves() as u32 {
            assert_eq!(
                eager_routes.groups(SwitchId(si), d),
                structural_routes.groups(SwitchId(si), d),
                "group tables diverged at switch {si} dst leaf {d}"
            );
        }
    }
    assert_eq!(eager.entries, structural.entries);
    assert_eq!(eager.asymmetric_entries, structural.asymmetric_entries);
    assert_eq!(eager.max_components, structural.max_components);
    assert!(structural.classes <= structural.entries);
    assert_eq!(
        structural.entries_reused,
        structural.entries - structural.classes
    );
    assert!(structural.paths_enumerated <= eager.paths_enumerated);
}

/// The automatic shard plan is a disjoint exact cover with no empty
/// shard, hosts colocated with their leaf, and every cross-shard link at
/// least as slow as the lookahead window. Ends with the plan's own
/// `validate`, so the production checker sees the same topologies.
fn assert_shard_plan_invariants(plan: &ShardPlan, topo: &Topology) {
    assert_eq!(plan.switch_shard.len(), topo.num_switches());
    assert_eq!(plan.host_shard.len(), topo.num_hosts());
    let mut seen = vec![false; plan.num_shards as usize];
    for &sh in &plan.switch_shard {
        assert!(sh < plan.num_shards, "out-of-range shard id {sh}");
        seen[sh as usize] = true;
    }
    assert!(seen.iter().all(|&s| s), "an empty shard survived");
    for h in 0..topo.num_hosts() {
        assert_eq!(
            plan.host_shard[h],
            plan.switch_shard[topo.host_leaf(HostId(h as u32)).index()],
            "host {h} not colocated with its leaf"
        );
    }
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
        assert!(plan.lookahead < Time::MAX, "bound is a real link latency");
    }
    plan.validate(topo);
}

struct FixedQueues(Vec<u64>);

impl QueueView for FixedQueues {
    fn visible_bytes(&self, p: u16) -> u64 {
        self.0[p as usize]
    }
    fn visible_pkts(&self, p: u16) -> u32 {
        (self.0[p as usize] / 1500) as u32
    }
    fn num_ports(&self) -> usize {
        self.0.len()
    }
}

/// Routing: in a healthy leaf-spine fabric every leaf pair is 2 hops
/// apart with all spines as candidates; after failing one uplink the
/// affected leaf loses exactly one candidate everywhere.
#[test]
fn routing_reachability() {
    check("routing_reachability", |g| {
        let spec = leaf_spine_spec(g);
        let fail_spine = g.usize(0..6);
        let mut topo = leaf_spine(&spec);
        let routes = RouteTable::compute(&topo);
        for (i, &a) in topo.leaves().iter().enumerate() {
            for j in 0..topo.num_leaves() as u32 {
                if i as u32 != j {
                    assert_eq!(routes.dist(a, j), Some(2));
                    assert_eq!(routes.candidates(a, j).len(), spec.spines);
                }
            }
        }
        let l0 = topo.leaves()[0];
        let spine = SwitchId((spec.leaves + fail_spine % spec.spines) as u32);
        assert!(topo.fail_switch_link(l0, spine, 0));
        let routes = RouteTable::compute(&topo);
        for j in 1..topo.num_leaves() as u32 {
            assert_eq!(routes.candidates(l0, j).len(), spec.spines - 1);
        }
    });
}

/// Decomposition: groups always partition the candidate set, and weights
/// are positive.
#[test]
fn decomposition_partitions() {
    check("decomposition_partitions", |g| {
        let spec = leaf_spine_spec(g);
        let fails = g.usize(0..3);
        let mut rng = SimRng::seed_from(g.u64(0..1000));
        let mut topo = leaf_spine(&spec);
        for _ in 0..fails {
            let leaf = topo.leaves()[rng.below(spec.leaves)];
            let spine = SwitchId((spec.leaves + rng.below(spec.spines)) as u32);
            let _ = topo.fail_switch_link(leaf, spine, 0);
        }
        let routes = RouteTable::compute(&topo);
        let quiver = Quiver::build(&topo, &routes);
        for si in 0..topo.num_switches() {
            let s = SwitchId(si as u32);
            for dst in 0..topo.num_leaves() as u32 {
                let cand = routes.candidates(s, dst);
                if cand.len() < 2 {
                    continue;
                }
                let groups = decompose_groups(&topo, &routes, &quiver, s, dst);
                let mut all: Vec<u16> = groups
                    .iter()
                    .flat_map(|g| g.ports.iter().copied())
                    .collect();
                all.sort_unstable();
                all.dedup();
                let mut c = cand.to_vec();
                c.sort_unstable();
                assert_eq!(all, c, "groups partition candidates");
                assert!(groups.iter().all(|g| g.weight >= 1));
            }
        }
    });
}

/// DRILL(d, m) always returns a candidate, for arbitrary queue states and
/// candidate subsets.
#[test]
fn drill_select_stays_in_candidates() {
    check("drill_select_stays_in_candidates", |g| {
        let d = g.usize(1..8);
        let m = g.usize(0..8);
        let engines = g.usize(1..4);
        let queues = g.vec(2..24, |g| g.u64(0..200_000));
        let seed = g.u64(0..10_000);
        let mut rng = SimRng::seed_from(seed);
        let n = queues.len();
        let view = FixedQueues(queues);
        let mut policy = DrillPolicy::new(d, m, engines);
        // Random subset of ports as candidates.
        let k = 1 + rng.below(n);
        let cand: Vec<u16> = rng
            .sample_indices(n, k)
            .into_iter()
            .map(|i| i as u16)
            .collect();
        for round in 0..20u32 {
            let ctx = SelectCtx {
                now: Time::from_nanos(round as u64 * 100),
                engine: round as usize % engines,
                flow_hash: seed ^ round as u64,
                flow: FlowId(round),
                dst_leaf: 0,
                candidates: &cand,
            };
            let sel = policy.select(&ctx, &view, &mut rng);
            assert!(cand.contains(&sel), "selected {sel} outside {cand:?}");
        }
    });
}

/// The shim delivers every packet exactly once, in sequence order within
/// each delivery batch, for arbitrary arrival permutations of a window;
/// every delivery releases its arena slot.
#[test]
fn shim_delivers_once_in_order() {
    check("shim_delivers_once_in_order", |g| {
        let n = g.usize(1..24);
        let mut rng = SimRng::seed_from(g.u64(0..10_000));
        let timeout = Time::from_micros(g.u64(1..500));
        let mut order: Vec<u64> = (0..n as u64).collect();
        rng.shuffle(&mut order);
        let mut arena = PacketArena::new();
        let mut shim = ShimBuffer::new(timeout);
        let mut delivered: Vec<u64> = Vec::new();
        let mut out: Vec<PacketRef> = Vec::new();
        let drain = |arena: &mut PacketArena, out: &mut Vec<PacketRef>, sink: &mut Vec<u64>| {
            let batch: Vec<u64> = out.drain(..).map(|r| arena.take(r).seq / 100).collect();
            assert!(
                batch.windows(2).all(|w| w[0] < w[1]),
                "batch out of order: {batch:?}"
            );
            sink.extend(batch);
        };
        let mut pending_timer: Option<(Time, u64)> = None;
        for (i, &k) in order.iter().enumerate() {
            let now = Time::from_micros(i as u64);
            // Fire an expired timer first, as the event loop would.
            if let Some((at, gen)) = pending_timer {
                if at <= now {
                    shim.on_timer(&arena, gen, at, &mut out);
                    drain(&mut arena, &mut out, &mut delivered);
                    pending_timer = None;
                }
            }
            let pkt = Packet::data(k, FlowId(0), HostId(0), HostId(1), 1, k * 100, 100, now);
            let r = arena.insert(pkt);
            let timer = shim.on_packet(&arena, r, now, &mut out);
            drain(&mut arena, &mut out, &mut delivered);
            if timer.is_some() {
                pending_timer = timer;
            }
        }
        if let Some((at, gen)) = pending_timer {
            shim.on_timer(&arena, gen, at, &mut out);
            drain(&mut arena, &mut out, &mut delivered);
        }
        delivered.sort_unstable();
        assert_eq!(delivered, (0..n as u64).collect::<Vec<_>>());
        assert_eq!(arena.live(), 0);
    });
}

/// The packet arena never aliases two live handles: under an arbitrary
/// interleaving of inserts and frees, every live handle still reads back
/// the packet it was issued for, and `live()` tracks the ground truth.
#[test]
fn arena_alloc_free_never_aliases() {
    check("arena_alloc_free_never_aliases", |g| {
        let ops = g.vec(1..300, Gen::bool);
        let mut rng = SimRng::seed_from(g.u64(0..10_000));
        let mut arena = PacketArena::new();
        let mut held: Vec<(PacketRef, u64)> = Vec::new();
        let mut next_id = 0u64;
        for &grow in &ops {
            if grow || held.is_empty() {
                let pkt = Packet::data(
                    next_id,
                    FlowId(0),
                    HostId(0),
                    HostId(1),
                    1,
                    0,
                    100,
                    Time::ZERO,
                );
                held.push((arena.insert(pkt), next_id));
                next_id += 1;
            } else {
                let (r, id) = held.swap_remove(rng.below(held.len()));
                assert_eq!(arena.take(r).id, id, "freed handle read wrong packet");
            }
            assert_eq!(arena.live(), held.len());
            // If two live handles shared a slot, one of them would read
            // back the other's packet here.
            for (r, id) in &held {
                assert_eq!(arena.get(r).id, *id, "live handle aliased");
            }
        }
        for (r, _) in held.drain(..) {
            arena.free(r);
        }
        assert_eq!(arena.live(), 0);
    });
}

/// TCP delivers a transfer completely over a lossy, reordering pipe:
/// every run terminates with all bytes ACKed, whatever the drop pattern
/// (as long as not everything is dropped).
#[test]
fn tcp_survives_loss_and_reordering() {
    check("tcp_survives_loss_and_reordering", |g| {
        let size = g.u64(1_000..200_000);
        let drop_mod = g.u64(5..50);
        let swap = g.bool();
        let seed = g.u64(0..1000);
        let cfg = TcpConfig {
            rto_min: Time::from_micros(500),
            rto_init: Time::from_micros(500),
            rto_max: Time::from_millis(5),
            init_cwnd: 10,
            ..Default::default()
        };
        let mut f = TcpFlow::new(FlowId(0), HostId(0), HostId(1), seed, size, Time::ZERO, cfg);
        let mut ids = 0u64;
        let mut wire: Vec<Packet> = Vec::new();
        let mut now = Time::ZERO;
        f.start_sending(now, &mut ids, &mut wire);
        let mut sent = 0u64;
        let mut guard = 0;
        while !f.is_done() {
            guard += 1;
            assert!(guard < 30_000, "livelock");
            now += Time::from_micros(20);
            let mut data = std::mem::take(&mut wire);
            if swap && data.len() >= 2 {
                data.swap(0, 1);
            }
            let mut acks = Vec::new();
            for p in &data {
                sent += 1;
                // Drop every drop_mod-th packet id, except every third of
                // those (ids keep increasing, so no chain drops forever).
                if p.id % drop_mod == 0 && p.id % (3 * drop_mod) != 0 {
                    continue;
                }
                f.on_data(p, now, &mut ids, &mut acks);
            }
            now += Time::from_micros(20);
            for a in &acks {
                f.on_ack(a, now, &mut ids, &mut wire);
            }
            // Drive the RTO when the window stalls.
            if wire.is_empty() && !f.is_done() {
                if let Some((at, gen)) = f.rto_deadline(now) {
                    now = at;
                    f.on_timer(gen, now, &mut ids, &mut wire);
                }
            }
        }
        assert_eq!(f.bytes_acked, size);
        assert!(sent > 0);
    });
}

/// Mergeable distributions: merge(a, b) equals a single pass over the
/// concatenated stream — exactly, since the store is sample-based. This
/// is what makes the sweep executor's cross-replication aggregation
/// equivalent to one big serial run.
#[test]
fn distribution_merge_equals_single_pass() {
    check("distribution_merge_equals_single_pass", |g| {
        let xs = g.vec(0..200, |g| g.f64(0.0..1e6));
        let ys = g.vec(0..200, |g| g.f64(0.0..1e6));
        let mut merged = Distribution::new();
        let (mut a, mut b) = (Distribution::new(), Distribution::new());
        for &x in &xs {
            merged.add(x);
            a.add(x);
        }
        for &y in &ys {
            merged.add(y);
            b.add(y);
        }
        a.merge(&b);
        assert_eq!(a.count(), merged.count());
        assert_eq!(a.mean().to_bits(), merged.mean().to_bits());
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 0.9999, 1.0] {
            assert_eq!(
                a.quantile(q).to_bits(),
                merged.quantile(q).to_bits(),
                "quantile {q} diverged"
            );
        }
    });
}

/// Mergeable moments: the Chan et al. combine agrees with a single-pass
/// Welford over the concatenation on count exactly and on mean/variance
/// to floating-point tolerance.
#[test]
fn moments_merge_equals_single_pass() {
    check("moments_merge_equals_single_pass", |g| {
        let xs = g.vec(0..200, |g| g.f64(-1e3..1e3));
        let ys = g.vec(0..200, |g| g.f64(-1e3..1e3));
        let mut merged = Moments::new();
        let (mut a, mut b) = (Moments::new(), Moments::new());
        for &x in &xs {
            merged.add(x);
            a.add(x);
        }
        for &y in &ys {
            merged.add(y);
            b.add(y);
        }
        a.merge(&b);
        assert_eq!(a.count(), merged.count());
        assert!((a.mean() - merged.mean()).abs() < 1e-9);
        assert!((a.variance() - merged.variance()).abs() < 1e-6);
    });
}

/// Mergeable histograms: per-bucket counts add exactly, whatever mix of
/// in-range and overflow values lands on either side.
#[test]
fn histogram_merge_equals_single_pass() {
    check("histogram_merge_equals_single_pass", |g| {
        let xs = g.vec(0..200, |g| g.usize(0..40));
        let ys = g.vec(0..200, |g| g.usize(0..40));
        let mut merged = Histogram::new(16);
        let (mut a, mut b) = (Histogram::new(16), Histogram::new(16));
        for &x in &xs {
            merged.add(x);
            a.add(x);
        }
        for &y in &ys {
            merged.add(y);
            b.add(y);
        }
        a.merge(&b);
        assert_eq!(a.total(), merged.total());
        for v in 0..40 {
            assert_eq!(a.count(v), merged.count(v));
            assert_eq!(
                a.frac_at_least(v).to_bits(),
                merged.frac_at_least(v).to_bits()
            );
        }
    });
}

/// Partitioner (leaf-spine): for any topology and requested shard count
/// the automatic plan satisfies the cover and lookahead invariants, and
/// clamps to one fabric shard plus one group per leaf.
#[test]
fn shard_plan_covers_leaf_spine_with_lookahead_bound() {
    check("shard_plan_covers_leaf_spine_with_lookahead_bound", |g| {
        let spec = leaf_spine_spec(g);
        let requested = g.usize(0..12);
        let topo = leaf_spine(&spec);
        let plan = ShardPlan::auto(&topo, requested);
        assert_shard_plan_invariants(&plan, &topo);
        assert!(plan.num_shards as usize <= 1 + spec.leaves);
        assert!(plan.num_shards as usize <= requested.max(1));
    });
}

/// Partitioner (VL2): the same invariants hold on random three-tier VL2
/// fabrics, including under-connected ones.
#[test]
fn shard_plan_covers_vl2_with_lookahead_bound() {
    check("shard_plan_covers_vl2_with_lookahead_bound", |g| {
        let hosts = g.usize(1..4);
        let spec = vl2_spec(g, hosts);
        let requested = g.usize(0..12);
        let topo = vl2(&spec);
        let plan = ShardPlan::auto(&topo, requested);
        assert_shard_plan_invariants(&plan, &topo);
    });
}

/// Structural == eager on random heterogeneously-striped leaf-spine
/// fabrics (every pair keeps at least one uplink, plus random extra
/// parallel links at mixed rates) with random failures.
#[test]
fn structural_matches_eager_on_random_striping() {
    check("structural_matches_eager_on_random_striping", |g| {
        let spec = leaf_spine_spec(g);
        let fails = g.usize(0..3);
        let seed = g.u64(0..1000);
        let mut rng = SimRng::seed_from(seed);
        let rates = [10_000_000_000u64, 25_000_000_000, 40_000_000_000];
        let stripe: Vec<Vec<Vec<u64>>> = (0..spec.leaves)
            .map(|_| {
                (0..spec.spines)
                    .map(|_| {
                        let n = 1 + rng.below(3);
                        (0..n).map(|_| rates[rng.below(rates.len())]).collect()
                    })
                    .collect()
            })
            .collect();
        let mut topo = leaf_spine_custom(&spec, |l, s| stripe[l][s].clone());
        fail_random_uplinks(&mut topo, fails, seed);
        assert_structural_matches_eager(&topo);
    });
}

/// Structural == eager on random VL2 fabrics with random failure sets,
/// including under-connected ToRs and failures that cut a ToR off from
/// part of the fabric.
#[test]
fn structural_matches_eager_on_random_vl2() {
    check("structural_matches_eager_on_random_vl2", |g| {
        let spec = vl2_spec(g, 1);
        let fails = g.usize(0..4);
        let seed = g.u64(0..1000);
        let mut topo = vl2(&spec);
        fail_random_uplinks(&mut topo, fails, seed);
        assert_structural_matches_eager(&topo);
    });
}

/// Structural == eager on random three-tier Clos fabrics with random
/// failure sets (failures below one pod must reshape group weights at
/// switches in every other pod).
#[test]
fn structural_matches_eager_on_random_clos() {
    check("structural_matches_eager_on_random_clos", |g| {
        let spec = clos_spec(g);
        let fails = g.usize(0..4);
        let seed = g.u64(0..1000);
        let mut topo = clos(&spec);
        fail_random_uplinks(&mut topo, fails, seed);
        assert_structural_matches_eager(&topo);
    });
}
