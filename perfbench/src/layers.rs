//! Per-layer replays: each layer's public API driven from outside, sized
//! from the workload's own config and built topology.
//!
//! Every replay states its sizing rule beside its metric (see
//! [`Metric::rule`]); nothing is sized from a constant that ignores the
//! workload. Timed micro loops report the median of [`REPS`] repetitions
//! after one warm-up.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use drill_core::{DrillPolicy, GroupingReport, SymmetryEngine};
use drill_lb::{CongaConfig, CongaPolicy, EcmpPolicy};
use drill_net::{
    FlowId, HopClass, HostId, NetEvent, Packet, PacketArena, QueueView, RouteTable, SelectCtx,
    Switch, SwitchConfig, SwitchId, SwitchPolicy, Topology,
};
use drill_runtime::{ExperimentConfig, Scheme};
use drill_sim::{SimRng, Time, WheelQueue};
use drill_stats::Distribution;
use drill_telemetry::NoopProbe;
use drill_transport::{ShimBuffer, TcpFlow};
use drill_workload::{aggregate_flow_rate, ArrivalProcess, WorkloadGen};

use crate::trace::{SpanId, Tracer};

/// Timed repetitions per micro loop (after one warm-up).
pub const REPS: usize = 5;

/// Host seconds the control-plane replays may spend on repetitions
/// beyond the first.
const CP_BUDGET_S: f64 = 6.0;

/// Full-size data packet payload (1500-byte frames).
const PAYLOAD: u32 = 1442;

/// One per-layer metric with its unit and sizing rule.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name (`layer.what`).
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// How the replay behind it is sized from the workload.
    pub rule: String,
}

/// Median of `xs` (upper median for even lengths).
pub fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// One warm-up, then the median over [`REPS`] runs of `f`, which returns
/// (operations, seconds); reported in ns per operation.
fn ns_per_op(mut f: impl FnMut() -> (u64, f64)) -> f64 {
    f();
    median(
        (0..REPS)
            .map(|_| {
                let (ops, secs) = f();
                secs * 1e9 / ops as f64
            })
            .collect(),
    )
}

/// The workload facts every replay is sized from.
pub struct LayerCtx {
    /// The representative point (the one running DRILL).
    pub cfg: ExperimentConfig,
    /// The built topology with the set-up failures applied.
    pub topo: Topology,
    /// The link the warm reinstall fails (the workload's flap link).
    pub flap: (u32, u32),
    /// Flows started per point in the traced run.
    pub flows_per_point: u64,
}

impl LayerCtx {
    /// Resident population for the event-queue and arena loops: one per
    /// directed link, the packets a fabric running at load keeps in
    /// flight (each busy link holds one serialising packet).
    fn resident(&self) -> usize {
        self.topo.links().len()
    }

    /// Serialisation time of a full frame on a host link, ns.
    fn host_tx_ns(&self) -> u64 {
        let rate = self.topo.host_uplink(HostId(0)).rate_bps;
        Time::tx_time((PAYLOAD + drill_net::HEADER_BYTES) as u64, rate).as_nanos()
    }

    /// The first leaf and its fabric uplink ports.
    fn leaf0(&self) -> (SwitchId, Vec<u16>) {
        let leaf = self.topo.leaves()[0];
        let ups = (0..self.topo.num_ports(leaf) as u16)
            .filter(|&p| {
                let l = self.topo.egress(leaf, p);
                l.up && l.hop == HopClass::LeafUp
            })
            .collect();
        (leaf, ups)
    }

    /// Mean gap between full frames leaving the first leaf's uplinks at
    /// the workload's offered load, ns.
    fn leaf_pkt_gap_ns(&self) -> f64 {
        let (leaf, ups) = self.leaf0();
        let bps: u64 = ups
            .iter()
            .map(|&p| self.topo.egress(leaf, p).rate_bps)
            .sum();
        let load = self.cfg.workload.load;
        ((PAYLOAD + drill_net::HEADER_BYTES) as f64 * 8.0) / (load * bps as f64) * 1e9
    }

    fn drill_dm(&self) -> (usize, usize) {
        match self.cfg.scheme {
            Scheme::Drill { d, m, .. } => (d, m),
            other => panic!("replays are sized from a DRILL point, not {}", other.name()),
        }
    }
}

/// Fixed visible queue depths for the selection loops.
struct FakeQueues(Vec<u64>);

impl QueueView for FakeQueues {
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

/// Fail or restore the switch pair `(a, b)`, either orientation.
pub fn set_link(topo: &mut Topology, (a, b): (u32, u32), up: bool) {
    let ok = if up {
        topo.restore_switch_link(SwitchId(a), SwitchId(b), 0)
            || topo.restore_switch_link(SwitchId(b), SwitchId(a), 0)
    } else {
        topo.fail_switch_link(SwitchId(a), SwitchId(b), 0)
            || topo.fail_switch_link(SwitchId(b), SwitchId(a), 0)
    };
    assert!(ok, "pair ({a},{b}) matches no switch-to-switch link");
}

/// Run every layer replay for `ctx`, recording one span per replay under
/// `parent`. Returns the metrics in report order.
pub fn replay_all(ctx: &mut LayerCtx, tr: &mut Tracer, parent: SpanId, run: u32) -> Vec<Metric> {
    let seed = ctx.cfg.seed;
    let mut out = Vec::new();
    let mut push = |name, value, unit, rule: String| {
        out.push(Metric {
            name,
            value,
            unit,
            rule,
        })
    };

    // Set-up, split: topology build, route compute, cold and warm §3.4
    // installs on the workload's own fabric and failure set.
    let topo_s = tr.span("replay.net.topo_build", Some(parent), run, || {
        median(
            (0..REPS)
                .map(|_| {
                    let t = Instant::now();
                    black_box(ctx.cfg.topo.build());
                    t.elapsed().as_secs_f64()
                })
                .collect(),
        )
    });
    push(
        "net.topo_build_s",
        topo_s,
        "s",
        "TopoSpec::build of the workload's fabric".into(),
    );
    let route_s = tr.span("replay.net.route_compute", Some(parent), run, || {
        median(
            (0..REPS)
                .map(|_| {
                    let t = Instant::now();
                    black_box(RouteTable::compute(&ctx.topo));
                    t.elapsed().as_secs_f64()
                })
                .collect(),
        )
    });
    push(
        "net.route_compute_s",
        route_s,
        "s",
        "RouteTable::compute on the fabric with its set-up failures".into(),
    );

    let cp = tr.open("replay.core.control_plane", Some(parent), run);
    let mut cold = Vec::new();
    let mut warm = Vec::new();
    let mut first: Option<(GroupingReport, RouteTable)> = None;
    let cp_start = Instant::now();
    while cold.is_empty() || (cp_start.elapsed().as_secs_f64() < CP_BUDGET_S && cold.len() < REPS) {
        let mut engine = SymmetryEngine::new();
        let mut r = RouteTable::compute(&ctx.topo);
        let t = Instant::now();
        let rep = engine.install(&ctx.topo, &mut r);
        cold.push(t.elapsed().as_secs_f64());
        first.get_or_insert((rep, r));
        set_link(&mut ctx.topo, ctx.flap, false);
        let mut r2 = RouteTable::compute(&ctx.topo);
        let t = Instant::now();
        black_box(engine.install(&ctx.topo, &mut r2));
        warm.push(t.elapsed().as_secs_f64());
        set_link(&mut ctx.topo, ctx.flap, true);
    }
    tr.close(cp, 0);
    let (report, routes) = first.expect("at least one control-plane repetition");
    push(
        "core.cp_install_s",
        median(cold),
        "s",
        "cold SymmetryEngine::install on the fabric with its set-up failures".into(),
    );
    push(
        "core.cp_reinstall_s",
        median(warm),
        "s",
        format!(
            "warm install on the same engine after link ({}, {}) fails",
            ctx.flap.0, ctx.flap.1
        ),
    );
    push(
        "core.cp_entries",
        report.entries as f64,
        "count",
        "GroupingReport of the cold install".into(),
    );
    push(
        "core.cp_classes",
        report.classes as f64,
        "count",
        "GroupingReport of the cold install".into(),
    );
    push(
        "core.cp_paths_walked",
        report.paths_enumerated as f64,
        "count",
        "GroupingReport of the cold install".into(),
    );
    push(
        "core.cp_reuse_ratio",
        report.entries_reused as f64 / report.entries.max(1) as f64,
        "ratio",
        format!(
            "entries_reused / entries = {} / {}",
            report.entries_reused, report.entries
        ),
    );

    let resident = ctx.resident();
    let tx_ns = ctx.host_tx_ns();
    let v = tr.span("replay.sim.wheel", Some(parent), run, || {
        wheel_hold(resident, tx_ns, seed)
    });
    push(
        "sim.wheel_ns_per_op",
        v,
        "ns",
        format!("pop+push hold loop, {resident} resident events (one per directed link), gaps ~ {tx_ns} ns frame time"),
    );
    let v = tr.span("replay.net.arena", Some(parent), run, || {
        arena_churn(resident)
    });
    push(
        "net.arena_ns_per_op",
        v,
        "ns",
        format!("insert+take of a data packet, {resident} live (one per directed link)"),
    );
    let v = tr.span("replay.net.switch", Some(parent), run, || {
        switch_path(ctx, &routes)
    });
    push(
        "net.switch_ns_per_pkt",
        v,
        "ns",
        format!(
            "Switch::receive -> commit -> on_tx_done at the first leaf, {} engines, {}, arrivals at load {} of its uplinks",
            ctx.cfg.engines,
            ctx.cfg.scheme.name(),
            ctx.cfg.workload.load
        ),
    );
    let entries_n = ctx.topo.num_switches() * ctx.topo.num_leaves();
    let v = tr.span("replay.net.route_lookup", Some(parent), run, || {
        route_lookup(&ctx.topo, &routes, seed)
    });
    push(
        "net.route_lookup_ns",
        v,
        "ns",
        format!("candidates+groups at random (switch, dst_leaf) over the installed {entries_n}-entry table"),
    );

    let (leaf, _) = ctx.leaf0();
    let dst_leaf = ctx.topo.num_leaves() as u32 - 1;
    let cands: Vec<u16> = routes.candidates(leaf, dst_leaf).to_vec();
    let (d, m) = ctx.drill_dm();
    let engines = ctx.cfg.engines;
    let gap_ns = ctx.leaf_pkt_gap_ns();
    let flows = ctx.topo.num_hosts() as u64;
    let queues = {
        let mut rng = SimRng::derive(seed, "perfbench.queues", 0);
        FakeQueues(
            (0..ctx.topo.num_ports(leaf))
                .map(|_| rng.below(20 * 1500) as u64)
                .collect(),
        )
    };
    let sel_rule = |what: &str| {
        format!(
            "{what} at the first leaf toward leaf {dst_leaf}: {} candidates, {engines} engines, {flows} flows (one per host), a packet every {gap_ns:.0} ns",
            cands.len()
        )
    };
    let v = tr.span("replay.core.select", Some(parent), run, || {
        select_loop(
            &mut DrillPolicy::new(d, m, engines),
            dst_leaf,
            &cands,
            &queues,
            engines,
            flows,
            gap_ns,
            seed,
        )
    });
    push(
        "core.select_ns",
        v,
        "ns",
        sel_rule(&format!("DrillPolicy({d},{m})::select")),
    );
    let v = tr.span("replay.lb.ecmp", Some(parent), run, || {
        select_loop(
            &mut EcmpPolicy,
            dst_leaf,
            &cands,
            &queues,
            engines,
            flows,
            gap_ns,
            seed,
        )
    });
    push("lb.ecmp.select_ns", v, "ns", sel_rule("EcmpPolicy::select"));
    let v = tr.span("replay.lb.conga", Some(parent), run, || {
        let mut p = CongaPolicy::build(&ctx.topo, leaf, CongaConfig::default());
        select_loop(
            &mut p, dst_leaf, &cands, &queues, engines, flows, gap_ns, seed,
        )
    });
    push(
        "lb.conga.select_ns",
        v,
        "ns",
        sel_rule("CongaPolicy::select"),
    );

    let v = tr.span("replay.transport.tcp", Some(parent), run, || {
        tcp_perfect_pipe(&ctx.cfg, seed)
    });
    push(
        "transport.tcp_ns_per_seg",
        v,
        "ns",
        "perfect-pipe transfers, sizes drawn from the workload's size distribution at its seed, its TcpConfig".into(),
    );
    let (threshold, timeout) = ctx.cfg.scheme.shim_params();
    let v = tr.span("replay.transport.shim", Some(parent), run, || {
        shim_reorder(threshold, timeout, seed)
    });
    push(
        "transport.shim_ns_per_pkt",
        v,
        "ns",
        format!("ShimBuffer::on_packet, threshold {threshold}, 1 in 8 adjacent pairs swapped"),
    );
    let v = tr.span("replay.workload.gen", Some(parent), run, || {
        workload_gen(&ctx.cfg, &ctx.topo)
    });
    push(
        "workload.gen_ns_per_flow",
        v,
        "ns",
        format!(
            "WorkloadGen::next_flow with the workload's sizes, arrivals and pattern at load {}",
            ctx.cfg.workload.load
        ),
    );
    let per_dist = ctx.flows_per_point.max(1_000);
    let v = tr.span("replay.stats.add", Some(parent), run, || {
        stats_add(per_dist as usize, seed)
    });
    push(
        "stats.add_ns",
        v,
        "ns",
        format!(
            "Distribution::add, {per_dist} samples per distribution (the run's flows per point)"
        ),
    );
    out
}

/// `sim.wheel_ns_per_op`: a pop+push hold loop on the simulator's timing
/// wheel at `resident` pending events.
fn wheel_hold(resident: usize, tx_ns: u64, seed: u64) -> f64 {
    const ITERS: usize = 2_000_000;
    ns_per_op(|| {
        let mut q: WheelQueue<u64> = WheelQueue::new();
        let mut rng = SimRng::derive(seed, "perfbench.wheel", 0);
        let spread = (tx_ns * 8) as usize;
        for i in 0..resident {
            q.push(Time::from_nanos(1 + rng.below(spread) as u64), i as u64);
        }
        let start = Instant::now();
        for _ in 0..ITERS {
            let (t, p) = q.pop().expect("the queue holds the resident population");
            black_box(p);
            // Mostly serialisation-scale gaps, occasionally a timer.
            let gap = if rng.below(16) == 0 {
                rng.below(1 << 22) as u64
            } else {
                rng.below(2 * tx_ns as usize) as u64
            };
            q.push(t + Time::from_nanos(1 + gap), p);
        }
        (ITERS as u64, start.elapsed().as_secs_f64())
    })
}

fn data_packet(id: u64, src: u32, dst: u32, flow_hash: u64, now: Time) -> Packet {
    Packet::data(
        id,
        FlowId(src),
        HostId(src),
        HostId(dst),
        flow_hash,
        0,
        PAYLOAD,
        now,
    )
}

/// `net.arena_ns_per_op`: FIFO insert+take at `live` interned packets.
fn arena_churn(live: usize) -> f64 {
    const ITERS: u64 = 2_000_000;
    ns_per_op(|| {
        let mut arena = PacketArena::new();
        let mut fifo = VecDeque::with_capacity(live + 1);
        for i in 0..live as u64 {
            fifo.push_back(arena.insert(data_packet(i, 0, 1, i, Time::ZERO)));
        }
        let start = Instant::now();
        for i in 0..ITERS {
            fifo.push_back(arena.insert(data_packet(i, 0, 1, i, Time::ZERO)));
            let old = fifo.pop_front().expect("fifo holds the live population");
            black_box(arena.take(old));
        }
        let secs = start.elapsed().as_secs_f64();
        for r in fifo {
            arena.free(r);
        }
        assert_eq!(arena.live(), 0, "arena replay leaked");
        (ITERS, secs)
    })
}

/// `net.switch_ns_per_pkt`: the first leaf built exactly as the runtime
/// builds it, fed full frames from its own hosts to hosts on other
/// leaves, with the commit / tx-done events it emits replayed in time
/// order by the simulator's timing wheel (whose cost is included).
fn switch_path(ctx: &LayerCtx, routes: &RouteTable) -> f64 {
    const PKTS: u64 = 300_000;
    let topo = &ctx.topo;
    let cfg = &ctx.cfg;
    let (leaf, _) = ctx.leaf0();
    let srcs = topo.hosts_of_leaf(leaf);
    let others: Vec<u32> = (0..topo.num_hosts() as u32)
        .filter(|&h| topo.host_leaf(HostId(h)) != leaf)
        .collect();
    let gap = ctx.leaf_pkt_gap_ns();
    ns_per_op(|| {
        let sw_cfg = SwitchConfig {
            engines: cfg.engines,
            queue_limit_bytes: cfg.queue_limit_bytes,
            model_enqueue_commit: cfg.model_commit,
        };
        let policy = cfg
            .scheme
            .make_switch_policy(topo, routes, leaf, cfg.engines);
        let mut sw = Switch::new(leaf, topo.num_ports(leaf), sw_cfg, policy);
        sw.sync_link_state(topo);
        let mut arena = PacketArena::new();
        let mut rng = SimRng::derive(cfg.seed, "perfbench.switch", 0);
        let mut queue: WheelQueue<NetEvent> = WheelQueue::new();
        let mut out = Vec::new();
        let dispatch = |now: Time,
                        ev: NetEvent,
                        sw: &mut Switch,
                        arena: &mut PacketArena,
                        rng: &mut SimRng,
                        out: &mut Vec<(Time, NetEvent)>| match ev {
            NetEvent::EnqueueCommit {
                port,
                bytes,
                engine,
                ..
            } => sw.on_enqueue_commit(port, bytes, engine),
            NetEvent::SwitchTxDone { port, .. } => {
                sw.on_tx_done(topo, arena, port, now, rng, out, &mut NoopProbe)
            }
            NetEvent::ArriveSwitch { pkt, .. } | NetEvent::ArriveHost { pkt, .. } => {
                arena.free(pkt)
            }
            NetEvent::HostTxDone { .. } => {}
        };
        let start = Instant::now();
        let mut next = 0.0f64;
        for i in 0..PKTS {
            let now = Time::from_nanos(next as u64);
            next += gap;
            while queue.peek_time().is_some_and(|at| at <= now) {
                let (at, ev) = queue.pop().expect("peeked an event");
                dispatch(at, ev, &mut sw, &mut arena, &mut rng, &mut out);
                out.drain(..).for_each(|(at, ev)| queue.push(at, ev));
            }
            let src = srcs[i as usize % srcs.len()];
            let dst = others[rng.below(others.len())];
            let pref = arena.insert(data_packet(i, src.0, dst, rng.next_u64(), now));
            let ingress = topo.host_uplink(src).dst_port;
            sw.receive(
                topo,
                routes,
                &mut arena,
                pref,
                ingress,
                now,
                &mut rng,
                &mut out,
                &mut NoopProbe,
            );
            out.drain(..).for_each(|(at, ev)| queue.push(at, ev));
        }
        while let Some((at, ev)) = queue.pop() {
            dispatch(at, ev, &mut sw, &mut arena, &mut rng, &mut out);
            out.drain(..).for_each(|(at, ev)| queue.push(at, ev));
        }
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(arena.live(), 0, "switch replay leaked packets");
        (PKTS, secs)
    })
}

/// `net.route_lookup_ns`: `candidates` + `groups` at random
/// (switch, dst_leaf) pairs over the installed table.
fn route_lookup(topo: &Topology, routes: &RouteTable, seed: u64) -> f64 {
    const ITERS: usize = 4_000_000;
    let mut rng = SimRng::derive(seed, "perfbench.routes", 0);
    let keys: Vec<(SwitchId, u32)> = (0..1 << 16)
        .map(|_| {
            (
                SwitchId(rng.below(topo.num_switches()) as u32),
                rng.below(topo.num_leaves()) as u32,
            )
        })
        .collect();
    ns_per_op(|| {
        let start = Instant::now();
        let mut acc = 0usize;
        for i in 0..ITERS {
            let (s, d) = keys[i & (keys.len() - 1)];
            acc += routes.candidates(s, d).len() + routes.groups(s, d).len();
        }
        black_box(acc);
        (ITERS as u64, start.elapsed().as_secs_f64())
    })
}

/// `*.select_ns`: one policy's `select` over a fixed candidate set, with
/// a pool of `flows` flow hashes and simulated time advancing one packet
/// gap per decision.
#[allow(clippy::too_many_arguments)]
fn select_loop(
    policy: &mut dyn SwitchPolicy,
    dst_leaf: u32,
    cands: &[u16],
    queues: &FakeQueues,
    engines: usize,
    flows: u64,
    gap_ns: f64,
    seed: u64,
) -> f64 {
    const ITERS: u64 = 2_000_000;
    ns_per_op(|| {
        let mut rng = SimRng::derive(seed, "perfbench.select", 0);
        let hashes: Vec<u64> = (0..flows).map(|_| rng.next_u64()).collect();
        let start = Instant::now();
        let mut acc = 0u64;
        for i in 0..ITERS {
            let f = (i * 0x9e37_79b9) % flows;
            let ctx = SelectCtx {
                now: Time::from_nanos((i as f64 * gap_ns) as u64),
                engine: i as usize % engines,
                flow_hash: hashes[f as usize],
                flow: FlowId(f as u32),
                dst_leaf,
                candidates: cands,
            };
            acc += policy.select(&ctx, queues, &mut rng) as u64;
        }
        black_box(acc);
        (ITERS, start.elapsed().as_secs_f64())
    })
}

/// `transport.tcp_ns_per_seg`: TCP transfers over a perfect pipe (every
/// segment delivered, ACKed 10 µs later), sizes from the workload's
/// distribution.
fn tcp_perfect_pipe(cfg: &ExperimentConfig, seed: u64) -> f64 {
    const MIN_SEGS: u64 = 300_000;
    ns_per_op(|| {
        let mut rng = SimRng::derive(seed, "perfbench.tcp", 0);
        let mut ids = 0u64;
        let mut segs = 0u64;
        let mut flight: Vec<Packet> = Vec::new();
        let mut data: Vec<Packet> = Vec::new();
        let mut acks: Vec<Packet> = Vec::new();
        let start = Instant::now();
        let mut flow = 0u32;
        while segs < MIN_SEGS {
            let bytes = cfg.workload.sizes.sample(&mut rng).max(1);
            let mut f = TcpFlow::new(
                FlowId(flow),
                HostId(0),
                HostId(1),
                flow as u64,
                bytes,
                Time::ZERO,
                cfg.tcp,
            );
            flow += 1;
            let mut now = Time::ZERO;
            f.start_sending(now, &mut ids, &mut flight);
            while !f.is_done() {
                now += Time::from_micros(10);
                std::mem::swap(&mut data, &mut flight);
                for p in data.drain(..) {
                    segs += 1;
                    f.on_data(&p, now, &mut ids, &mut acks);
                }
                now += Time::from_micros(10);
                for a in acks.drain(..) {
                    f.on_ack(&a, now, &mut ids, &mut flight);
                }
            }
            black_box(&f);
        }
        (segs, start.elapsed().as_secs_f64())
    })
}

/// `transport.shim_ns_per_pkt`: one flow's packets through the receiver
/// shim with occasional adjacent swaps.
fn shim_reorder(threshold: usize, timeout: Time, seed: u64) -> f64 {
    const PKTS: u64 = 400_000;
    ns_per_op(|| {
        let mut rng = SimRng::derive(seed, "perfbench.shim", 0);
        let mut shim = ShimBuffer::with_threshold(timeout, threshold);
        let mut arena = PacketArena::new();
        let mut deliver = Vec::new();
        let mut delivered = 0u64;
        let start = Instant::now();
        let mut i = 0u64;
        while i < PKTS {
            // Swap the pair (i, i+1) one time in eight.
            let order = if rng.below(8) == 0 {
                [i + 1, i]
            } else {
                [i, i + 1]
            };
            for k in order {
                let mut p = data_packet(k, 0, 1, 7, Time::ZERO);
                p.seq = k * PAYLOAD as u64;
                let r = arena.insert(p);
                black_box(shim.on_packet(&arena, r, Time::from_nanos(k * 1200), &mut deliver));
                delivered += deliver.len() as u64;
                for d in deliver.drain(..) {
                    arena.free(d);
                }
            }
            i += 2;
        }
        let secs = start.elapsed().as_secs_f64();
        assert_eq!(delivered, PKTS, "in-order shim input must all be delivered");
        (PKTS, secs)
    })
}

/// `workload.gen_ns_per_flow`: the runtime's generator, built as the
/// runtime builds it, drawing flows.
fn workload_gen(cfg: &ExperimentConfig, topo: &Topology) -> f64 {
    const FLOWS: u64 = 1_000_000;
    let leaf_of: Vec<u32> = (0..topo.num_hosts() as u32)
        .map(|h| topo.host_leaf_index(HostId(h)))
        .collect();
    let core_bps: u64 = topo
        .links()
        .iter()
        .filter(|l| l.up && l.hop == HopClass::LeafUp)
        .map(|l| l.rate_bps)
        .sum();
    let sizes = &cfg.workload.sizes;
    let rate = aggregate_flow_rate(cfg.workload.load, core_bps, sizes.mean());
    ns_per_op(|| {
        let mut rng = SimRng::derive(cfg.seed, "workload", 0);
        let arrivals = if cfg.workload.burst_sigma > 0.0 {
            ArrivalProcess::lognormal(rate, cfg.workload.burst_sigma)
        } else {
            ArrivalProcess::poisson(rate)
        };
        let mut gen = WorkloadGen::new(
            sizes.clone(),
            arrivals,
            cfg.workload.pattern.clone(),
            leaf_of.clone(),
            &mut rng,
        );
        let start = Instant::now();
        for _ in 0..FLOWS {
            black_box(gen.next_flow(&mut rng));
        }
        (FLOWS, start.elapsed().as_secs_f64())
    })
}

/// `stats.add_ns`: FCT-shaped samples into fresh exact distributions of
/// `per_dist` samples each.
fn stats_add(per_dist: usize, seed: u64) -> f64 {
    const ADDS: usize = 4_000_000;
    let mut rng = SimRng::derive(seed, "perfbench.stats", 0);
    let xs: Vec<f64> = (0..per_dist).map(|_| rng.lognormal(-1.0, 1.5)).collect();
    ns_per_op(|| {
        let start = Instant::now();
        let mut done = 0;
        while done < ADDS {
            let mut d = Distribution::new();
            for &x in &xs {
                d.add(x);
            }
            done += xs.len();
            black_box(&d);
        }
        (done as u64, start.elapsed().as_secs_f64())
    })
}
