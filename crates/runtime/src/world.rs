//! The simulation world: event loop tying every substrate together.

use drill_audit::{
    AnomalyReport, Audit, BoundarySample, FlowProgress, InvariantAuditor, NoopAudit, SnapshotRing,
};
use drill_core::SymmetryEngine;
use drill_faults::{FaultInjector, FaultKind, SabotageKind, SabotageSpec};
use drill_net::{
    BufPool, EventSink, HopClass, HostId, HostNic, HostPolicy, NetEvent, Packet, PacketArena,
    PacketBufPool, PacketRef, RouteTable, ShardPlan, Switch, SwitchConfig, SwitchId, Topology,
};
use drill_sim::{SimRng, Time};
use drill_stats::stdev_of;
use drill_telemetry::{fault_kind, FaultInfo, FlightRecorder, NoopProbe, Probe, QueueSampler};
use drill_transport::{ShimBuffer, TcpFlow};
use drill_workload::{aggregate_flow_rate, ArrivalProcess, FlowSpec, TrafficPattern, WorkloadGen};

use crate::config::{CheckpointPolicy, CheckpointSpec, ExperimentConfig};
use crate::shards::EngineQueue;
use crate::stats::{hop_index, RunStats};
use crate::Scheme;

/// `DRILLSNAP` state capture and restore — a child module so it can walk
/// `World`'s private fields without widening their visibility.
#[path = "snapshot.rs"]
mod snapshot;

pub(crate) use snapshot::FAULT_SEQ_BASE;

/// Queue-STDV sampling period (the paper samples every 10 µs).
const SAMPLE_PERIOD: Time = Time::from_micros(10);

#[derive(Debug)]
enum Event {
    Net(NetEvent),
    FlowArrival,
    IncastEpoch,
    MiceTick,
    TcpTimer {
        flow: u32,
        gen: u64,
    },
    ShimTimer {
        flow: u32,
        gen: u64,
    },
    SampleQueues,
    /// The `idx`-th entry of the run's fault timeline strikes.
    Fault {
        idx: u32,
    },
    /// A staged reconvergence (routing recompute + symmetric
    /// re-decomposition) comes due. Stale generations — superseded by a
    /// later fault whose detection window subsumed this one — are popped
    /// and ignored, coalescing back-to-back faults into one recompute.
    Reconverge {
        gen: u64,
    },
}

/// The runtime event is what every timing-wheel slab node, batch sort and
/// push/pop copies; the arena refactor exists to keep it at two words plus
/// a discriminant. `TcpTimer`/`ShimTimer` (u32 + u64) set the 24-byte
/// floor; the packet-carrying `Net` variants fit under it only because
/// they hold a [`PacketRef`] handle.
const _: () = assert!(std::mem::size_of::<Event>() <= 24);

/// Whole-node bound: payload (`Option<Event>`, 24 + niche'd tag) + wheel
/// bookkeeping (time, seq, freelist link, generation, state) must stay
/// within one cache line with room to spare.
const _: () = assert!(drill_sim::node_size::<Event>() <= 56);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum FlowClass {
    Background,
    Incast,
    Mice,
    Elephant,
}

/// One experiment mid-flight: the topology, every component's state, and
/// the event engine. Built by [`World::new`], advanced by
/// [`World::run_to`], captured/resumed by [`World::snapshot`] and
/// [`World::restore`], and finished into [`RunStats`] by
/// [`World::finish`]. The free functions [`run`]/[`run_probed`] drive the
/// same type end to end.
pub struct World<P: Probe = NoopProbe, A: Audit = NoopAudit> {
    cfg: ExperimentConfig,
    topo: Topology,
    routes: RouteTable,
    /// Structural §3.4 control plane. Persists interned structure across
    /// reconvergences so a fault only re-decomposes entries whose
    /// fingerprint changed.
    symmetry: SymmetryEngine,
    switches: Vec<Switch>,
    nics: Vec<HostNic>,
    host_policies: Vec<Box<dyn HostPolicy>>,
    flows: Vec<TcpFlow>,
    classes: Vec<FlowClass>,
    measured: Vec<bool>,
    shims: Vec<Option<ShimBuffer>>,
    sched_gen: Vec<u64>,
    queue: EngineQueue<Event>,
    /// The fabric partition driving event ownership and arena residency;
    /// the trivial single-shard plan on the serial engine.
    plan: ShardPlan,
    rng_net: SimRng,
    rng_wl: SimRng,
    pkt_ids: u64,
    gen: Option<WorkloadGen>,
    pending_flow: Option<FlowSpec>,
    synth_pattern: Option<TrafficPattern>,
    net_buf: EventSink,
    /// Every in-flight packet, interned between host send and final
    /// delivery/drop; events and queues carry [`PacketRef`] handles. One
    /// arena per shard (a single arena on the serial engine): a packet
    /// lives in the arena of the shard currently handling it and is
    /// re-interned at the boundary when a wire hop crosses shards.
    arenas: Vec<PacketArena>,
    /// Recycled `Vec<Packet>` buffers for TCP/ACK emission batches.
    pkt_pool: PacketBufPool,
    /// Recycled `Vec<PacketRef>` buffers for shim release batches.
    ref_pool: BufPool<PacketRef>,
    /// Scratch for per-sample queue lengths in `sample_queues`.
    lens_scratch: Vec<f64>,
    stats: RunStats,
    arrivals_end: Time,
    leaf_of: Vec<u32>,
    leaf_up_ports: Vec<Vec<(usize, u16)>>,
    spine_down_ports: Vec<Vec<(usize, u16)>>,
    shim_enabled: bool,
    data_delivered: u64,
    bytes_delivered: u64,
    /// The run's fault timeline: `(strike time, kind, detection delay)`,
    /// time-sorted (legacy `failed_links`/`fail_at` entries first on
    /// ties). Indexed by `Event::Fault`.
    faults: Vec<(Time, FaultKind, Time)>,
    injector: FaultInjector,
    /// Timeline entries that have struck so far (`faults[..faults_applied]`
    /// are applied to the topology). Restore replays exactly this prefix.
    faults_applied: u64,
    /// `faults_applied` at the moment of the last reconvergence — the
    /// fault prefix the current routing state was computed against.
    faults_applied_at_reconv: u64,
    /// Latest scheduled reconvergence generation; only the newest
    /// generation's `Reconverge` pop actually recomputes.
    reconv_gen: u64,
    /// Open fault window: when the oldest still-unreconverged fault
    /// struck (`None` = routing is stable).
    window_open_at: Option<Time>,
    /// Total switch blackhole count when the open window started.
    blackhole_mark: u64,
    /// Closed fault windows, for FCT in/out-of-window classification.
    fault_windows: Vec<(Time, Time)>,
    /// Telemetry probe. `NoopProbe` monomorphizes every hook away; a
    /// recording probe observes but never steers (no access to RNGs, the
    /// event queue, or packets), so metrics are bit-identical either way.
    probe: P,
    /// Invariant auditor, mirroring the probe pattern: `NoopAudit`
    /// (`ENABLED = false`) compiles the whole boundary path away; the
    /// real auditor observes samples but never steers, so auditor-on
    /// fingerprints are pinned bit-identical to auditor-off.
    audit: A,
    /// Recycled per-flow progress rows for audit boundaries.
    audit_scratch: Vec<FlowProgress>,
    /// Last-K `DRILLSNAP` ring retaining the most recent *clean*
    /// boundaries (audited builds only); the rewind pool a trip dumps.
    audit_ring: Option<SnapshotRing>,
    /// Audit boundary period in processed events (0 = no boundaries).
    audit_every: u64,
    /// A trip dumps ring + faulted snapshot + meta exactly once.
    audit_dumped: bool,
    /// One-shot sabotage bookkeeping (`LeakPacket` fires a single time).
    sabotage_done: bool,
}

/// Fail the link pair `(a, b)`, trying both orientations, and panic with
/// a clear message if no live link matches — identical behaviour whether
/// failures apply at build time or at the `fail_at` event.
fn apply_failure(topo: &mut Topology, a: u32, b: u32) {
    let ok = topo.fail_switch_link(SwitchId(a), SwitchId(b), 0)
        || topo.fail_switch_link(SwitchId(b), SwitchId(a), 0);
    assert!(
        ok,
        "failed link ({a},{b}) matches no live switch-to-switch link in the topology"
    );
}

/// Pick `n` random distinct, currently-alive leaf-to-spine link pairs
/// (as `(leaf switch id, spine-side switch id)`), for the failure
/// experiments (Figures 11b/c and 12).
pub fn random_leaf_spine_failures(topo: &Topology, n: usize, seed: u64) -> Vec<(u32, u32)> {
    let mut pairs: Vec<(u32, u32)> = topo
        .links()
        .iter()
        .filter(|l| l.up && l.hop == HopClass::LeafUp)
        .filter_map(|l| match (l.src, l.dst) {
            (drill_net::NodeRef::Switch(a), drill_net::NodeRef::Switch(b)) => Some((a.0, b.0)),
            _ => None,
        })
        .collect();
    pairs.sort_unstable();
    pairs.dedup();
    let mut rng = SimRng::seed_from(seed ^ 0xfa11_fa11);
    rng.shuffle(&mut pairs);
    pairs.truncate(n);
    pairs
}

/// Execute one experiment configuration to completion.
///
/// With `cfg.telemetry` unset (the default) this runs the probe-free
/// build; with a [`TelemetrySpec`](crate::config::TelemetrySpec) attached
/// it records a flight-recorder trace (see [`run_recorded`]) and discards
/// the telemetry, returning the — bit-identical — stats either way.
pub fn run(cfg: &ExperimentConfig) -> RunStats {
    if cfg.telemetry.is_some() {
        run_recorded(cfg).0
    } else {
        run_probed(cfg, NoopProbe).0
    }
}

/// Execute one experiment with a caller-supplied telemetry probe, returning
/// the stats together with the probe for inspection. `run_probed(cfg,
/// NoopProbe)` compiles to exactly the probe-free simulation.
///
/// With `cfg.audit` attached the invariant auditor rides along (reports
/// are counted into [`RunStats::anomalies`] and any trip dumps to the
/// spec's `dump_dir`); without it the `NoopAudit` build runs.
pub fn run_probed<P: Probe>(cfg: &ExperimentConfig, probe: P) -> (RunStats, P) {
    if let Some(spec) = &cfg.audit {
        let auditor = InvariantAuditor::new(spec.stuck_after, spec.max_reports);
        let (stats, probe, _auditor) = run_with(cfg, probe, auditor);
        (stats, probe)
    } else {
        let (stats, probe, _noop) = run_with(cfg, probe, NoopAudit);
        (stats, probe)
    }
}

/// Execute one experiment with both a telemetry probe and an invariant
/// audit attached, returning stats, probe, and audit. `run_with(cfg,
/// NoopProbe, NoopAudit)` compiles to exactly the plain simulation.
pub fn run_with<P: Probe, A: Audit>(
    cfg: &ExperimentConfig,
    probe: P,
    audit: A,
) -> (RunStats, P, A) {
    let mut w = World::build(cfg.clone(), probe, audit);
    w.prime();
    w.event_loop();
    w.finalize()
}

/// Execute one experiment under the invariant auditor (using `cfg.audit`,
/// or [`Default`] knobs when unset) and return the stats together with
/// every anomaly report. An empty report list is the auditor's verdict
/// that all watchdog invariants held at every boundary.
pub fn run_audited(cfg: &ExperimentConfig) -> (RunStats, Vec<AnomalyReport>) {
    let spec = cfg.audit.clone().unwrap_or_default();
    let mut cfg = cfg.clone();
    cfg.audit = Some(spec.clone());
    let auditor = InvariantAuditor::new(spec.stuck_after, spec.max_reports);
    let (stats, _, auditor) = run_with(&cfg, NoopProbe, auditor);
    (stats, auditor.reports().to_vec())
}

/// The telemetry captured by a recorded run.
pub struct Telemetry {
    /// Per-(switch, engine) lifecycle-event rings.
    pub recorder: FlightRecorder,
    /// Queue-depth time series and high-water marks.
    pub sampler: QueueSampler,
}

/// Execute one experiment with the flight recorder and queue sampler
/// attached (using `cfg.telemetry`, or [`Default`] knobs when unset), and
/// write the trace file if the spec names a path.
pub fn run_recorded(cfg: &ExperimentConfig) -> (RunStats, Telemetry) {
    let spec = cfg.telemetry.clone().unwrap_or_default();
    let topo = cfg.topo.build();
    let recorder = FlightRecorder::new(topo.num_switches(), cfg.engines, spec.ring_capacity);
    let sampler = QueueSampler::new(spec.sample_every);
    let (stats, (recorder, sampler)) = run_probed(cfg, (recorder, sampler));
    if let Some(path) = &spec.trace_path {
        let file = std::fs::File::create(path)
            .unwrap_or_else(|e| panic!("telemetry trace {}: {e}", path.display()));
        let mut w = std::io::BufWriter::new(file);
        drill_telemetry::write_trace(&recorder, &mut w)
            .unwrap_or_else(|e| panic!("telemetry trace {}: {e}", path.display()));
    }
    (stats, Telemetry { recorder, sampler })
}

impl World<NoopProbe> {
    /// Build and prime an experiment without running it — the entry point
    /// for stepwise execution: [`run_to`](World::run_to) →
    /// [`snapshot`](World::snapshot) → [`finish`](World::finish).
    pub fn new(cfg: &ExperimentConfig) -> World<NoopProbe> {
        let mut w = World::build(cfg.clone(), NoopProbe, NoopAudit);
        w.prime();
        w
    }
}

impl<P: Probe, A: Audit> World<P, A> {
    /// Advance the simulation until the next pending event would be at or
    /// past `t` — the state "as of `t⁻`" — honouring the run deadline and
    /// `max_events` exactly like a straight-through run.
    pub fn run_to(&mut self, t: Time) {
        let deadline = self.cfg.duration + self.cfg.drain;
        loop {
            match self.queue.peek_time() {
                Some(next) if next < t => {}
                _ => break,
            }
            let Some((now, ev)) = self.queue.pop() else {
                break;
            };
            if now > deadline {
                break;
            }
            if self.cfg.max_events > 0 && self.queue.events_processed() > self.cfg.max_events {
                break;
            }
            self.dispatch(now, ev);
        }
    }

    /// Run every remaining event and produce the final statistics.
    pub fn finish(mut self) -> RunStats {
        self.event_loop();
        self.finalize().0
    }

    /// Run every remaining event and return the stats together with the
    /// probe and audit — the stepwise analogue of [`run_with`], used by
    /// rewind-replay to recover the [`FlightRecorder`] attached to a
    /// restored world.
    pub fn finish_parts(mut self) -> (RunStats, P, A) {
        self.event_loop();
        self.finalize()
    }

    /// Events processed so far — stepwise progress inspection between
    /// [`run_to`](World::run_to) calls.
    pub fn events_processed(&self) -> u64 {
        self.queue.events_processed()
    }
}

impl<P: Probe, A: Audit> World<P, A> {
    fn build(cfg: ExperimentConfig, probe: P, audit: A) -> World<P, A> {
        let mut topo = cfg.topo.build();
        // Validate the failure list up front, whether failures apply now
        // or at `fail_at`: a pair that matches no switch-to-switch link is
        // a config bug and must fail loudly in both modes (the
        // ApplyFailures event used to ignore unknown pairs silently).
        for &(a, b) in &cfg.failed_links {
            assert!(
                (a as usize) < topo.num_switches()
                    && (b as usize) < topo.num_switches()
                    && (!topo.ports_to_switch(SwitchId(a), SwitchId(b)).is_empty()
                        || !topo.ports_to_switch(SwitchId(b), SwitchId(a)).is_empty()),
                "failed link ({a},{b}) matches no live switch-to-switch link in the topology"
            );
        }
        if cfg.fail_at.is_none() {
            for &(a, b) in &cfg.failed_links {
                apply_failure(&mut topo, a, b);
            }
        }
        let mut routes = RouteTable::compute(&topo);
        let mut symmetry = SymmetryEngine::new();
        if cfg.scheme.wants_symmetric_groups() && cfg.asymmetry_handling {
            symmetry.install(&topo, &mut routes);
        }

        let sw_cfg = SwitchConfig {
            engines: cfg.engines,
            queue_limit_bytes: cfg.queue_limit_bytes,
            model_enqueue_commit: cfg.model_commit,
        };
        let mut switches: Vec<Switch> = (0..topo.num_switches())
            .map(|i| {
                let id = SwitchId(i as u32);
                let policy = cfg
                    .scheme
                    .make_switch_policy(&topo, &routes, id, cfg.engines);
                Switch::new(id, topo.num_ports(id), sw_cfg.clone(), policy)
            })
            .collect();
        for sw in switches.iter_mut() {
            sw.sync_link_state(&topo);
        }
        let nics: Vec<HostNic> = (0..topo.num_hosts() as u32)
            .map(|h| HostNic::new(HostId(h)))
            .collect();
        let host_policies: Vec<Box<dyn HostPolicy>> = (0..topo.num_hosts() as u32)
            .map(|h| cfg.scheme.make_host_policy(&topo, &routes, HostId(h)))
            .collect();

        let leaf_of: Vec<u32> = (0..topo.num_hosts() as u32)
            .map(|h| topo.host_leaf_index(HostId(h)))
            .collect();

        // Queue-STDV sampling port lists.
        let n_leaves = topo.num_leaves();
        let mut leaf_up_ports = vec![Vec::new(); n_leaves];
        let mut spine_down_ports = vec![Vec::new(); n_leaves];
        for l in topo.links() {
            if let (drill_net::NodeRef::Switch(src), drill_net::NodeRef::Switch(dst)) =
                (l.src, l.dst)
            {
                if l.hop == HopClass::LeafUp {
                    let li = topo.leaf_index(src).expect("leaf-up from a leaf") as usize;
                    leaf_up_ports[li].push((src.index(), l.src_port));
                } else if l.hop == HopClass::SpineDown {
                    if let Some(li) = topo.leaf_index(dst) {
                        spine_down_ports[li as usize].push((src.index(), l.src_port));
                    }
                }
            }
        }

        let mut rng_wl = SimRng::derive(cfg.seed, "workload", 0);
        let rng_net = SimRng::derive(cfg.seed, "net", 0);

        let gen = if cfg.synthetic.is_none() && cfg.workload.load > 0.0 {
            let mean = cfg.workload.sizes.mean();
            // Offered load is defined against the *available* core capacity
            // (the paper loads "up to 90% of the available core capacity"
            // in its failure experiments), so count only live links.
            let avail_core_bps: u64 = topo
                .links()
                .iter()
                .filter(|l| l.up && l.hop == HopClass::LeafUp)
                .map(|l| l.rate_bps)
                .sum();
            let rate = aggregate_flow_rate(cfg.workload.load, avail_core_bps, mean);
            let arrivals = if cfg.workload.burst_sigma > 0.0 {
                ArrivalProcess::lognormal(rate, cfg.workload.burst_sigma)
            } else {
                ArrivalProcess::poisson(rate)
            };
            Some(WorkloadGen::new(
                cfg.workload.sizes.clone(),
                arrivals,
                cfg.workload.pattern.clone(),
                leaf_of.clone(),
                &mut rng_wl,
            ))
        } else {
            None
        };
        let synth_pattern = cfg.synthetic.as_ref().map(|_| {
            cfg.workload
                .pattern
                .clone()
                .bind(leaf_of.clone(), &mut rng_wl)
        });

        let stats = RunStats::new(cfg.scheme.name());
        let shim_enabled = cfg.scheme.uses_shim();
        let arrivals_end = cfg.duration;

        // Fold the legacy one-shot (`failed_links` at `fail_at`, detected
        // after `ospf_delay`) and the chaos schedule into one timeline.
        // The sort is stable, so legacy entries precede schedule entries
        // striking at the same instant.
        let mut faults: Vec<(Time, FaultKind, Time)> = Vec::new();
        if let Some(at) = cfg.fail_at {
            for &(a, b) in &cfg.failed_links {
                faults.push((at, FaultKind::LinkDown { a, b }, cfg.ospf_delay));
            }
        }
        if let Some(sched) = &cfg.faults {
            for e in sched.events() {
                faults.push((e.at, e.kind, sched.detection_delay));
            }
        }
        faults.sort_by_key(|&(at, _, _)| at);

        // Sharded execution: an explicit config spec wins, else the
        // DRILL_SHARDS environment variable, else serial. The plan is
        // computed on the (possibly pre-failed) topology; downed links
        // still count toward the lookahead bound, so the window length is
        // identical whether failures apply at build time or mid-run.
        let plan = match &cfg.shards {
            Some(spec) => match &spec.switch_map {
                Some(map) => ShardPlan::manual(&topo, map.clone()),
                None => ShardPlan::auto(&topo, spec.count),
            },
            None => ShardPlan::auto(&topo, drill_exec::shards_from_env().unwrap_or(1)),
        };
        let queue = if plan.num_shards > 1 {
            EngineQueue::sharded(&plan)
        } else {
            EngineQueue::serial()
        };
        let arenas = (0..plan.num_shards).map(|_| PacketArena::new()).collect();
        // Audit plumbing: the boundary cadence and ring exist only on
        // audited builds (`A::ENABLED`); a `NoopAudit` world carries zero
        // state and the boundary branch below compiles away. A world
        // built with an explicit auditor but no spec gets the defaults.
        let (audit_every, audit_ring) = if A::ENABLED {
            let spec = cfg.audit.clone().unwrap_or_default();
            // The ring is only ever observable through a trip dump, so it
            // is armed — and the per-boundary snapshot cost paid — only
            // when the spec names a dump_dir. Watchdog-only audit runs
            // pay just the holder walk at each boundary.
            let ring = spec
                .dump_dir
                .is_some()
                .then(|| SnapshotRing::new(spec.ring_entries, spec.ring_bytes));
            (spec.every_events, ring)
        } else {
            (0, None)
        };
        World {
            cfg,
            topo,
            routes,
            symmetry,
            switches,
            nics,
            host_policies,
            flows: Vec::new(),
            classes: Vec::new(),
            measured: Vec::new(),
            shims: Vec::new(),
            sched_gen: Vec::new(),
            queue,
            plan,
            rng_net,
            rng_wl,
            pkt_ids: 0,
            gen,
            pending_flow: None,
            synth_pattern,
            net_buf: Vec::new(),
            arenas,
            pkt_pool: PacketBufPool::new(),
            ref_pool: BufPool::new(),
            lens_scratch: Vec::new(),
            stats,
            arrivals_end,
            leaf_of,
            leaf_up_ports,
            spine_down_ports,
            shim_enabled,
            data_delivered: 0,
            bytes_delivered: 0,
            faults,
            injector: FaultInjector::new(),
            faults_applied: 0,
            faults_applied_at_reconv: 0,
            reconv_gen: 0,
            window_open_at: None,
            blackhole_mark: 0,
            fault_windows: Vec::new(),
            probe,
            audit,
            audit_scratch: Vec::new(),
            audit_ring,
            audit_every,
            audit_dumped: false,
            sabotage_done: false,
        }
    }

    /// Schedule the initial events.
    fn prime(&mut self) {
        if let Some(g) = self.gen.as_mut() {
            let spec = g.next_flow(&mut self.rng_wl);
            self.queue
                .push_control(Time::ZERO + spec.gap, Event::FlowArrival);
            self.pending_flow = Some(spec);
        }
        if let Some(incast) = &self.cfg.workload.incast {
            self.queue
                .push_control(self.cfg.warmup + incast.epoch_gap, Event::IncastEpoch);
        }
        if let Some(synth) = self.cfg.synthetic.clone() {
            // One elephant per host, started immediately.
            for src in 0..self.topo.num_hosts() as u32 {
                let dst = self
                    .synth_pattern
                    .as_mut()
                    .expect("synthetic mode has a bound pattern")
                    .pick_dst(src, &mut self.rng_wl);
                self.start_flow(
                    src,
                    dst,
                    synth.elephant_bytes,
                    FlowClass::Elephant,
                    Time::ZERO,
                );
            }
            self.queue.push_control(synth.mice_period, Event::MiceTick);
        }
        if self.cfg.sample_queues {
            self.queue.push_control(SAMPLE_PERIOD, Event::SampleQueues);
        }
        for &(src, dst, bytes) in &self.cfg.static_flows.clone() {
            self.start_flow(src, dst, bytes, FlowClass::Elephant, Time::ZERO);
        }
        // Fault events past the run's deadline are filtered here, not at
        // pop time: the timing wheel counts every pop (including
        // deadline-discarded ones) in `events_processed`, so enqueueing
        // them would perturb the event-count golden of an otherwise
        // identical run — and a fault nobody can observe is a no-op.
        // Faults are stamped from the reserved sequence band (they pop
        // after every ordinary event sharing their timestamp) so that a
        // restored run — which re-injects its not-yet-struck suffix from
        // the restore config's timeline — reproduces the cold run's tie
        // order exactly, and a warm-started fork can substitute a
        // divergent schedule without perturbing any other event's seq.
        let deadline = self.cfg.duration + self.cfg.drain;
        for (idx, &(at, _, _)) in self.faults.iter().enumerate() {
            if at <= deadline {
                self.queue.push_control_stamped(
                    at,
                    FAULT_SEQ_BASE + idx as u64,
                    Event::Fault { idx: idx as u32 },
                );
            }
        }
    }

    fn event_loop(&mut self) {
        let deadline = self.cfg.duration + self.cfg.drain;
        let ckpt = self.cfg.checkpoint.clone();
        // An at-time checkpoint fires once, when the next pending event
        // would reach the target instant (state "as of t⁻").
        let mut at_armed = matches!(
            ckpt,
            Some(CheckpointSpec {
                policy: CheckpointPolicy::AtTime(_),
                ..
            })
        );
        loop {
            if at_armed {
                if let Some(CheckpointSpec {
                    policy: CheckpointPolicy::AtTime(t),
                    path,
                }) = ckpt.as_ref()
                {
                    if self.queue.peek_time().is_none_or(|next| next >= *t) {
                        self.snapshot()
                            .save(path)
                            .unwrap_or_else(|e| panic!("checkpoint {}: {e}", path.display()));
                        at_armed = false;
                    }
                }
            }
            let Some((now, ev)) = self.queue.pop() else {
                break;
            };
            if now > deadline {
                break;
            }
            if self.cfg.max_events > 0 && self.queue.events_processed() > self.cfg.max_events {
                break;
            }
            // Sabotage hook (audited builds only; negative tests and the
            // tracedump demo): a one-shot LeakPacket interns a dummy
            // packet and drops the handle the moment its time comes.
            if A::ENABLED && !self.sabotage_done {
                if let Some(SabotageSpec {
                    at,
                    kind: SabotageKind::LeakPacket,
                }) = self.cfg.sabotage
                {
                    if now >= at {
                        self.sabotage_done = true;
                        self.pkt_ids += 1;
                        let p = Packet::data(
                            self.pkt_ids,
                            drill_net::FlowId(u32::MAX),
                            HostId(0),
                            HostId(0),
                            0,
                            0,
                            1,
                            now,
                        );
                        let _leaked = self.arenas[0].insert(p);
                    }
                }
            }
            self.dispatch(now, ev);
            if let Some(CheckpointSpec {
                policy: CheckpointPolicy::EveryEvents(n),
                path,
            }) = ckpt.as_ref()
            {
                if *n > 0 && self.queue.events_processed().is_multiple_of(*n) {
                    self.snapshot()
                        .save(path)
                        .unwrap_or_else(|e| panic!("checkpoint {}: {e}", path.display()));
                }
            }
            if A::ENABLED
                && self.audit_every > 0
                && self
                    .queue
                    .events_processed()
                    .is_multiple_of(self.audit_every)
            {
                self.audit_boundary();
            }
        }
    }

    /// Assemble one [`BoundarySample`] — between dispatches, so every
    /// count is consistent — and hand it to the auditor. Clean boundaries
    /// feed the snapshot ring; the first tripped boundary dumps it.
    fn audit_boundary(&mut self) {
        let now = self.queue.now();
        let events = self.queue.events_processed();

        // Holder walk: every live arena handle is in exactly one of the
        // switch queues (waiting + in-flight), NIC queues (the in-flight
        // head stays queued until tx-done), shim reorder buffers, or
        // packet-carrying pending events. Along the way, find the fullest
        // waiting queue for the ceiling watchdog.
        let mut holders: u64 = 0;
        let mut max_wait_bytes = 0u64;
        let mut max_wait_switch = 0u32;
        let mut max_wait_port = 0u16;
        for (si, sw) in self.switches.iter().enumerate() {
            for port in 0..sw.num_ports() as u16 {
                holders += sw.queue_pkts(port) as u64;
                let wb = sw.waiting_bytes(port);
                if wb > max_wait_bytes {
                    max_wait_bytes = wb;
                    max_wait_switch = si as u32;
                    max_wait_port = port;
                }
            }
        }
        for nic in &self.nics {
            holders += nic.backlog_pkts() as u64;
        }
        for shim in self.shims.iter().flatten() {
            holders += shim.held() as u64;
        }
        let mut pending: u64 = 0;
        self.queue.for_each_pending(|_, _, ev| {
            if let Event::Net(NetEvent::ArriveSwitch { .. } | NetEvent::ArriveHost { .. }) = ev {
                pending += 1;
            }
        });
        holders += pending;

        let arena_live: u64 = self.arenas.iter().map(|a| a.live() as u64).sum();
        let (handoffs, handoff_hash, _) = self.queue.shard_stats();
        let next_event_time = self.queue.peek_time();

        let mut flows = std::mem::take(&mut self.audit_scratch);
        flows.clear();
        flows.extend(self.flows.iter().enumerate().map(|(i, f)| FlowProgress {
            flow: i as u32,
            bytes_acked: f.bytes_acked,
            start: f.start,
            done: f.done.is_some(),
        }));
        let before = self.audit.reports().len();
        self.audit.on_boundary(&BoundarySample {
            now,
            events,
            arena_live,
            holders,
            max_wait_bytes,
            max_wait_switch,
            max_wait_port,
            queue_limit_bytes: self.cfg.queue_limit_bytes,
            next_event_time,
            handoffs,
            handoff_hash,
            flows: &flows,
        });
        self.audit_scratch = flows;

        if self.audit.reports().len() > before {
            self.audit_trip(before);
        } else if self.audit_ring.is_some() && self.audit.reports().is_empty() {
            // Only clean boundaries enter the ring: after a trip the ring
            // freezes as the rewind pool ending just before the anomaly.
            let bytes = self.snapshot().to_bytes();
            if let Some(ring) = self.audit_ring.as_mut() {
                ring.push(now, events, bytes);
            }
        }
    }

    /// Graceful degradation on a watchdog trip: no panic — dump the
    /// snapshot ring, a `DRILLSNAP` of the faulted instant, and an
    /// `anomaly.meta` describing the first new report into the spec's
    /// `dump_dir` (once per run), leaving the run to complete normally.
    fn audit_trip(&mut self, first_new: usize) {
        if self.audit_dumped {
            return;
        }
        self.audit_dumped = true;
        let Some(dir) = self
            .cfg
            .audit
            .as_ref()
            .and_then(|spec| spec.dump_dir.clone())
        else {
            return;
        };
        let report = self.audit.reports()[first_new].clone();
        let result = (|| -> std::io::Result<()> {
            std::fs::create_dir_all(&dir)?;
            let ring_paths = match &self.audit_ring {
                Some(ring) => ring.dump(&dir)?,
                None => Vec::new(),
            };
            self.snapshot().save(dir.join("faulted.drillsnap"))?;
            let mut meta = report.meta_lines();
            if let Some(rewind) = ring_paths.last().and_then(|p| p.file_name()) {
                meta.push(format!("rewind={}", rewind.to_string_lossy()));
            }
            if let Some(e) = self.audit_ring.as_ref().and_then(|r| r.newest()) {
                meta.push(format!("rewind_events={}", e.events));
            }
            meta.push("faulted=faulted.drillsnap".to_string());
            std::fs::write(dir.join("anomaly.meta"), meta.join("\n") + "\n")
        })();
        if let Err(e) = result {
            eprintln!("audit dump {}: {e}", dir.display());
        }
    }

    fn dispatch(&mut self, now: Time, ev: Event) {
        match ev {
            Event::Net(NetEvent::ArriveSwitch {
                switch,
                ingress,
                pkt,
            }) => {
                let k = self.sw_shard(switch);
                self.switches[switch.index()].receive(
                    &self.topo,
                    &self.routes,
                    &mut self.arenas[k as usize],
                    pkt,
                    ingress,
                    now,
                    &mut self.rng_net,
                    &mut self.net_buf,
                    &mut self.probe,
                );
                self.drain_net(k);
            }
            Event::Net(NetEvent::ArriveHost { host, pkt }) => self.on_host_arrival(host, pkt, now),
            Event::Net(NetEvent::SwitchTxDone { switch, port }) => {
                let k = self.sw_shard(switch);
                self.switches[switch.index()].on_tx_done(
                    &self.topo,
                    &mut self.arenas[k as usize],
                    port,
                    now,
                    &mut self.rng_net,
                    &mut self.net_buf,
                    &mut self.probe,
                );
                self.drain_net(k);
            }
            Event::Net(NetEvent::HostTxDone { host }) => {
                let k = self.host_shard(host);
                self.nics[host.index()].on_tx_done(&self.topo, now, &mut self.net_buf);
                self.drain_net(k);
            }
            Event::Net(NetEvent::EnqueueCommit {
                switch,
                port,
                bytes,
                engine,
            }) => {
                self.switches[switch.index()].on_enqueue_commit(port, bytes, engine);
            }
            Event::FlowArrival => {
                if let Some(spec) = self.pending_flow.take() {
                    self.start_flow(spec.src, spec.dst, spec.bytes, FlowClass::Background, now);
                }
                if now <= self.arrivals_end {
                    if let Some(g) = self.gen.as_mut() {
                        let next = g.next_flow(&mut self.rng_wl);
                        self.queue.push_control(now + next.gap, Event::FlowArrival);
                        self.pending_flow = Some(next);
                    }
                }
            }
            Event::IncastEpoch => {
                if let Some(incast) = self.cfg.workload.incast.clone() {
                    let flows = incast.epoch_flows(self.topo.num_hosts() as u32, &mut self.rng_wl);
                    for (server, requester, bytes) in flows {
                        self.start_flow(server, requester, bytes, FlowClass::Incast, now);
                    }
                    if now + incast.epoch_gap <= self.arrivals_end {
                        self.queue
                            .push_control(now + incast.epoch_gap, Event::IncastEpoch);
                    }
                }
            }
            Event::MiceTick => {
                if let Some(synth) = self.cfg.synthetic.clone() {
                    for src in 0..self.topo.num_hosts() as u32 {
                        let dst = self.uniform_other_leaf(src);
                        self.start_flow(src, dst, synth.mice_bytes, FlowClass::Mice, now);
                    }
                    if now + synth.mice_period <= self.arrivals_end {
                        self.queue
                            .push_control(now + synth.mice_period, Event::MiceTick);
                    }
                }
            }
            Event::TcpTimer { flow, gen } => {
                let mut out = self.pkt_pool.get();
                let fired =
                    self.flows[flow as usize].on_timer(gen, now, &mut self.pkt_ids, &mut out);
                if fired {
                    let src = self.flows[flow as usize].src;
                    for p in out.drain(..) {
                        self.host_send(src, p, now);
                    }
                    self.schedule_rto(flow, now);
                }
                self.pkt_pool.put(out);
            }
            Event::ShimTimer { flow, gen } => {
                if self.shims[flow as usize].is_some() {
                    let k = self.host_shard(self.flows[flow as usize].dst);
                    let mut released = self.ref_pool.get();
                    let shim = self.shims[flow as usize].as_mut().expect("checked above");
                    shim.on_timer(&self.arenas[k as usize], gen, now, &mut released);
                    for p in released.drain(..) {
                        self.recv_data(flow, p, now);
                    }
                    self.ref_pool.put(released);
                }
            }
            Event::SampleQueues => {
                self.sample_queues();
                if now + SAMPLE_PERIOD <= self.cfg.duration {
                    self.queue
                        .push_control(now + SAMPLE_PERIOD, Event::SampleQueues);
                }
            }
            Event::Fault { idx } => {
                let (_, kind, delay) = self.faults[idx as usize];
                // Strikes arrive in timeline order (time-sorted, and the
                // reserved-band seq `FAULT_SEQ_BASE + idx` orders ties by
                // index), so the applied set is always `faults[..applied]`.
                debug_assert_eq!(self.faults_applied, idx as u64);
                self.faults_applied += 1;
                let info = self.injector.apply(&mut self.topo, kind);
                // Local reaction at line speed: every switch prunes its own
                // dead egress members immediately; only the multi-hop
                // routing state stays stale until reconvergence.
                self.sync_switch_link_state();
                if P::ENABLED {
                    self.probe.on_fault(now, &info);
                }
                // Attribute the strike to the shard owning the fault's
                // primary switch (no-op on the serial engine).
                if let [Some(sw), _] = kind.involved_switches() {
                    let owner = self.sw_shard(SwitchId(sw));
                    self.queue.note_fault(owner);
                }
                self.stats.fault_events += 1;
                if kind.needs_reconvergence() {
                    // During the detection window packets keep steering
                    // into the dead/degraded paths (graceful-degradation
                    // window); open it on the first outstanding fault.
                    if self.window_open_at.is_none() {
                        self.window_open_at = Some(now);
                        self.blackhole_mark = self.total_blackholed();
                    }
                    self.reconv_gen += 1;
                    let due = now + delay;
                    if due <= self.cfg.duration + self.cfg.drain {
                        self.queue.push_control(
                            due,
                            Event::Reconverge {
                                gen: self.reconv_gen,
                            },
                        );
                    }
                }
            }
            Event::Reconverge { gen } => {
                if gen == self.reconv_gen {
                    self.reconverge(now, gen);
                }
            }
        }
    }

    /// Install the post-fault routing state atomically: recompute routes,
    /// re-run the §3.4 symmetric-component decomposition, and let
    /// controller-driven schemes rebuild their tables. Fires only for the
    /// newest reconvergence generation, then closes the fault window.
    fn reconverge(&mut self, now: Time, gen: u64) {
        // Snapshot before any table rebuild: Wcmp's rebuild replaces the
        // switch objects, zeroing their counters.
        let blackholed_now = self.total_blackholed();
        // The BFS is a pure function of the up/down link state, so a
        // window of faults none of which can change reachability (e.g.
        // pure capacity degradation) provably leaves `routes` as-is; only
        // the capacity-dependent group decomposition must rerun. A unit
        // test pins the skipped-BFS tables against a fresh recompute.
        let window =
            &self.faults[self.faults_applied_at_reconv as usize..self.faults_applied as usize];
        let routes_stale = window.is_empty()
            || window
                .iter()
                .any(|&(_, kind, _)| kind.changes_reachability());
        if routes_stale {
            self.routes = RouteTable::compute(&self.topo);
        }
        if self.cfg.scheme.wants_symmetric_groups() && self.cfg.asymmetry_handling {
            self.symmetry.install(&self.topo, &mut self.routes);
        }
        if matches!(self.cfg.scheme, Scheme::Wcmp) {
            for i in 0..self.switches.len() {
                let id = SwitchId(i as u32);
                let p = self.cfg.scheme.make_switch_policy(
                    &self.topo,
                    &self.routes,
                    id,
                    self.cfg.engines,
                );
                // Packets queued at the replaced switch are dropped with
                // it (as before the arena); release their slots so the
                // end-of-run leak check stays exact.
                let k = self.plan.switch_shard[i] as usize;
                self.switches[i].free_queued(&mut self.arenas[k]);
                self.switches[i] = rebuild_switch(&self.topo, &self.switches[i], p, &self.cfg);
            }
            // Rebuilt switch objects start with an all-live pruning table.
            self.sync_switch_link_state();
        }
        if matches!(self.cfg.scheme, Scheme::Presto { .. }) {
            for h in 0..self.host_policies.len() {
                self.host_policies[h] =
                    self.cfg
                        .scheme
                        .make_host_policy(&self.topo, &self.routes, HostId(h as u32));
            }
        }
        self.stats.reconvergences += 1;
        self.stats.stable_at = now;
        self.faults_applied_at_reconv = self.faults_applied;
        if P::ENABLED {
            self.probe.on_fault(
                now,
                &FaultInfo {
                    kind: fault_kind::RECONVERGE,
                    a: u32::MAX,
                    b: u32::MAX,
                    param: gen,
                },
            );
        }
        if let Some(open) = self.window_open_at.take() {
            let window_ns = (now - open).as_nanos();
            self.stats.fault_blackholed += blackholed_now.saturating_sub(self.blackhole_mark);
            self.stats.fault_window_ns += window_ns;
            self.fault_windows.push((open, now));
            if P::ENABLED {
                self.probe.on_fault(
                    now,
                    &FaultInfo {
                        kind: fault_kind::STABLE,
                        a: u32::MAX,
                        b: u32::MAX,
                        param: window_ns,
                    },
                );
            }
        }
    }

    /// Mirror the topology's link state into every switch's local pruning
    /// table (see [`Switch::sync_link_state`]).
    fn sync_switch_link_state(&mut self) {
        for sw in self.switches.iter_mut() {
            sw.sync_link_state(&self.topo);
        }
    }

    /// Sum of per-switch blackhole counters (snapshotted at fault-window
    /// boundaries for the graceful-degradation delta).
    fn total_blackholed(&self) -> u64 {
        self.switches.iter().map(|s| s.blackholed).sum()
    }

    fn uniform_other_leaf(&mut self, src: u32) -> u32 {
        let my_leaf = self.leaf_of[src as usize];
        loop {
            let d = self.rng_wl.below(self.leaf_of.len()) as u32;
            if self.leaf_of[d as usize] != my_leaf {
                return d;
            }
        }
    }

    /// Shard owning a switch.
    #[inline]
    fn sw_shard(&self, s: SwitchId) -> u32 {
        self.plan.switch_shard[s.index()]
    }

    /// Shard owning a host (always its leaf's shard).
    #[inline]
    fn host_shard(&self, h: HostId) -> u32 {
        self.plan.host_shard[h.index()]
    }

    /// Drain newly emitted network events into the engine. `src` is the
    /// shard whose component just ran; an event targeting another shard
    /// is a wire hop crossing the partition, so its packet is re-interned
    /// into the destination shard's arena and the event rides the
    /// `(src, dst)` mailbox to the next window barrier.
    fn drain_net(&mut self, src: u32) {
        // net_buf is a field to avoid per-event allocation. Drain in FIFO
        // order: components rely on push order as the tie-break for
        // same-timestamp events (enqueue-commit before tx-done).
        for (t, e) in self.net_buf.drain(..) {
            let dst = match &e {
                NetEvent::ArriveSwitch { switch, .. }
                | NetEvent::SwitchTxDone { switch, .. }
                | NetEvent::EnqueueCommit { switch, .. } => self.plan.switch_shard[switch.index()],
                NetEvent::ArriveHost { host, .. } | NetEvent::HostTxDone { host } => {
                    self.plan.host_shard[host.index()]
                }
            };
            let e = if dst == src {
                e
            } else {
                match e {
                    NetEvent::ArriveSwitch {
                        switch,
                        ingress,
                        pkt,
                    } => {
                        let p = self.arenas[src as usize].take(pkt);
                        let pkt = self.arenas[dst as usize].insert(p);
                        NetEvent::ArriveSwitch {
                            switch,
                            ingress,
                            pkt,
                        }
                    }
                    // Tx-done and enqueue-commit are switch/host-local,
                    // and hosts are colocated with their leaf: the only
                    // event that can cross shards is a switch-to-switch
                    // wire hop.
                    other => unreachable!("non-wire event crossed shards: {other:?}"),
                }
            };
            self.queue.push_shard(t, dst, src, Event::Net(e));
        }
    }

    fn start_flow(&mut self, src: u32, dst: u32, bytes: u64, class: FlowClass, now: Time) {
        if src == dst {
            return;
        }
        let id = drill_net::FlowId(self.flows.len() as u32);
        let flow_hash = self.rng_wl.next_u64();
        let flow = TcpFlow::new(
            id,
            HostId(src),
            HostId(dst),
            flow_hash,
            bytes,
            now,
            self.cfg.tcp,
        );
        // Elephants are the measured subject wherever they appear (they
        // start at t=0 by design); other classes honour the warmup window.
        let measured =
            class == FlowClass::Elephant || (now >= self.cfg.warmup && now <= self.arrivals_end);
        self.flows.push(flow);
        self.classes.push(class);
        self.measured.push(measured);
        self.shims.push(None);
        self.sched_gen.push(0);
        if measured {
            self.stats.flows_started += 1;
        }

        if self.cfg.raw_packet_mode {
            // Open-loop packet train: the whole flow is dumped into the
            // NIC at arrival (the NIC paces it at line rate).
            let mss = 1442u64;
            let mut off = 0u64;
            while off < bytes {
                let payload = (bytes - off).min(mss) as u32;
                self.pkt_ids += 1;
                let p = Packet::data(
                    self.pkt_ids,
                    id,
                    HostId(src),
                    HostId(dst),
                    flow_hash,
                    off,
                    payload,
                    now,
                );
                self.host_send(HostId(src), p, now);
                off += payload as u64;
            }
            return;
        }

        let mut out = self.pkt_pool.get();
        let idx = id.0;
        self.flows[idx as usize].start_sending(now, &mut self.pkt_ids, &mut out);
        for p in out.drain(..) {
            self.host_send(HostId(src), p, now);
        }
        self.pkt_pool.put(out);
        self.schedule_rto(idx, now);
    }

    fn schedule_rto(&mut self, flow: u32, now: Time) {
        if let Some((at, gen)) = self.flows[flow as usize].rto_deadline(now) {
            if self.sched_gen[flow as usize] != gen {
                self.sched_gen[flow as usize] = gen;
                self.queue.push_control(at, Event::TcpTimer { flow, gen });
            }
        }
    }

    fn host_send(&mut self, host: HostId, mut pkt: Packet, now: Time) {
        let k = self.host_shard(host);
        self.host_policies[host.index()].on_send(&mut pkt, now, &mut self.rng_net);
        // The packet enters its host's shard arena here and leaves at
        // final delivery (`take`) or at whichever drop site claims it
        // (`free`) — re-interned along the way when a wire hop crosses
        // shards (see `drain_net`).
        let pref = self.arenas[k as usize].insert(pkt);
        self.nics[host.index()].send(
            &self.topo,
            &mut self.arenas[k as usize],
            pref,
            now,
            &mut self.net_buf,
            &mut self.probe,
        );
        self.drain_net(k);
    }

    fn on_host_arrival(&mut self, host: HostId, pref: PacketRef, now: Time) {
        let k = self.host_shard(host) as usize;
        if P::ENABLED {
            self.probe
                .on_host_recv(now, host.0, &self.arenas[k].get(&pref).meta());
        }
        if self.cfg.raw_packet_mode {
            self.data_delivered += 1;
            self.bytes_delivered += self.arenas[k].get(&pref).payload as u64;
            self.arenas[k].free(pref);
            return;
        }
        let (flow, is_ack) = {
            let pkt = self.arenas[k].get(&pref);
            (pkt.flow.0, pkt.is_ack())
        };
        // Sabotage hook (audited builds only): blackhole the target
        // flow's data at the receiver — freed, not leaked, so packet
        // conservation stays clean while the sender stalls into RTOs.
        if A::ENABLED {
            if let Some(SabotageSpec {
                at,
                kind: SabotageKind::BlackholeFlow { flow: target },
            }) = self.cfg.sabotage
            {
                if flow == target && !is_ack && now >= at {
                    self.arenas[k].free(pref);
                    return;
                }
            }
        }
        if is_ack {
            // Sender side.
            let pkt = self.arenas[k].take(pref);
            debug_assert_eq!(self.flows[flow as usize].src, host);
            let mut out = self.pkt_pool.get();
            self.flows[flow as usize].on_ack(&pkt, now, &mut self.pkt_ids, &mut out);
            for p in out.drain(..) {
                self.host_send(host, p, now);
            }
            self.pkt_pool.put(out);
            self.schedule_rto(flow, now);
            if self.flows[flow as usize].is_done()
                && self.classes[flow as usize] == FlowClass::Elephant
            {
                self.chain_elephant(flow, now);
            }
        } else {
            // Receiver side; the shim (if enabled) restores ordering first.
            if self.shim_enabled {
                if self.shims[flow as usize].is_none() {
                    let (threshold, timeout) = self.cfg.scheme.shim_params();
                    self.shims[flow as usize] =
                        Some(ShimBuffer::with_threshold(timeout, threshold));
                }
                let mut deliver = self.ref_pool.get();
                let shim = self.shims[flow as usize].as_mut().expect("just created");
                let timer = shim.on_packet(&self.arenas[k], pref, now, &mut deliver);
                if let Some((at, gen)) = timer {
                    self.queue.push_control(at, Event::ShimTimer { flow, gen });
                }
                for p in deliver.drain(..) {
                    self.recv_data(flow, p, now);
                }
                self.ref_pool.put(deliver);
            } else {
                self.recv_data(flow, pref, now);
            }
        }
    }

    fn recv_data(&mut self, flow: u32, pref: PacketRef, now: Time) {
        self.data_delivered += 1;
        let receiver = self.flows[flow as usize].dst;
        let k = self.host_shard(receiver) as usize;
        let pkt = self.arenas[k].take(pref);
        self.bytes_delivered += pkt.payload as u64;
        let mut acks = self.pkt_pool.get();
        self.flows[flow as usize].on_data(&pkt, now, &mut self.pkt_ids, &mut acks);
        for a in acks.drain(..) {
            self.host_send(receiver, a, now);
        }
        self.pkt_pool.put(acks);
    }

    fn chain_elephant(&mut self, flow: u32, now: Time) {
        let synth = match self.cfg.synthetic.clone() {
            Some(s) => s,
            None => return,
        };
        let src = self.flows[flow as usize].src.0;
        let dst = self
            .synth_pattern
            .as_mut()
            .expect("synthetic mode has a bound pattern")
            .pick_dst(src, &mut self.rng_wl);
        if now <= self.arrivals_end {
            self.start_flow(src, dst, synth.elephant_bytes, FlowClass::Elephant, now);
        }
    }

    fn sample_queues(&mut self) {
        let mut lens = std::mem::take(&mut self.lens_scratch);
        for ports in self.leaf_up_ports.iter().chain(&self.spine_down_ports) {
            if ports.len() < 2 {
                continue;
            }
            lens.clear();
            lens.extend(
                ports
                    .iter()
                    .map(|&(s, p)| self.switches[s].queue_pkts(p) as f64),
            );
            self.stats.queue_stdv.add(stdev_of(&lens));
        }
        self.lens_scratch = lens;
    }

    fn finalize(mut self) -> (RunStats, P, A) {
        // A fault whose reconvergence never came due (detection window
        // past the deadline, or the run drained first) leaves its window
        // open: close it at the end of simulated time so the degradation
        // accounting still covers it.
        if let Some(open) = self.window_open_at.take() {
            let end = self.queue.now().max(open);
            self.stats.fault_blackholed +=
                self.total_blackholed().saturating_sub(self.blackhole_mark);
            self.stats.fault_window_ns += (end - open).as_nanos();
            self.fault_windows.push((open, end));
        }

        // Per-hop aggregates.
        for (si, sw) in self.switches.iter().enumerate() {
            let id = SwitchId(si as u32);
            for port in 0..sw.num_ports() as u16 {
                let hop = hop_index(self.topo.egress(id, port).hop);
                let ps = sw.port_stats(port);
                self.stats.hops.wait_ns[hop] += ps.wait_ns_sum;
                self.stats.hops.wait_samples[hop] += ps.wait_count;
                self.stats.hops.drops[hop] += ps.drops;
                self.stats.hops.tx[hop] += ps.tx_pkts;
            }
            self.stats.blackholed += sw.blackholed;
        }
        self.stats.nic_drops = self.nics.iter().map(|n| n.drops).sum();
        self.stats.data_pkts_delivered = self.data_delivered;
        self.stats.bytes_delivered = self.bytes_delivered;

        // Per-flow metrics.
        let sim_end = self.queue.now();
        for (i, f) in self.flows.iter().enumerate() {
            if !self.measured[i] {
                continue;
            }
            self.stats.retransmissions += f.retransmissions as u64;
            self.stats.timeouts += f.timeouts as u64;
            self.stats.gro_batches += f.gro_batches;
            match self.classes[i] {
                FlowClass::Elephant => {
                    // Per-flow goodput over the flow's own active lifetime
                    // (completed flows: until the final ACK; persistent
                    // flows: until the end of the run).
                    let end = f.done.unwrap_or(sim_end);
                    let active = end.saturating_sub(f.start).max(Time::from_nanos(1));
                    self.stats
                        .elephant_gbps
                        .add(f.bytes_acked as f64 * 8.0 / active.as_secs_f64() / 1e9);
                }
                class => {
                    self.stats.dupacks.add(f.dup_acks_sent as usize);
                    self.stats.reorders.add(f.reorder_events as usize);
                    if let Some(fct) = f.fct() {
                        self.stats.flows_completed += 1;
                        let ms = fct.as_nanos() as f64 / 1e6;
                        // Graceful-degradation split: flows whose lifetime
                        // overlapped a fault window vs. undisturbed flows.
                        let done = f.done.unwrap_or(sim_end);
                        if self
                            .fault_windows
                            .iter()
                            .any(|&(ws, we)| f.start <= we && done >= ws)
                        {
                            self.stats.fct_fault_ms.add(ms);
                        } else if !self.fault_windows.is_empty() {
                            self.stats.fct_clear_ms.add(ms);
                        }
                        match class {
                            FlowClass::Mice => self.stats.fct_mice_ms.add(ms),
                            FlowClass::Incast => {
                                self.stats.fct_ms.add(ms);
                                self.stats.fct_incast_ms.add(ms);
                            }
                            _ => self.stats.fct_ms.add(ms),
                        }
                    }
                }
            }
        }
        self.stats.events = self.queue.events_processed();
        self.stats.sim_end = self.queue.now();
        // Packets still interned when the loop stopped. A fully drained
        // run ends at zero (every insert met its take/free); runs cut off
        // by the deadline or `max_events` legitimately leave packets in
        // flight, so the golden suite (not this method) asserts zero.
        self.stats.arena_live_at_end = self.arenas.iter().map(|a| a.live() as u64).sum();
        let (handoffs, hash, windows) = self.queue.shard_stats();
        self.stats.shard_handoffs = handoffs;
        self.stats.shard_handoff_hash = hash;
        self.stats.shard_windows = windows;
        self.stats.anomalies = self.audit.reports().len() as u64;
        (self.stats, self.probe, self.audit)
    }
}

/// Replace a switch's policy while keeping its id/shape (used when a
/// controller rebuilds tables after failures). Queue contents are carried
/// over conceptually by building a fresh switch — packets in flight at the
/// dead switch are dropped, which approximates a real reconvergence blip.
fn rebuild_switch(
    topo: &Topology,
    old: &Switch,
    policy: Box<dyn drill_net::SwitchPolicy>,
    cfg: &ExperimentConfig,
) -> Switch {
    let sw_cfg = SwitchConfig {
        engines: cfg.engines,
        queue_limit_bytes: cfg.queue_limit_bytes,
        model_enqueue_commit: cfg.model_commit,
    };
    Switch::new(old.id(), topo.num_ports(old.id()), sw_cfg, policy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TopoSpec;
    use drill_faults::FaultSchedule;
    use drill_net::LeafSpineSpec;

    fn tiny_topo() -> TopoSpec {
        TopoSpec::LeafSpine(LeafSpineSpec {
            spines: 4,
            leaves: 4,
            hosts_per_leaf: 4,
            host_rate: 10_000_000_000,
            core_rate: 10_000_000_000,
            prop: drill_net::DEFAULT_PROP,
        })
    }

    fn quick_cfg(scheme: Scheme, load: f64) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::new(tiny_topo(), scheme, load);
        cfg.duration = Time::from_millis(5);
        cfg.drain = Time::from_millis(100);
        cfg.warmup = Time::from_micros(200);
        cfg
    }

    #[test]
    fn ecmp_run_completes_flows() {
        let stats = run(&quick_cfg(Scheme::Ecmp, 0.3));
        assert!(stats.flows_started > 50, "{}", stats.flows_started);
        assert!(
            stats.completion_rate() > 0.95,
            "{}",
            stats.completion_rate()
        );
        assert!(stats.mean_fct_ms() > 0.0);
        assert!(stats.events > 1000);
    }

    #[test]
    fn drill_run_completes_flows_with_low_reordering() {
        // Paper-shaped fabric: fast (40G) core over 10G edges. A one-packet
        // queue imbalance then costs 300ns against 1200ns packet spacing,
        // which is what keeps DRILL's reordering rare (§3.3); a slow-core
        // fabric is far more reorder-prone (the paper's scale-out study).
        let mut cfg = quick_cfg(Scheme::drill_no_shim(), 0.3);
        cfg.topo = TopoSpec::LeafSpine(LeafSpineSpec {
            spines: 4,
            leaves: 4,
            hosts_per_leaf: 4,
            host_rate: 10_000_000_000,
            core_rate: 40_000_000_000,
            prop: drill_net::DEFAULT_PROP,
        });
        let stats = run(&cfg);
        assert!(stats.completion_rate() > 0.95);
        // The overwhelming majority of flows see no dup ACKs.
        assert!(stats.dupacks.frac(0) > 0.9, "{}", stats.dupacks.frac(0));
    }

    #[test]
    fn same_seed_same_result() {
        let a = run(&quick_cfg(Scheme::drill_default(), 0.4));
        let b = run(&quick_cfg(Scheme::drill_default(), 0.4));
        assert_eq!(a.flows_started, b.flows_started);
        assert_eq!(a.flows_completed, b.flows_completed);
        assert_eq!(a.events, b.events);
        assert_eq!(a.mean_fct_ms(), b.mean_fct_ms());
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg = quick_cfg(Scheme::Ecmp, 0.4);
        let a = run(&cfg);
        cfg.seed = 99;
        let b = run(&cfg);
        assert_ne!(a.events, b.events);
    }

    #[test]
    fn queue_sampler_records() {
        let mut cfg = quick_cfg(Scheme::Random, 0.5);
        cfg.sample_queues = true;
        cfg.raw_packet_mode = true;
        let stats = run(&cfg);
        assert!(
            stats.queue_stdv.count() > 100,
            "{}",
            stats.queue_stdv.count()
        );
    }

    #[test]
    fn random_failures_are_deterministic_and_distinct() {
        let topo = tiny_topo().build();
        let a = random_leaf_spine_failures(&topo, 3, 42);
        let b = random_leaf_spine_failures(&topo, 3, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        let mut u = a.clone();
        u.sort_unstable();
        u.dedup();
        assert_eq!(u.len(), 3);
    }

    #[test]
    fn random_failures_exhaustion_edges() {
        // 4 leaves x 4 spines = 16 leaf-spine pairs in total.
        let topo = tiny_topo().build();
        assert!(random_leaf_spine_failures(&topo, 0, 1).is_empty());
        // Asking for more than exist returns every pair, each exactly once.
        let all = random_leaf_spine_failures(&topo, 1000, 1);
        assert_eq!(all.len(), 16);
        let mut u = all.clone();
        u.sort_unstable();
        u.dedup();
        assert_eq!(u.len(), 16, "no duplicates at exhaustion");
        assert_eq!(random_leaf_spine_failures(&topo, 16, 1).len(), 16);
    }

    #[test]
    fn random_failures_are_duplicate_free_across_seeds_and_skip_dead_links() {
        let mut topo = tiny_topo().build();
        for seed in 0..50u64 {
            let picks = random_leaf_spine_failures(&topo, 8, seed);
            assert_eq!(picks.len(), 8);
            let mut u = picks.clone();
            u.sort_unstable();
            u.dedup();
            assert_eq!(u.len(), 8, "seed {seed} produced duplicates");
        }
        // Failed pairs are no longer candidates.
        let victim = random_leaf_spine_failures(&topo, 1, 7)[0];
        assert!(topo.fail_switch_link(SwitchId(victim.0), SwitchId(victim.1), 0));
        for seed in 0..50u64 {
            let picks = random_leaf_spine_failures(&topo, 15, seed);
            assert_eq!(picks.len(), 15, "one pair is down");
            assert!(!picks.contains(&victim), "dead pair re-picked");
        }
    }

    #[test]
    #[should_panic(expected = "matches no live switch-to-switch link")]
    fn unknown_failed_link_panics_at_build() {
        let mut cfg = quick_cfg(Scheme::Ecmp, 0.1);
        cfg.failed_links = vec![(97, 98)];
        run(&cfg);
    }

    #[test]
    #[should_panic(expected = "matches no live switch-to-switch link")]
    fn unknown_failed_link_panics_with_fail_at_too() {
        // Regression: the ApplyFailures path used to drop unknown pairs
        // silently while the build-time path asserted. Both now surface
        // the same error, and they surface it before the run starts.
        let mut cfg = quick_cfg(Scheme::Ecmp, 0.1);
        cfg.failed_links = vec![(97, 98)];
        cfg.fail_at = Some(Time::from_micros(100));
        run(&cfg);
    }

    #[test]
    #[should_panic(expected = "matches no live switch-to-switch link")]
    fn duplicate_single_link_failure_panics_when_applied() {
        // Two leaves are joined by exactly one link pair; failing it twice
        // exhausts the pair mid-run and must be loud, not silent.
        let mut cfg = quick_cfg(Scheme::Ecmp, 0.1);
        let topo = cfg.topo.build();
        let pair = random_leaf_spine_failures(&topo, 1, 3)[0];
        cfg.failed_links = vec![pair, pair];
        cfg.fail_at = Some(Time::from_micros(100));
        run(&cfg);
    }

    #[test]
    fn failure_run_still_completes() {
        let mut cfg = quick_cfg(Scheme::drill_default(), 0.3);
        let topo = cfg.topo.build();
        cfg.failed_links = random_leaf_spine_failures(&topo, 1, 7);
        let stats = run(&cfg);
        assert!(stats.completion_rate() > 0.9, "{}", stats.completion_rate());
    }

    #[test]
    fn chaos_schedule_runs_with_staged_reconvergence() {
        let mut cfg = quick_cfg(Scheme::drill_default(), 0.3);
        cfg.duration = Time::from_millis(8);
        let topo = cfg.topo.build();
        let pairs = random_leaf_spine_failures(&topo, 4, 11);
        let mut s = FaultSchedule::new(Time::from_micros(200));
        s.link_flap(
            pairs[0].0,
            pairs[0].1,
            Time::from_millis(1),
            Time::from_millis(2),
        );
        s.link_flap(
            pairs[1].0,
            pairs[1].1,
            Time::from_millis(3),
            Time::from_millis(4),
        );
        s.degrade_window(
            pairs[2].0,
            pairs[2].1,
            1,
            4,
            Time::from_millis(2),
            Time::from_millis(5),
        );
        s.switch_outage(pairs[3].1, Time::from_millis(5), Time::from_millis(6));
        cfg.faults = Some(s);
        let stats = run(&cfg);
        assert_eq!(stats.fault_events, 8, "2 flaps + degrade window + outage");
        assert!(stats.reconvergences >= 1, "{}", stats.reconvergences);
        assert!(stats.fault_window_ns > 0);
        assert!(stats.stable_at > Time::ZERO);
        assert!(
            stats.fct_fault_ms.count() + stats.fct_clear_ms.count() > 0,
            "FCTs were classified against the fault windows"
        );
        assert!(
            stats.completion_rate() > 0.85,
            "{}",
            stats.completion_rate()
        );
    }

    #[test]
    fn chaos_runs_are_deterministic_and_empty_schedule_is_free() {
        let mut cfg = quick_cfg(Scheme::drill_default(), 0.3);
        let base = run(&cfg);
        // Attaching an empty schedule changes nothing: no events, no RNG
        // draws, bit-identical metrics.
        cfg.faults = Some(FaultSchedule::default());
        let with_empty = run(&cfg);
        assert_eq!(base.events, with_empty.events);
        assert_eq!(
            base.mean_fct_ms().to_bits(),
            with_empty.mean_fct_ms().to_bits()
        );
        assert_eq!(with_empty.fault_events, 0);
        assert_eq!(with_empty.fct_clear_ms.count(), 0, "no windows, no split");

        // A generated chaos schedule replays bit-identically.
        let topo = cfg.topo.build();
        let pairs = random_leaf_spine_failures(&topo, 2, 3);
        let mut s = FaultSchedule::default();
        s.random_flaps(
            &pairs,
            9,
            6,
            Time::from_millis(1),
            Time::from_millis(4),
            Time::from_micros(100),
            Time::from_micros(500),
        );
        cfg.faults = Some(s);
        let a = run(&cfg);
        let b = run(&cfg);
        assert!(a.fault_events > 0);
        assert_eq!(a.events, b.events);
        assert_eq!(a.fault_events, b.fault_events);
        assert_eq!(a.fault_window_ns, b.fault_window_ns);
        assert_eq!(a.mean_fct_ms().to_bits(), b.mean_fct_ms().to_bits());
    }

    #[test]
    fn fail_restore_fail_on_same_pair_ends_failed_and_routing_reflects_it() {
        // Injector level: the final state of a down/up/down train is down.
        let mut topo = tiny_topo().build();
        let (a, b) = random_leaf_spine_failures(&topo, 1, 13)[0];
        let mut inj = FaultInjector::new();
        inj.apply(&mut topo, FaultKind::LinkDown { a, b });
        inj.apply(&mut topo, FaultKind::LinkUp { a, b });
        inj.apply(&mut topo, FaultKind::LinkDown { a, b });
        assert!(
            topo.ports_to_switch(SwitchId(a), SwitchId(b)).is_empty(),
            "pair ends the sequence failed"
        );
        topo.validate();

        // World level: the same mid-run sequence reconverges each time and
        // traffic routes around the dead pair (the run still completes).
        let mut cfg = quick_cfg(Scheme::drill_default(), 0.3);
        let mut s = FaultSchedule::new(Time::from_micros(100));
        s.push(Time::from_millis(1), FaultKind::LinkDown { a, b });
        s.push(Time::from_millis(2), FaultKind::LinkUp { a, b });
        s.push(Time::from_millis(3), FaultKind::LinkDown { a, b });
        cfg.faults = Some(s);
        let stats = run(&cfg);
        assert_eq!(stats.fault_events, 3);
        assert_eq!(stats.reconvergences, 3, "windows are disjoint");
        assert!(stats.completion_rate() > 0.9, "{}", stats.completion_rate());
    }

    #[test]
    fn legacy_fail_at_matches_the_equivalent_schedule() {
        let mut legacy = quick_cfg(Scheme::Ecmp, 0.3);
        let topo = legacy.topo.build();
        let (a, b) = random_leaf_spine_failures(&topo, 1, 5)[0];
        legacy.failed_links = vec![(a, b)];
        legacy.fail_at = Some(Time::from_millis(1));
        legacy.ospf_delay = Time::from_millis(2);
        let l = run(&legacy);

        let mut sched = quick_cfg(Scheme::Ecmp, 0.3);
        let mut s = FaultSchedule::new(Time::from_millis(2));
        s.push(Time::from_millis(1), FaultKind::LinkDown { a, b });
        sched.faults = Some(s);
        let r = run(&sched);

        assert_eq!(l.fault_events, 1);
        assert_eq!(l.events, r.events);
        assert_eq!(l.flows_started, r.flows_started);
        assert_eq!(l.flows_completed, r.flows_completed);
        assert_eq!(l.reconvergences, r.reconvergences);
        assert_eq!(l.mean_fct_ms().to_bits(), r.mean_fct_ms().to_bits());
    }

    #[test]
    fn overlapping_detection_windows_coalesce_into_one_reconvergence() {
        let mut cfg = quick_cfg(Scheme::Ecmp, 0.2);
        let topo = cfg.topo.build();
        let pairs = random_leaf_spine_failures(&topo, 2, 21);
        // Two faults 100 µs apart, each detected after 1 ms: the second
        // fault supersedes the first reconvergence generation.
        let mut s = FaultSchedule::new(Time::from_millis(1));
        s.push(
            Time::from_millis(1),
            FaultKind::LinkDown {
                a: pairs[0].0,
                b: pairs[0].1,
            },
        );
        s.push(
            Time::from_millis(1) + Time::from_micros(100),
            FaultKind::LinkDown {
                a: pairs[1].0,
                b: pairs[1].1,
            },
        );
        cfg.faults = Some(s);
        let stats = run(&cfg);
        assert_eq!(stats.fault_events, 2);
        assert_eq!(stats.reconvergences, 1, "coalesced into one recompute");
        assert_eq!(
            stats.stable_at,
            Time::from_millis(2) + Time::from_micros(100)
        );
    }

    #[test]
    fn lossy_window_drops_packets_without_reconvergence() {
        let mut cfg = quick_cfg(Scheme::Ecmp, 0.3);
        let topo = cfg.topo.build();
        let (a, b) = random_leaf_spine_failures(&topo, 1, 2)[0];
        let mut s = FaultSchedule::default();
        s.lossy_window(a, b, 200_000, Time::from_millis(1), Time::from_millis(4));
        cfg.faults = Some(s);
        let stats = run(&cfg);
        assert_eq!(stats.fault_events, 2, "set + clear");
        assert_eq!(stats.reconvergences, 0, "loss keeps the graph intact");
        assert!(
            stats.retransmissions > 0,
            "wire loss forced TCP to retransmit"
        );
        assert!(stats.completion_rate() > 0.9, "{}", stats.completion_rate());
    }

    /// Assert the live routing state equals a from-scratch recompute:
    /// candidates from a fresh BFS over the current topology, groups from
    /// the enumerative §3.4 oracle `install_symmetric_groups_eager`.
    /// Returns how many entries carry explicit groups.
    fn assert_routes_match_fresh_eager<P: Probe, A: Audit>(w: &World<P, A>, label: &str) -> usize {
        let mut fresh = RouteTable::compute(&w.topo);
        drill_core::install_symmetric_groups_eager(&w.topo, &mut fresh);
        let mut grouped = 0;
        for si in 0..w.topo.num_switches() {
            let s = SwitchId(si as u32);
            for d in 0..w.topo.num_leaves() as u32 {
                assert_eq!(
                    w.routes.candidates(s, d),
                    fresh.candidates(s, d),
                    "{label}: candidates at switch {si} toward leaf {d}"
                );
                assert_eq!(
                    w.routes.groups(s, d),
                    fresh.groups(s, d),
                    "{label}: groups at switch {si} toward leaf {d}"
                );
                grouped += usize::from(!fresh.groups(s, d).is_empty());
            }
        }
        grouped
    }

    #[test]
    fn reconvergence_tables_match_fresh_eager_and_degrade_skips_bfs() {
        // A pure-capacity window (Degrade cannot change reachability, so
        // the BFS is skipped and only the group decomposition reruns),
        // then a reachability window (full recompute), then a restore.
        // After each reconvergence the live tables must equal a fresh
        // recompute with the enumerative §3.4 oracle.
        let mut cfg = quick_cfg(Scheme::drill_default(), 0.3);
        let topo = cfg.topo.build();
        let pairs = random_leaf_spine_failures(&topo, 2, 17);
        let mut s = FaultSchedule::new(Time::from_micros(300));
        s.push(
            Time::from_millis(1),
            FaultKind::Degrade {
                a: pairs[0].0,
                b: pairs[0].1,
                num: 1,
                den: 4,
            },
        );
        s.push(
            Time::from_millis(2),
            FaultKind::LinkDown {
                a: pairs[1].0,
                b: pairs[1].1,
            },
        );
        s.push(
            Time::from_millis(3),
            FaultKind::LinkUp {
                a: pairs[1].0,
                b: pairs[1].1,
            },
        );
        cfg.faults = Some(s);
        let mut w = World::new(&cfg);

        // The identity of one non-empty candidate list's storage tells a
        // skipped BFS from a recompute: `RouteTable::compute` allocates
        // the new table while the old one is still alive, so a recompute
        // can never hand back the same buffer.
        let (probe_sw, probe_leaf) = (0..w.topo.num_switches())
            .flat_map(|si| (0..w.topo.num_leaves() as u32).map(move |d| (SwitchId(si as u32), d)))
            .find(|&(s, d)| !w.routes.candidates(s, d).is_empty())
            .expect("some entry has candidates");
        let storage = |w: &World| w.routes.candidates(probe_sw, probe_leaf).as_ptr();

        // Degrade applied at 1 ms, reconvergence due at 1.3 ms.
        w.run_to(Time::from_micros(1200));
        assert_eq!(w.stats.reconvergences, 0);
        let before = storage(&w);
        w.run_to(Time::from_micros(1500));
        assert_eq!(w.stats.reconvergences, 1, "degrade still reconverges");
        assert_eq!(storage(&w), before, "degrade window skipped the BFS");
        let grouped = assert_routes_match_fresh_eager(&w, "after degrade");
        assert!(grouped > 0, "the degraded link split some entry");

        w.run_to(Time::from_micros(2500));
        assert_eq!(w.stats.reconvergences, 2);
        assert_ne!(storage(&w), before, "link-down window recomputed routes");
        assert_routes_match_fresh_eager(&w, "after link down");

        w.run_to(Time::from_micros(3500));
        assert_eq!(w.stats.reconvergences, 3);
        assert_routes_match_fresh_eager(&w, "after link up");

        let stats = w.finish();
        assert_eq!(stats.fault_events, 3);
        assert_eq!(stats.reconvergences, 3);
    }

    #[test]
    fn incast_flows_are_tracked() {
        let mut cfg = quick_cfg(Scheme::Ecmp, 0.1);
        cfg.workload.incast = Some(drill_workload::IncastSpec {
            epoch_gap: Time::from_millis(1),
            ..Default::default()
        });
        let stats = run(&cfg);
        assert!(stats.fct_incast_ms.count() > 0, "incast flows measured");
    }

    #[test]
    fn synthetic_mode_produces_elephants_and_mice() {
        let mut cfg = quick_cfg(Scheme::Ecmp, 0.0);
        cfg.workload.pattern = TrafficPattern::Stride(4);
        cfg.synthetic = Some(crate::config::SyntheticMode {
            elephant_bytes: 2_000_000,
            mice_bytes: 50_000,
            mice_period: Time::from_millis(1),
        });
        cfg.duration = Time::from_millis(10);
        let stats = run(&cfg);
        assert!(stats.elephant_gbps.count() > 0, "elephants measured");
        assert!(stats.fct_mice_ms.count() > 0, "mice measured");
    }

    #[test]
    fn recorded_run_captures_events_with_identical_stats() {
        let mut cfg = quick_cfg(Scheme::drill_default(), 0.3);
        cfg.duration = Time::from_millis(2);
        let base = run(&cfg);
        let (stats, tel) = run_recorded(&cfg);
        // The probe observes but never steers: every counter matches the
        // probe-free run exactly.
        assert_eq!(base.events, stats.events);
        assert_eq!(base.flows_started, stats.flows_started);
        assert_eq!(base.flows_completed, stats.flows_completed);
        assert_eq!(base.mean_fct_ms().to_bits(), stats.mean_fct_ms().to_bits());
        assert!(tel.recorder.event_count() > 1000, "recorder saw traffic");
        assert!(!tel.sampler.ports().is_empty(), "sampler saw queues");
        assert!(tel.sampler.max_high_water_pkts() > 0);
    }

    #[test]
    fn telemetry_config_knob_writes_trace_file() {
        let path = std::env::temp_dir().join(format!(
            "drill_world_trace_test_{}.drilltrc",
            std::process::id()
        ));
        let mut cfg = quick_cfg(Scheme::Ecmp, 0.2);
        cfg.duration = Time::from_millis(1);
        cfg.telemetry = Some(crate::config::TelemetrySpec {
            trace_path: Some(path.clone()),
            ..Default::default()
        });
        let stats = run(&cfg);
        assert!(stats.flows_started > 0);
        let bytes = std::fs::read(&path).expect("trace file written");
        let trace = drill_telemetry::read_trace(&mut &bytes[..]).expect("trace decodes");
        assert!(trace.event_count() > 0);
        assert_eq!(trace.num_switches as usize, cfg.topo.build().num_switches());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn all_schemes_run_to_completion() {
        for scheme in [
            Scheme::Ecmp,
            Scheme::Random,
            Scheme::RoundRobin,
            Scheme::drill_default(),
            Scheme::drill_no_shim(),
            Scheme::PerFlowDrill,
            Scheme::presto(),
            Scheme::Presto { shim: false },
            Scheme::Conga,
            Scheme::Wcmp,
        ] {
            let mut cfg = quick_cfg(scheme, 0.2);
            cfg.duration = Time::from_millis(2);
            let stats = run(&cfg);
            assert!(
                stats.completion_rate() > 0.9,
                "{}: completion {}",
                scheme.name(),
                stats.completion_rate()
            );
        }
    }
}
