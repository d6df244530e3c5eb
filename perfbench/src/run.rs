//! Timed and traced executions of a workload, driven through the public
//! `World` API (`World::new` / `run_to` / `finish`).

use std::thread::ThreadId;
use std::time::Instant;

use drill_exec::Executor;
use drill_runtime::{run_audited, ExperimentConfig, World};
use drill_sim::Time;

use crate::layers::{median, replay_all, set_link, LayerCtx, Metric};
use crate::outputs::Outputs;
use crate::trace::Tracer;
use crate::workloads::{failure_picks, reconverge_instants, Workload};

/// Sim-time slices per traced point.
const TRACE_SLICES: u64 = 48;

/// Back-to-back (untraced, traced) pairs of a traced run; the tracing
/// overhead is the difference of the two medians.
const OVERHEAD_PAIRS: usize = 3;

/// One point of an untraced run: its outputs and host times.
pub struct PointRun {
    /// What the point simulated.
    pub outputs: Outputs,
    /// Host seconds in `World::new`.
    pub setup_s: f64,
    /// Host seconds of the `Reconverge` windows `[t_r, t_r + 1 ns)`.
    pub reconverge_s: [f64; 2],
    /// Host seconds from `World::new` to the final `RunStats`.
    pub point_s: f64,
    /// When the point ended, host seconds after the grid started.
    pub end_s: f64,
    /// The pool worker that ran it.
    pub worker: ThreadId,
}

/// One untraced run of a whole workload.
pub struct Timed {
    /// Every point, in grid order.
    pub points: Vec<PointRun>,
    /// Host seconds from the start of set-up to the final `RunStats`.
    pub wall_s: f64,
    /// Σ over points of the median host seconds in `World::new`.
    pub setup_s: f64,
}

impl Timed {
    /// Σ simulated events.
    pub fn events(&self) -> u64 {
        self.points.iter().map(|p| p.outputs.events).sum()
    }

    /// Σ host seconds of each point's fail and restore reconvergence
    /// windows (zero without a fault schedule).
    pub fn reconverge_s(&self) -> [f64; 2] {
        let mut r = [0.0; 2];
        for p in &self.points {
            r[0] += p.reconverge_s[0];
            r[1] += p.reconverge_s[1];
        }
        r
    }

    /// Simulated events per host second of event loop. The loop time is
    /// Σ over points of (point seconds − set-up − reconvergence windows),
    /// divided by the pool's `workers`: on one worker this is
    /// `wall_s − setup_s − windows`, and on the pool it takes off only
    /// the set-up each worker ran, not the set-up of all points.
    pub fn events_per_s(&self, workers: usize) -> f64 {
        let loop_s: f64 = self
            .points
            .iter()
            .map(|p| p.point_s - p.setup_s - p.reconverge_s[0] - p.reconverge_s[1])
            .sum();
        self.events() as f64 / (loop_s / workers as f64)
    }

    /// `exec.busy_ratio`: Σ point seconds / (workers × wall).
    pub fn busy_ratio(&self, workers: usize) -> f64 {
        let busy: f64 = self.points.iter().map(|p| p.point_s).sum();
        busy / (workers as f64 * self.wall_s)
    }

    /// `exec.idle_s`: worker seconds spent idle at the tail, waiting for
    /// the slowest point (Σ over workers of wall − its last point's end).
    pub fn idle_s(&self, workers: usize) -> f64 {
        let mut last: Vec<(ThreadId, f64)> = Vec::new();
        for p in &self.points {
            match last.iter_mut().find(|(w, _)| *w == p.worker) {
                Some((_, end)) => *end = end.max(p.end_s),
                None => last.push((p.worker, p.end_s)),
            }
        }
        // A worker that never claimed a point idled the whole run.
        let unused = workers.saturating_sub(last.len()) as f64 * self.wall_s;
        unused + last.iter().map(|(_, end)| self.wall_s - end).sum::<f64>()
    }
}

/// Run one point untraced, timing its set-up and (when its config has a
/// fault schedule) the two reconvergence windows.
fn run_point(cfg: &ExperimentConfig, grid_start: Instant) -> PointRun {
    let t0 = Instant::now();
    let mut w = World::new(cfg);
    let setup_s = t0.elapsed().as_secs_f64();
    let reconverge_s = if cfg.faults.is_some() {
        reconverge_windows(&mut w)
    } else {
        [0.0; 2]
    };
    let mut stats = w.finish();
    let end = Instant::now();
    PointRun {
        outputs: Outputs::of(&mut stats),
        setup_s,
        reconverge_s,
        point_s: (end - t0).as_secs_f64(),
        end_s: (end - grid_start).as_secs_f64(),
        worker: std::thread::current().id(),
    }
}

/// Step `w` to each flap reconvergence instant `t_r` and time the
/// `run_to(t_r)` → `run_to(t_r + 1 ns)` window that dispatches it.
fn reconverge_windows(w: &mut World) -> [f64; 2] {
    let mut out = [0.0; 2];
    for (slot, t) in out.iter_mut().zip(reconverge_instants()) {
        w.run_to(t);
        let start = Instant::now();
        w.run_to(t + Time::from_nanos(1));
        *slot = start.elapsed().as_secs_f64();
    }
    out
}

/// Index of the first point whose scheme runs the §3.4 control plane
/// (DRILL); it sizes the layer replays.
fn representative(points: &[ExperimentConfig]) -> usize {
    points
        .iter()
        .position(|c| c.scheme.wants_symmetric_groups())
        .expect("every workload has a DRILL point")
}

/// Host seconds of `n` constructions of `cfg`'s `World`, each dropped.
fn setup_times(cfg: &ExperimentConfig, n: usize) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let t0 = Instant::now();
            let w = World::new(cfg);
            let secs = t0.elapsed().as_secs_f64();
            drop(w);
            secs
        })
        .collect()
}

/// One untraced run of workload `w` at `seed`. Before the grid, every
/// point's `World` is built and dropped `setup_reps − 1` times on the
/// pool; `setup_s` sums, over points, the median of those set-ups and
/// the grid's own.
pub fn timed(w: Workload, seed: u64) -> Timed {
    let configs = w.points(seed);
    let exec = Executor::new(w.workers());
    let extra = exec.map(&configs, |_, cfg| setup_times(cfg, w.setup_reps() - 1));
    let start = Instant::now();
    let points = exec.map(&configs, |_, cfg| run_point(cfg, start));
    let wall_s = start.elapsed().as_secs_f64();
    let setup_s = points
        .iter()
        .zip(extra)
        .map(|(p, mut times)| {
            times.push(p.setup_s);
            median(times)
        })
        .sum();
    Timed {
        points,
        wall_s,
        setup_s,
    }
}

/// Result of a traced run.
pub struct Traced {
    /// The first untraced run; its outputs are the reference.
    pub untraced: Timed,
    /// Outputs of every point of the first traced stepping.
    pub outputs: Vec<Outputs>,
    /// Median host seconds of the traced steppings, set-up to final
    /// `RunStats`.
    pub wall_s: f64,
    /// Median `wall_s` of the untraced runs paired with them.
    pub untraced_wall_s: f64,
    /// Per-layer metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Failed checks of the audited re-run.
    pub errors: Vec<String>,
}

/// Step one point through fixed sim-time slices (plus its reconvergence
/// windows), one span per slice carrying that slice's event count.
fn trace_point(cfg: &ExperimentConfig, tr: &mut Tracer, name: String, run: u32) -> Outputs {
    let root = tr.open(name, None, run);
    let setup = tr.open("setup", Some(root), run);
    let mut w = World::new(cfg);
    tr.close(setup, 0);
    let deadline = cfg.duration + cfg.drain;
    let step = deadline.as_nanos().div_ceil(TRACE_SLICES);
    let mut cuts: Vec<(Time, &'static str)> = (1..=TRACE_SLICES)
        .map(|k| {
            (
                Time::from_nanos((k * step).min(deadline.as_nanos())),
                "slice",
            )
        })
        .collect();
    if cfg.faults.is_some() {
        for t in reconverge_instants() {
            cuts.push((t, "slice"));
            cuts.push((t + Time::from_nanos(1), "reconverge"));
        }
        cuts.sort_by_key(|&(t, _)| t);
        cuts.dedup_by_key(|c| c.0);
    }
    for (t, kind) in cuts {
        let before = w.events_processed();
        let s = tr.open(kind, Some(root), run);
        w.run_to(t);
        tr.close(s, w.events_processed() - before);
    }
    let before = w.events_processed();
    let fin = tr.open("finish", Some(root), run);
    let mut stats = w.finish();
    tr.close(fin, stats.events - before);
    tr.close(root, stats.events);
    Outputs::of(&mut stats)
}

/// The traced stepping of every point of `configs` on `w`'s pool, its
/// spans recorded into `tr`; returns the outputs and the host seconds.
fn trace_grid(w: Workload, configs: &[ExperimentConfig], tr: &mut Tracer) -> (Vec<Outputs>, f64) {
    let exec = Executor::new(w.workers());
    let origin = tr.origin();
    let grid = tr.open(format!("{}.traced", w.name()), None, 0);
    let start = Instant::now();
    let per_point = exec.map(configs, |i, cfg| {
        let mut t = Tracer::with_origin(origin);
        let name = format!("point{i}:{}@{}", cfg.scheme.name(), cfg.workload.load);
        let out = trace_point(cfg, &mut t, name, i as u32 + 1);
        (out, t)
    });
    let wall_s = start.elapsed().as_secs_f64();
    tr.close(grid, 0);
    let mut outputs = Vec::new();
    for (out, t) in per_point {
        outputs.push(out);
        tr.absorb(t, Some(grid));
    }
    (outputs, wall_s)
}

/// Traced run of workload `w`: [`OVERHEAD_PAIRS`] back-to-back pairs of an
/// untraced run and a traced stepping of every point (spans kept from the
/// first stepping only), an audited re-run of the DRILL point, then every
/// layer replay. Every run of the seed must reproduce the first untraced
/// run's outputs.
pub fn traced(w: Workload, seed: u64, tr: &mut Tracer) -> Traced {
    let configs = w.points(seed);
    let untraced = timed(w, seed);
    let base: Vec<Outputs> = untraced.points.iter().map(|p| p.outputs.clone()).collect();
    let (outputs, first_wall) = trace_grid(w, &configs, tr);
    let mut untraced_walls = vec![untraced.wall_s];
    let mut traced_walls = vec![first_wall];
    let mut runs = vec![("traced stepping", outputs.clone())];
    for _ in 1..OVERHEAD_PAIRS {
        let run = timed(w, seed);
        untraced_walls.push(run.wall_s);
        runs.push((
            "untraced run",
            run.points.into_iter().map(|p| p.outputs).collect(),
        ));
        let (out, wall) = trace_grid(w, &configs, &mut Tracer::new());
        traced_walls.push(wall);
        runs.push(("traced stepping", out));
    }
    let mut errors: Vec<String> = runs
        .iter()
        .filter(|(_, out)| *out != base)
        .map(|(what, _)| format!("{what} changed the simulated outputs"))
        .collect();
    let wall_s = median(traced_walls);
    let untraced_wall_s = median(untraced_walls);

    let (loop_ns, loop_events) = tr
        .spans()
        .iter()
        .filter(|s| s.name == "slice")
        .fold((0u64, 0u64), |(ns, ev), s| (ns + s.dur_ns(), ev + s.events));
    let sum = |f: fn(&Outputs) -> u64| outputs.iter().map(f).sum::<u64>() as f64;
    let n_points = outputs.len() as u64;
    let workers = w.workers();
    let mut metrics = vec![
        metric(
            "sim.events",
            sum(|o| o.events),
            "count",
            "simulated events, all points",
        ),
        metric(
            "runtime.loop_ns_per_event",
            loop_ns as f64 / loop_events.max(1) as f64,
            "ns",
            &format!(
                "Σ slice host time / Σ slice events, {TRACE_SLICES} sim-time slices per point"
            ),
        ),
        metric(
            "runtime.reconvergences",
            sum(|o| o.reconvergences),
            "count",
            "all points",
        ),
        metric("net.drops", sum(|o| o.drops), "count", "all points"),
        metric(
            "net.blackholed",
            sum(|o| o.blackholed),
            "count",
            "all points",
        ),
        metric(
            "net.arena_live_at_end",
            sum(|o| o.arena_live_at_end),
            "count",
            "all points",
        ),
        metric(
            "transport.retransmissions",
            sum(|o| o.retransmissions),
            "count",
            "all points",
        ),
        metric(
            "transport.timeouts",
            sum(|o| o.timeouts),
            "count",
            "all points",
        ),
        metric(
            "transport.gro_batches",
            sum(|o| o.gro_batches),
            "count",
            "all points",
        ),
        metric(
            "exec.busy_ratio",
            untraced.busy_ratio(workers),
            "ratio",
            &format!("Σ point seconds / ({workers} workers × wall), first untraced run"),
        ),
        metric(
            "exec.idle_s",
            untraced.idle_s(workers),
            "s",
            "Σ over workers of wall − that worker's last point end, first untraced run",
        ),
        metric(
            "trace.overhead_s",
            wall_s - untraced_wall_s,
            "s",
            &format!(
                "median traced wall_s − median untraced wall_s over {OVERHEAD_PAIRS} \
                 back-to-back pairs; noise-limited, may be negative"
            ),
        ),
    ];

    // Reconvergence windows: the first traced stepping's own; a workload
    // without a fault schedule has none and reports 0.
    let mut windows = [0.0; 2];
    let spans = tr.spans().iter().filter(|s| s.name == "reconverge");
    for (i, s) in spans.enumerate() {
        windows[i % 2] += s.dur_ns() as f64 / 1e9;
    }
    let how = if w.expected_reconvergences() > 0 {
        "the traced run's Reconverge windows, all points"
    } else {
        "no fault schedule, so no Reconverge window: 0"
    };
    metrics.push(metric("runtime.reconverge_fail_s", windows[0], "s", how));
    metrics.push(metric("runtime.reconverge_restore_s", windows[1], "s", how));

    // Packet conservation at every audit boundary, also for runs the
    // deadline cuts off with packets in flight; the audited run must
    // reproduce the point's outputs exactly.
    let rep_idx = representative(&configs);
    let rep = configs[rep_idx].clone();
    let audit = tr.open(format!("{}.audit", w.name()), None, 0);
    let (mut audited, reports) = run_audited(&rep);
    tr.close(audit, audited.events);
    errors.extend(reports.iter().map(|r| format!("auditor: {r}")));
    if Outputs::of(&mut audited) != outputs[rep_idx] {
        errors.push(format!(
            "audited re-run of point {rep_idx} changed its outputs"
        ));
    }

    let (_, flap) = failure_picks(&rep.topo, rep.failed_links.len());
    let mut topo = rep.topo.build();
    for &pair in &rep.failed_links {
        set_link(&mut topo, pair, false);
    }
    let mut ctx = LayerCtx {
        flows_per_point: outputs.iter().map(|o| o.flows_started).sum::<u64>() / n_points,
        cfg: rep,
        topo,
        flap,
    };
    let replay = tr.open(format!("{}.replay", w.name()), None, 0);
    metrics.extend(replay_all(&mut ctx, tr, replay, 0));
    tr.close(replay, 0);
    Traced {
        untraced,
        outputs,
        wall_s,
        untraced_wall_s,
        metrics,
        errors,
    }
}

fn metric(name: &'static str, value: f64, unit: &'static str, rule: &str) -> Metric {
    Metric {
        name,
        value,
        unit,
        rule: rule.to_string(),
    }
}
