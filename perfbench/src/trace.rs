//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! simulator's public API; the simulator itself carries no tracing. A
//! span has a name, start and end (ns since the tracer's origin), a
//! parent, a run id and an event count; spans stay in memory and are
//! written out once, at the end.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// What the span covers.
    pub name: String,
    /// Start, ns since the tracer's origin.
    pub start_ns: u64,
    /// End, ns since the tracer's origin (0 while open).
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Spans of one simulation run share a run id.
    pub run: u32,
    /// Simulated events dispatched inside the span.
    pub events: u64,
}

impl Span {
    /// Host nanoseconds the span covers.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder with a fixed time origin.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer::with_origin(Instant::now())
    }

    /// An empty tracer sharing another tracer's origin (for worker
    /// threads whose spans are [`absorb`](Tracer::absorb)ed later).
    pub fn with_origin(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    /// The clock origin.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span now.
    pub fn open(&mut self, name: impl Into<String>, parent: Option<SpanId>, run: u32) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: 0,
            parent,
            run,
            events: 0,
        });
        self.spans.len() - 1
    }

    /// Close span `id` now, crediting it with `events`.
    pub fn close(&mut self, id: SpanId, events: u64) {
        let end = self.now_ns();
        let s = &mut self.spans[id];
        s.end_ns = end;
        s.events = events;
    }

    /// Record `f` as one closed span, returning its result.
    pub fn span<R>(
        &mut self,
        name: impl Into<String>,
        parent: Option<SpanId>,
        run: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, run);
        let r = f();
        self.close(id, 0);
        r
    }

    /// Every span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Move `other`'s spans in (same origin), re-parenting its roots
    /// under `parent`.
    pub fn absorb(&mut self, other: Tracer, parent: Option<SpanId>) {
        let base = self.spans.len();
        for mut s in other.spans {
            s.parent = match s.parent {
                Some(p) => Some(p + base),
                None => parent,
            };
            self.spans.push(s);
        }
    }

    /// Self time of every span: its duration minus the part of it that
    /// its children cover (children of parallel workers may overlap, so
    /// the union of their intervals is subtracted).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut cur: Option<(u64, u64)> = None;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                    if b <= a {
                        continue;
                    }
                    cur = match cur {
                        Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            Some((a, b))
                        }
                        None => Some((a, b)),
                    };
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
                s.dur_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Every span with its self time, as a JSON array.
    pub fn to_json(&self) -> String {
        let selfs = self.self_times_ns();
        let mut out = String::from("[\n");
        for (i, (s, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
\"self_ns\": {self_ns}, \"parent\": {parent}, \"run\": {}, \"events\": {}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.run, s.events
            )
            .expect("writing to a String cannot fail");
        }
        out.push(']');
        out
    }
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: String::new(),
            start_ns,
            end_ns,
            parent,
            run: 0,
            events: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new();
        t.spans = vec![
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(30, 60, Some(0)), // overlaps the first child
            span(80, 90, Some(0)),
            span(15, 20, Some(1)),
        ];
        assert_eq!(t.self_times_ns(), vec![100 - 50 - 10, 25, 30, 10, 5]);
    }
}
