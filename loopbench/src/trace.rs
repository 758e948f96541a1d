//! In-memory span recorder for traced runs.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public functions; nothing inside the program is instrumented.
//! With tracing off, [`Tracer::span`] only runs its closure.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use loopml_rt::json::Json;

/// Identifier of a recorded span; children name it as their parent.
pub type SpanId = usize;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within one run.
    pub id: SpanId,
    /// The span that made this call, if any.
    pub parent: Option<SpanId>,
    /// `<crate>.<what>`, as in the per-layer table.
    pub name: &'static str,
    /// Serve request this span belongs to.
    pub request: Option<u64>,
    /// Microseconds since the tracer was created.
    pub start_us: f64,
    /// Microseconds since the tracer was created.
    pub end_us: f64,
}

impl Span {
    /// Wall-clock length in microseconds.
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Collects spans from any thread until the run ends.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next: AtomicUsize,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; `on = false` records nothing.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            next: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name`. `f` receives the new span's
    /// id (`None` when tracing is off) to pass to its children.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: Option<u64>,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        if !self.on {
            return f(None);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = self.epoch.elapsed();
        let out = f(Some(id));
        let end = self.epoch.elapsed();
        self.spans
            .lock()
            .expect("no span writer panics")
            .push(Span {
                id,
                parent,
                name,
                request,
                start_us: start.as_secs_f64() * 1e6,
                end_us: end.as_secs_f64() * 1e6,
            });
        out
    }

    /// Every span recorded so far, ordered by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self.spans.lock().expect("no span writer panics").clone();
        v.sort_by(|a, b| a.start_us.total_cmp(&b.start_us).then(a.id.cmp(&b.id)));
        v
    }
}

/// Self time of every span, in microseconds, keyed by span id: its
/// duration minus the part of its interval its children cover. Children
/// that overlap (parallel workers) are merged, not double-counted.
pub fn self_times(spans: &[Span]) -> BTreeMap<SpanId, f64> {
    let mut children: BTreeMap<SpanId, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_us, s.end_us));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut iv: Vec<(f64, f64)> = children
                .get(&s.id)
                .into_iter()
                .flatten()
                .map(|&(a, b)| (a.max(s.start_us), b.min(s.end_us)))
                .filter(|(a, b)| b > a)
                .collect();
            iv.sort_by(|x, y| x.0.total_cmp(&y.0));
            let mut covered = 0.0;
            let mut cur: Option<(f64, f64)> = None;
            for (a, b) in iv {
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
            (s.id, (s.duration_us() - covered).max(0.0))
        })
        .collect()
}

/// Per-name totals of a trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: usize,
    /// Sum of their durations, in microseconds.
    pub total_us: f64,
    /// Sum of their self times, in microseconds.
    pub self_us: f64,
    /// Longest single span, in microseconds.
    pub max_us: f64,
    /// Every duration, in microseconds, in start order.
    pub durations_us: Vec<f64>,
}

/// Aggregates spans by name.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        let d = s.duration_us();
        t.count += 1;
        t.total_us += d;
        t.self_us += selfs[&s.id];
        t.max_us = t.max_us.max(d);
        t.durations_us.push(d);
    }
    out
}

/// The trace document written at the end of a traced run.
pub fn to_json(spans: &[Span]) -> Json {
    let opt = |v: Option<u64>| v.map_or(Json::Null, |x| Json::Num(x as f64));
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("id", Json::Num(s.id as f64)),
                    ("parent", opt(s.parent.map(|p| p as u64))),
                    ("name", Json::Str(s.name.into())),
                    ("request", opt(s.request)),
                    ("start_us", Json::Num(s.start_us)),
                    ("end_us", Json::Num(s.end_us)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, start_us: f64, end_us: f64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            request: None,
            start_us,
            end_us,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // Root 0..100 with two children 10..30 and 50..60, and a
        // grandchild 12..20 under the first child.
        let spans = [
            span(0, None, 0.0, 100.0),
            span(1, Some(0), 10.0, 30.0),
            span(2, Some(0), 50.0, 60.0),
            span(3, Some(1), 12.0, 20.0),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&0], 70.0);
        assert_eq!(st[&1], 12.0);
        assert_eq!(st[&2], 10.0);
        assert_eq!(st[&3], 8.0);
    }

    #[test]
    fn overlapping_parallel_children_are_merged() {
        // Two workers under one parent: 10..60 and 40..90 cover 10..90.
        let spans = [
            span(0, None, 0.0, 100.0),
            span(1, Some(0), 10.0, 60.0),
            span(2, Some(0), 40.0, 90.0),
        ];
        assert_eq!(self_times(&spans)[&0], 20.0);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_enabled_nests() {
        let off = Tracer::new(false);
        assert_eq!(off.span("a", None, None, |id| id), None);
        assert!(off.spans().is_empty());

        let on = Tracer::new(true);
        on.span("outer", None, Some(7), |id| {
            on.span("inner", id, Some(7), |_| ());
        });
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert_eq!(spans[1].request, Some(7));
        let t = totals(&spans);
        assert_eq!(t["outer"].count, 1);
        assert!(t["outer"].self_us <= t["outer"].total_us);
    }
}
