//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, start, end, thread and the span that caused
//! it (the innermost open span on the same thread).  Nothing is written
//! while the run measures; [`Tracer::to_json`] renders the spans when the
//! run ends.

use crate::{median, repeat_for, Report};
use netsmith::topo::json::Json;
use netsmith_pool::WorkerPool;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub thread: usize,
    /// Seconds since the tracer was created.
    pub start: f64,
    pub end: f64,
}

/// Per-name totals: how many spans, their summed duration, and their
/// self time (duration minus the part their child spans cover).
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotal {
    pub count: u64,
    pub secs: f64,
    pub self_secs: f64,
}

pub struct Tracer {
    epoch: Instant,
    next_id: AtomicUsize,
    spans: Mutex<Vec<SpanRecord>>,
}

static NEXT_THREAD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static THREAD: usize = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Seconds since the tracer was created.
    pub fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied();
            open.push(id);
            parent
        });
        let start = self.now();
        let out = f();
        let end = self.now();
        OPEN.with(|open| open.borrow_mut().pop());
        self.spans
            .lock()
            .expect("a span was recorded by a thread that panicked")
            .push(SpanRecord {
                id,
                parent,
                name,
                thread: THREAD.with(|t| *t),
                start,
                end,
            });
        out
    }

    pub fn spans(&self) -> Vec<SpanRecord> {
        let mut spans = self
            .spans
            .lock()
            .expect("a span was recorded by a thread that panicked")
            .clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// Totals per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotal> {
        let spans = self.spans();
        let mut child_secs: BTreeMap<usize, f64> = BTreeMap::new();
        for s in &spans {
            if let Some(parent) = s.parent {
                *child_secs.entry(parent).or_default() += s.end - s.start;
            }
        }
        let mut totals: BTreeMap<&'static str, SpanTotal> = BTreeMap::new();
        for s in &spans {
            let total = totals.entry(s.name).or_default();
            total.count += 1;
            total.secs += s.end - s.start;
            total.self_secs += s.end - s.start - child_secs.get(&s.id).copied().unwrap_or(0.0);
        }
        totals
    }

    /// The share of the window `[from, to]` during which at least one
    /// span was open on any thread.
    pub fn coverage(&self, from: f64, to: f64) -> f64 {
        let mut intervals: Vec<(f64, f64)> = self
            .spans()
            .iter()
            .map(|s| (s.start.max(from), s.end.min(to)))
            .filter(|(a, b)| b > a)
            .collect();
        intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut reach = from;
        for (a, b) in intervals {
            if b > reach {
                covered += b - a.max(reach);
                reach = b;
            }
        }
        covered / (to - from)
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans()
                .into_iter()
                .map(|s| {
                    Json::Obj(vec![
                        ("id".into(), Json::Num(s.id as f64)),
                        (
                            "parent".into(),
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("name".into(), Json::Str(s.name.into())),
                        ("thread".into(), Json::Num(s.thread as f64)),
                        ("start_us".into(), Json::Num((s.start * 1e6).round())),
                        ("end_us".into(), Json::Num((s.end * 1e6).round())),
                    ])
                })
                .collect(),
        )
    }
}

/// Run `f` inside a span when tracing, or just run it.
pub fn span<T>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(tracer) => tracer.time(name, f),
        None => f(),
    }
}

/// A traced phase: the measured unit repeated as in the untraced phase,
/// with a tracer handed to every iteration.
pub struct Traced<T> {
    pub tracer: Arc<Tracer>,
    pub times: Vec<f64>,
    pub outputs: Vec<T>,
    window: (f64, f64),
    totals: BTreeMap<&'static str, SpanTotal>,
    pool_wait_us: u64,
}

impl<T> Traced<T> {
    /// [`repeat_for`] with a fresh tracer.
    pub fn run(
        seconds: f64,
        items: usize,
        mut iteration: impl FnMut(usize, &Arc<Tracer>) -> T,
    ) -> Self {
        let tracer = Arc::new(Tracer::default());
        let pool_before = WorkerPool::global().stats().queue_wait_us;
        let from = tracer.now();
        let (times, outputs) = repeat_for(seconds, items, |k| iteration(k, &tracer));
        let to = tracer.now();
        let totals = tracer.totals();
        Traced {
            pool_wait_us: WorkerPool::global().stats().queue_wait_us - pool_before,
            tracer,
            times,
            outputs,
            window: (from, to),
            totals,
        }
    }

    fn units(&self) -> f64 {
        self.outputs.len() as f64
    }

    /// Seconds in spans named `name`, per measured unit.
    pub fn secs(&self, name: &str) -> f64 {
        self.totals.get(name).map_or(0.0, |t| t.secs / self.units())
    }

    /// Spans named `name`, per measured unit.
    pub fn calls(&self, name: &str) -> f64 {
        self.totals
            .get(name)
            .map_or(0.0, |t| t.count as f64 / self.units())
    }

    /// Record the tracing overhead against the untraced unit times, the
    /// pool's queue wait, the spans' coverage of the phase (checked: at
    /// least 0.9) and the spans themselves.  Returns each span name's self
    /// time per unit.
    pub fn finish(&self, report: &mut Report, untraced: &[f64]) -> Vec<(&'static str, f64)> {
        report.metric(
            "bench.trace_overhead_frac",
            median(&self.times) / median(untraced) - 1.0,
        );
        report.metric(
            "pool.queue_wait_ms",
            self.pool_wait_us as f64 / 1e3 / self.units(),
        );
        let coverage = self.tracer.coverage(self.window.0, self.window.1);
        report.metric("bench.span_coverage", coverage);
        report.check(
            "layer spans cover at least 90% of the traced run",
            coverage >= 0.9,
        );
        report.spans(self.tracer.to_json());
        self.totals
            .iter()
            .map(|(name, t)| (*name, t.self_secs / self.units()))
            .collect()
    }
}
