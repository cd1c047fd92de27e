//! The NetSmith design-loop benchmark.
//!
//! Four workloads drive the public API a NetSmith user calls — the
//! experiment `Runner` with a `SuiteCache`, `EvaluatedNetwork`,
//! `NetSmith::try_discover` and `serve` — and each stresses a different
//! layer of the loop (see `BENCHMARK.json` for why each was chosen):
//!
//! | workload | measured unit | layer it stresses |
//! |----------|---------------|-------------------|
//! | `design-20` | one 4x5 design session, two specs over the same candidates | `topo.metrics` |
//! | `design-48` | one 8x6 design session, each candidate prepared once; runs alternate two seeds | `route.vcs` |
//! | `sweep-48` | six load sweeps on two prepared 8x6 fabrics | `sim.run` |
//! | `serve-20` | one lifetime: six 96-epoch horizons on two prepared 4x5 fabrics; runs cycle six lifetimes | `energy.gate` |
//!
//! An untraced run (`--trace 0`) reports the end-to-end metrics.  A traced
//! run (`--trace 1`) measures the same unit untraced, then again with a
//! span around every call the benchmark makes into a layer, and reports
//! the per-layer metrics; spans are kept in memory and written to
//! `.loopbench-out/` when the run ends.

mod design;
mod fabrics;
mod serving;
mod sweep;
mod tracer;

use netsmith::pipeline::EvaluatedNetwork;
use netsmith::route::vc::verify_deadlock_free;
use netsmith::topo::json::Json;
use netsmith::topo::metrics::TopologyMetrics;
use netsmith::topo::{LinkClass, PipelineError, Topology};
use netsmith_pool::WorkerPool;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Every end-to-end metric as `(name, unit)`: an untraced run of any
/// workload prints exactly these.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "frac"),
    ("ns_hops_ratio", "ratio"),
    ("ns_bound_ratio", "ratio"),
];

/// Every per-layer metric as `(name, unit)`: a traced run of any workload
/// prints exactly these, with zero for a layer the workload never calls.
/// The last six are workload-specific outcomes (the simulator's and the
/// serving loop's), reported here because they exist on one workload only.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("gen.discover_s", "s"),
    ("gen.discover_ms_p50", "ms"),
    ("gen.discoveries", "count"),
    ("gen.evals_per_s", "1/s"),
    ("gen.accept_frac", "frac"),
    ("exp.cache_hits", "count"),
    ("exp.cache_misses", "count"),
    ("exp.prepare_calls", "count"),
    ("exp.prepare_ms_p50", "ms"),
    ("exp.prepare_repeat_frac", "frac"),
    ("route.paths_s", "s"),
    ("route.mclb_s", "s"),
    ("route.ndbt_s", "s"),
    ("route.vcs_s", "s"),
    ("route.vcs_calls", "count"),
    ("route.escape_layers_max", "count"),
    ("topo.reach_s", "s"),
    ("topo.metrics_s", "s"),
    ("topo.metrics_calls", "count"),
    ("sim.compile_s", "s"),
    ("sim.run_s", "s"),
    ("sim.runs", "count"),
    ("sim.mflits", "Mflit"),
    ("sim.delivered_frac", "frac"),
    ("sim.parallel_engaged", "bool"),
    ("pool.workers", "count"),
    ("pool.queue_wait_ms", "ms"),
    ("energy.gate_s", "s"),
    ("energy.gate_calls", "count"),
    ("energy.gated_pairs", "count"),
    ("fault.repair_s", "s"),
    ("fault.repair_calls", "count"),
    ("fault.repair_infeasible", "count"),
    ("serve.always_on_s", "s"),
    ("serve.link_sleep_s", "s"),
    ("serve.dvfs_s", "s"),
    ("serve.downtime_epochs", "count"),
    ("bench.trace_overhead_frac", "frac"),
    ("bench.span_coverage", "frac"),
    ("sweep_mflits_per_s", "Mflit/s"),
    ("sat_throughput", "flit/node/cycle"),
    ("epochs_per_s", "1/s"),
    ("availability", "frac"),
    ("low_load_pj_per_flit", "pJ/flit"),
    ("p99_latency_cycles", "cycles"),
];

/// Annealing workers per discovery.  Fixed rather than taken from the
/// machine, because the worker count seeds the search and so decides the
/// discovered topology.
pub(crate) const DISCOVERY_WORKERS: usize = 2;

/// Independent set-ups per untraced run; `setup_s` is their median.
pub(crate) const SETUP_REPEATS: usize = 3;

/// The paper's reference ranges for the design-quality ratios.
pub(crate) const PAPER_HOPS_RATIO: (f64, f64) = (0.865, 0.92);
pub(crate) const PAPER_THROUGHPUT_RATIO: (f64, f64) = (1.50, 1.75);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Design20,
    Design48,
    Sweep48,
    Serve20,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Design20,
        Workload::Design48,
        Workload::Sweep48,
        Workload::Serve20,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Design20 => "design-20",
            Workload::Design48 => "design-48",
            Workload::Sweep48 => "sweep-48",
            Workload::Serve20 => "serve-20",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The layer the benchmark's design predicts to take the most time.
    pub fn predicted_top_layer(self) -> &'static str {
        match self {
            Workload::Design20 => "topo.metrics",
            Workload::Design48 => "route.vcs",
            Workload::Sweep48 => "sim.run",
            Workload::Serve20 => "energy.gate",
        }
    }
}

/// Full-size workloads, or tiny ones for the smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

impl Options {
    /// Seconds each phase measures: all of `seconds` when untraced; half
    /// for the untraced and half for the traced phase of a traced run.
    pub fn phase_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }

    /// Set-ups per run: [`SETUP_REPEATS`], or one when traced (a traced
    /// run does not report `setup_s`).
    pub fn setups(&self) -> usize {
        if self.trace {
            1
        } else {
            SETUP_REPEATS
        }
    }
}

/// Attempted and failed operations, with failures counted by kind.
#[derive(Debug, Default, Clone)]
pub(crate) struct Tally {
    attempted: BTreeMap<&'static str, u64>,
    failed: BTreeMap<String, u64>,
}

impl Tally {
    pub fn attempt(&mut self, op: &'static str) {
        *self.attempted.entry(op).or_default() += 1;
    }

    pub fn fail(&mut self, kind: impl Into<String>) {
        *self.failed.entry(kind.into()).or_default() += 1;
    }

    pub fn merge(&mut self, other: &Tally) {
        for (op, n) in &other.attempted {
            *self.attempted.entry(op).or_default() += n;
        }
        for (kind, n) in &other.failed {
            *self.failed.entry(kind.clone()).or_default() += n;
        }
    }

    pub fn total_attempted(&self) -> u64 {
        self.attempted.values().sum()
    }

    pub fn total_failed(&self) -> u64 {
        self.failed.values().sum()
    }
}

/// FNV-1a over the bit patterns of every simulated and analytic output,
/// so two runs can show they computed identical results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// A string, length-prefixed so adjacent strings cannot run together.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// What one run reports.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Metric name → value; units come from [`END_TO_END`] / [`PER_LAYER`].
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable report lines, printed before the result.
    pub lines: Vec<String>,
    pub digest: u64,
    pub context: Json,
    /// The traced run's spans, for the run's output file.
    pub spans: Option<Json>,
}

/// Collects a run's metrics, checks and report lines.
pub(crate) struct Report {
    workload: Workload,
    trace: bool,
    metrics: BTreeMap<&'static str, f64>,
    /// Metrics of the other mode's table, shown only as report lines.
    others: BTreeMap<&'static str, f64>,
    lines: Vec<String>,
    failed_checks: Vec<String>,
    tally: Tally,
    spans: Option<Json>,
}

impl Report {
    pub fn new(options: &Options) -> Self {
        Report {
            workload: options.workload,
            trace: options.trace,
            metrics: BTreeMap::new(),
            others: BTreeMap::new(),
            lines: Vec::new(),
            failed_checks: Vec::new(),
            tally: Tally::default(),
            spans: None,
        }
    }

    /// Record a metric.  The result carries the metrics of the run's
    /// mode (end-to-end when untraced, per-layer when traced); the other
    /// mode's are printed as report lines only.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        let (table, other) = if self.trace {
            (PER_LAYER, END_TO_END)
        } else {
            (END_TO_END, PER_LAYER)
        };
        if table.iter().any(|(n, _)| *n == name) {
            self.metrics.insert(name, value);
        } else {
            assert!(
                other.iter().any(|(n, _)| *n == name),
                "unknown metric {name}"
            );
            self.others.insert(name, value);
        }
    }

    /// An output check; a failed one makes the run incorrect.
    pub fn check(&mut self, what: &str, ok: bool) {
        if !ok {
            self.failed_checks.push(what.to_string());
        }
    }

    pub fn line(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// Record the measured iterations' wall times as `run_s` (their
    /// median), and list them.
    pub fn run_times(&mut self, times: &[f64]) {
        self.metric("run_s", median(times));
        let listed: Vec<String> = times.iter().map(|t| format!("{t:.3}")).collect();
        self.line(format!("iterations (s): {}", listed.join(", ")));
    }

    pub fn tally(&mut self, tally: &Tally) {
        self.tally.merge(tally);
    }

    pub fn spans(&mut self, spans: Json) {
        self.spans = Some(spans);
    }

    /// Close the report: fill the shared metrics, zero the layers the
    /// workload never called, and print which layer took the most time.
    pub fn finish(
        mut self,
        digest: Digest,
        parallel_engaged: bool,
        layers: &[(&str, f64)],
    ) -> Outcome {
        let attempted = self.tally.total_attempted();
        let failed = self.tally.total_failed();
        self.metric("ok_frac", 1.0 - failed as f64 / attempted.max(1) as f64);
        self.metric("peak_rss_mb", peak_rss_mb());
        self.metric("pool.workers", WorkerPool::global().threads() as f64);
        self.metric(
            "sim.parallel_engaged",
            f64::from(u8::from(parallel_engaged)),
        );
        if self.trace {
            for (name, _) in PER_LAYER {
                self.metrics.entry(name).or_insert(0.0);
            }
            let mut ranked: Vec<(&str, f64)> = layers.to_vec();
            ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
            let total: f64 = ranked.iter().map(|l| l.1).sum();
            let predicted = self.workload.predicted_top_layer();
            if let Some((top, secs)) = ranked.first() {
                self.lines.push(format!(
                    "ranking: largest layer {top} ({:.1}% of layer time), predicted {predicted}: {}",
                    100.0 * secs / total.max(f64::MIN_POSITIVE),
                    if *top == predicted { "holds" } else { "does not hold" }
                ));
            }
            let split = ranked
                .iter()
                .map(|(name, secs)| format!("{name} {secs:.3}s"))
                .collect::<Vec<_>>()
                .join(", ");
            self.lines.push(format!("layer split: {split}"));
        }
        for (name, value) in &self.others {
            self.lines.push(format!("{name} {value} {}", unit(name)));
        }
        for (op, n) in &self.tally.attempted {
            self.lines.push(format!("attempted {op}: {n}"));
        }
        for (kind, n) in &self.tally.failed {
            self.lines.push(format!("failed {kind}: {n}"));
        }
        for what in &self.failed_checks {
            self.lines.push(format!("CHECK FAILED: {what}"));
        }
        let non_finite: Vec<&str> = self
            .metrics
            .iter()
            .filter(|(_, v)| !v.is_finite())
            .map(|(n, _)| *n)
            .collect();
        for name in &non_finite {
            self.lines
                .push(format!("CHECK FAILED: {name} is not finite"));
        }
        Outcome {
            correct: self.failed_checks.is_empty() && non_finite.is_empty(),
            attempted,
            failed,
            metrics: self.metrics,
            lines: self.lines,
            digest: digest.value(),
            context: context(parallel_engaged),
            spans: self.spans,
        }
    }
}

/// The unit of a metric in [`END_TO_END`] or [`PER_LAYER`].
pub(crate) fn unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
        .expect("a metric from the tables")
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`,
/// each metric as `{"value", "unit"}`.
pub fn result_json(outcome: &Outcome) -> Json {
    let metrics = outcome
        .metrics
        .iter()
        .map(|(name, value)| {
            (
                name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(*value)),
                    ("unit".into(), Json::Str(unit(name).into())),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(outcome.correct)),
        ("attempted".into(), Json::Num(outcome.attempted as f64)),
        ("failed".into(), Json::Num(outcome.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
}

/// Run one workload.
pub fn run(options: &Options) -> Outcome {
    match options.workload {
        Workload::Design20 | Workload::Design48 => design::run(options),
        Workload::Sweep48 => sweep::run(options),
        Workload::Serve20 => serving::run(options),
    }
}

/// Measure `items` units of work, `iteration(0)` … `iteration(items - 1)`
/// and round again, for about `seconds`: at least one full pass, then
/// further iterations only while another is expected to end in time.
/// Returns each iteration's wall time and output, in call order (call `i`
/// ran item `i % items`).
pub(crate) fn repeat_for<T>(
    seconds: f64,
    items: usize,
    mut iteration: impl FnMut(usize) -> T,
) -> (Vec<f64>, Vec<T>) {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut outputs = Vec::new();
    loop {
        let t0 = Instant::now();
        outputs.push(iteration(outputs.len() % items));
        times.push(t0.elapsed().as_secs_f64());
        if outputs.len() >= items && start.elapsed().as_secs_f64() + median(&times) > seconds {
            return (times, outputs);
        }
    }
}

/// Set up `times` times; returns each set-up's wall time and the last
/// set-up's inputs.
pub(crate) fn repeat_setup<T>(times: usize, mut setup: impl FnMut() -> T) -> (Vec<f64>, T) {
    let mut walls = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        let t0 = Instant::now();
        last = Some(setup());
        walls.push(t0.elapsed().as_secs_f64());
    }
    (walls, last.expect("at least one set-up"))
}

/// The median (mean of the middle two for an even count); NaN when empty.
pub(crate) fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

pub(crate) fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Fold a topology's links into `digest`.
pub(crate) fn digest_topology(digest: &mut Digest, topology: &Topology) {
    digest.str(topology.name());
    for (a, b) in topology.links() {
        digest.u64(a as u64);
        digest.u64(b as u64);
    }
}

/// Fold a prepared network — every route with its VC, the escape-layer
/// count and the analytic metrics — into `digest`.
pub(crate) fn digest_network(digest: &mut Digest, network: &EvaluatedNetwork) {
    digest_topology(digest, &network.topology);
    digest.str(network.scheme.label());
    for (flow, path) in network.routing.flows() {
        for &router in path {
            digest.u64(router as u64);
        }
        digest.u64(network.vcs.vc(flow) as u64);
    }
    digest.u64(network.vcs.escape_layers as u64);
    digest.u64(network.vcs.num_vcs as u64);
    let m = &network.metrics;
    for v in [
        m.average_hops,
        m.bisection_bandwidth,
        m.sparsest_cut,
        m.cut_bound,
        m.occupancy_bound,
    ] {
        digest.f64(v);
    }
    digest.u64(m.diameter.map_or(u64::MAX, u64::from));
}

/// The check every prepared network must pass: a route for every pair,
/// and an escape-VC assignment whose dependency graphs are acyclic.
pub(crate) fn network_ok(network: &EvaluatedNetwork) -> bool {
    network.routing.is_complete() && verify_deadlock_free(&network.routing, &network.vcs)
}

/// The failure-accounting name of a pipeline error.
pub(crate) fn error_kind(error: &PipelineError) -> &'static str {
    match error {
        PipelineError::Disconnected { .. } => "disconnected",
        PipelineError::IncompleteRouting { .. } => "incomplete_routing",
        PipelineError::VcBudgetExceeded { .. } => "vc_budget_exceeded",
        PipelineError::RepairInfeasible { .. } => "repair_infeasible",
        PipelineError::DiscoveryFailed { .. } => "discovery_failed",
    }
}

/// Design quality of a workload's candidates: per link class, the best
/// NetSmith candidate against the best expert design, on average hops
/// (lower is better) and on the limiting throughput bound — the lower of
/// the sparsest-cut and link-occupancy saturation bounds (higher is
/// better) — each ratio averaged over the classes that have both.
#[derive(Default)]
pub(crate) struct Quality {
    /// Class name → (expert hops, expert bound, NS hops, NS bound).
    classes: BTreeMap<String, [f64; 4]>,
}

impl Quality {
    pub fn add(&mut self, class: LinkClass, synthesized: bool, metrics: &TopologyMetrics) {
        let best =
            self.classes
                .entry(class.name())
                .or_insert([f64::INFINITY, 0.0, f64::INFINITY, 0.0]);
        let at = if synthesized { 2 } else { 0 };
        best[at] = best[at].min(metrics.average_hops);
        best[at + 1] = best[at + 1].max(metrics.cut_bound.min(metrics.occupancy_bound));
    }

    /// Record `ns_hops_ratio` and `ns_bound_ratio`, with the paper's
    /// reference ranges beside them.
    pub fn report(&self, report: &mut Report) {
        let both = || {
            self.classes
                .values()
                .filter(|b| b[0].is_finite() && b[2].is_finite())
        };
        let hops = mean(&both().map(|b| b[2] / b[0]).collect::<Vec<_>>());
        let bound = mean(&both().map(|b| b[3] / b[1]).collect::<Vec<_>>());
        report.metric("ns_hops_ratio", hops);
        report.metric("ns_bound_ratio", bound);
        report.line(format!(
            "ns_hops_ratio {hops:.4} (paper: {:.3}-{:.3}, i.e. 8-13.5% fewer hops than the best expert)",
            PAPER_HOPS_RATIO.0, PAPER_HOPS_RATIO.1
        ));
        report.line(format!(
            "ns_bound_ratio {bound:.4} (an analytic throughput bound, not a simulated \
             throughput: unvalidated against the paper's {:.2}-{:.2}, i.e. 50-75% more simulated throughput)",
            PAPER_THROUGHPUT_RATIO.0, PAPER_THROUGHPUT_RATIO.1
        ));
    }
}

/// Whether `ParallelMode::Auto` shards arbitration for a network of `n`
/// routers: by its documented rule, for 48 routers and more when the pool
/// has at least two workers.
pub(crate) fn auto_parallel_engages(n: usize) -> bool {
    n >= 48 && WorkerPool::global().threads() >= 2
}

/// The process's peak resident set, MiB (`VmHWM`); NaN where unavailable.
pub(crate) fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// The machine and build a result was measured on.
pub(crate) fn context(parallel_engaged: bool) -> Json {
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    Json::Obj(vec![
        (
            "available_parallelism".into(),
            Json::Num(parallelism as f64),
        ),
        (
            "pool_workers".into(),
            Json::Num(WorkerPool::global().threads() as f64),
        ),
        ("parallel_auto_engaged".into(), Json::Bool(parallel_engaged)),
        (
            "build_profile".into(),
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
        ("commit".into(), Json::Str(commit())),
        (
            "source_digest".into(),
            Json::Str(format!("{:016x}", source_digest())),
        ),
    ])
}

/// The checked-out commit, read from `.git` without running git.
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "none (not a git checkout)".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| format!("unresolved {reference}"))
}

/// FNV-1a over the program's sources (paths and contents), so a result
/// names the code it measured even outside a git checkout.
fn source_digest() -> u64 {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(&path, files);
                }
            } else {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for root in ["crates", "vendor", "loopbench/src"] {
        walk(Path::new(root), &mut files);
    }
    files.extend(["Cargo.toml", "Cargo.lock", "loopbench/Cargo.toml"].map(Into::into));
    files.sort();
    let mut digest = Digest::default();
    for file in files {
        if let Ok(bytes) = std::fs::read(&file) {
            digest.str(&file.to_string_lossy());
            digest.bytes(&bytes);
        }
    }
    digest.value()
}
