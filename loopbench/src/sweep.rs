//! `sweep-48`: load sweeps over `default_load_grid()` on two 48-router
//! fabrics prepared in set-up — the folded torus under NDBT and an
//! NS-SCOp candidate (the throughput-optimized design) under MCLB.  Each
//! fabric is swept under uniform and shuffle traffic through
//! `EvaluatedNetwork::sweep`, and by replaying an ON/OFF-hotspot trace
//! through `Sweep`.
//!
//! Which load points stall depends on the simulator's seed, and stalled
//! points cost more host time, so a run cycles through three traffic
//! draws (simulator seed and trace) from the workload seed.
//!
//! The traced iteration compiles each simulator and runs the load points
//! one after another, with a span around the compile and each run, and
//! the run checks that the curves equal the untraced sweep's.

use crate::fabrics::{set_up, Fabrics};
use crate::tracer::{Traced, Tracer};
use crate::{
    auto_parallel_engages, digest_network, mean, median, repeat_for, Digest, Options, Outcome,
    Report, Scale, Tally,
};
use netsmith::gen::Objective;
use netsmith::sim::sweep::default_load_grid;
use netsmith::sim::{splitmix64, LatencyCurve, SimConfig, Sweep, SweepPoint};
use netsmith::topo::traffic::TrafficPattern;
use netsmith::topo::Layout;
use netsmith::trace::{generate_named, Trace};
use std::sync::Arc;

/// Cycles of generated trace; the replay stretches it to each load.
const TRACE_HORIZON: u64 = 4_096;

struct Inputs {
    fabrics: Fabrics,
    draws: Vec<Draw>,
    loads: Vec<f64>,
}

/// One traffic draw: a simulator configuration per fabric, and a trace.
struct Draw {
    config: Vec<SimConfig>,
    trace: Arc<Trace>,
}

/// The traffic each fabric is swept under.
enum Source {
    Pattern(TrafficPattern),
    Trace,
}

fn sources() -> [Source; 3] {
    [
        Source::Pattern(TrafficPattern::UniformRandom),
        Source::Pattern(TrafficPattern::Shuffle),
        Source::Trace,
    ]
}

fn setup(options: &Options) -> Inputs {
    let (layout, evals, draws) = match options.scale {
        Scale::Full => (Layout::noi_8x6(), 6_000, 3),
        Scale::Tiny => (Layout::noi_4x5(), 200, 1),
    };
    let seed = options.seed;
    let fabrics = Fabrics::prepare(&layout, Objective::SCOp, evals, seed);
    let draws = (0..draws)
        .map(|k: u64| Draw {
            config: fabrics
                .networks
                .iter()
                .map(|f| {
                    let base = match options.scale {
                        Scale::Full => f.sim_config(),
                        Scale::Tiny => SimConfig {
                            clock_ghz: f.sim_config().clock_ghz,
                            ..SimConfig::quick()
                        },
                    };
                    SimConfig {
                        seed: splitmix64(seed ^ (0x5EE9_0048 + (k << 32))),
                        ..base
                    }
                })
                .collect(),
            trace: Arc::new(
                generate_named(
                    "onoff-hotspot",
                    layout.num_routers() as u32,
                    TRACE_HORIZON,
                    splitmix64(seed ^ (0x7ACE + (k << 32))),
                )
                .expect("onoff-hotspot is a registered trace model"),
            ),
        })
        .collect();
    let loads = match options.scale {
        Scale::Full => default_load_grid(),
        Scale::Tiny => vec![0.05, 0.3],
    };
    Inputs {
        fabrics,
        draws,
        loads,
    }
}

/// The untraced iteration on draw `k`: every sweep through the public
/// sweep API.
fn sweep_all(inputs: &Inputs, k: usize) -> Vec<LatencyCurve> {
    let draw = &inputs.draws[k];
    let mut curves = Vec::new();
    for (network, config) in inputs.fabrics.networks.iter().zip(&draw.config) {
        for source in sources() {
            curves.push(match source {
                Source::Pattern(pattern) => network.sweep(pattern, config, &inputs.loads),
                Source::Trace => Sweep::new(network.label()).run(
                    &network
                        .sim_builder()
                        .trace(Arc::clone(&draw.trace))
                        .config(config.clone())
                        .build(),
                    &inputs.loads,
                ),
            });
        }
    }
    curves
}

/// What the traced iteration measures beyond its curves.
#[derive(Default)]
struct SimTotals {
    runs: u64,
    link_flits: u64,
    delivered: Vec<f64>,
}

/// The traced iteration on draw `k`: compile, then each load point in
/// sequence.
fn sweep_traced(inputs: &Inputs, k: usize, tracer: &Tracer) -> (Vec<LatencyCurve>, SimTotals) {
    let draw = &inputs.draws[k];
    let mut curves = Vec::new();
    let mut totals = SimTotals::default();
    for (network, config) in inputs.fabrics.networks.iter().zip(&draw.config) {
        for source in sources() {
            let builder = network.sim_builder().config(config.clone());
            let builder = match source {
                Source::Pattern(pattern) => builder.pattern(pattern),
                Source::Trace => builder.trace(Arc::clone(&draw.trace)),
            };
            let sim = tracer.time("sim.compile", || builder.compile());
            let zero = sim.zero_load_latency_cycles();
            let mut points = Vec::new();
            for &load in &inputs.loads {
                let report = tracer.time("sim.run", || sim.run(load));
                totals.runs += 1;
                totals.link_flits += report.activity.total_link_flits();
                totals.delivered.push(report.delivered_fraction());
                points.push(SweepPoint {
                    offered: load,
                    accepted: report.accepted_flits_per_node_cycle,
                    accepted_packets_per_ns: config
                        .flit_rate_to_packets_per_ns(report.accepted_flits_per_node_cycle),
                    latency_cycles: report.avg_latency_cycles,
                    latency_ns: report.avg_latency_ns,
                    saturated: report.is_saturated(zero),
                });
            }
            curves.push(LatencyCurve {
                label: network.label(),
                points,
                zero_load_latency_cycles: zero,
            });
        }
    }
    (curves, totals)
}

fn digest(inputs: &Inputs, curves: &[LatencyCurve]) -> Digest {
    let mut digest = Digest::default();
    for network in &inputs.fabrics.networks {
        digest_network(&mut digest, network);
    }
    for curve in curves {
        digest.f64(curve.zero_load_latency_cycles);
        for p in &curve.points {
            for v in [p.offered, p.accepted, p.latency_cycles, p.latency_ns] {
                digest.f64(v);
            }
            digest.u64(u64::from(p.saturated));
        }
    }
    digest
}

/// A sweep point fails when the network stalled: no flit, or no packet
/// injected in the measurement window, reached its destination.
fn tally(curves: &[LatencyCurve]) -> Tally {
    let mut tally = Tally::default();
    for p in curves.iter().flat_map(|c| &c.points) {
        tally.attempt("sweep_point");
        let delivered = p.accepted > 0.0 && p.latency_cycles > 0.0;
        if !(delivered && p.accepted.is_finite() && p.latency_cycles.is_finite()) {
            tally.fail("sweep_point.stalled");
        }
    }
    tally
}

pub fn run(options: &Options) -> Outcome {
    let mut report = Report::new(options);
    let inputs = set_up(&mut report, options, || setup(options), |i| &i.fabrics);

    let phase = options.phase_seconds();
    let draws = inputs.draws.len();
    let (times, runs) = repeat_for(phase, draws, |k| sweep_all(&inputs, k));
    // The first pass: every draw once.
    let curves: Vec<LatencyCurve> = runs[..draws].concat();
    let digest = digest(&inputs, &curves);
    report.tally(&tally(&curves));
    for (i, run) in runs.iter().enumerate() {
        report.check(
            "every sweep of a draw computes identical curves",
            *run == runs[i % draws],
        );
    }
    let run_s = median(&times);
    report.run_times(&times);
    let saturation: Vec<f64> = curves
        .iter()
        .map(|c| c.saturation_flits_per_node_cycle())
        .collect();
    report.metric("sat_throughput", mean(&saturation));
    report.line(format!(
        "{} sweeps x {} loads on {}, over {draws} traffic draw(s); {} iteration(s) measured",
        runs[0].len(),
        inputs.loads.len(),
        inputs
            .fabrics
            .networks
            .iter()
            .map(|f| f.label())
            .collect::<Vec<_>>()
            .join(" and "),
        runs.len()
    ));
    let engaged = auto_parallel_engages(inputs.fabrics.networks[0].topology.num_routers());

    let mut layers = Vec::new();
    if options.trace {
        let traced = Traced::run(phase, draws, |k, tracer| sweep_traced(&inputs, k, tracer));
        for (i, (traced_curves, _)) in traced.outputs.iter().enumerate() {
            report.check(
                "the traced runs equal the untraced sweeps",
                *traced_curves == runs[i % draws],
            );
        }
        // Per iteration, like `run_s`: the first pass's mean.
        let first = &traced.outputs[..draws];
        let per_draw = |f: fn(&SimTotals) -> f64| {
            first.iter().map(|(_, sims)| f(sims)).sum::<f64>() / draws as f64
        };
        let mflits = per_draw(|s| s.link_flits as f64) / 1e6;
        let delivered: Vec<f64> = first
            .iter()
            .flat_map(|(_, sims)| sims.delivered.iter().copied())
            .collect();
        report.metric("sim.compile_s", traced.secs("sim.compile"));
        report.metric("sim.run_s", traced.secs("sim.run"));
        report.metric("sim.runs", per_draw(|s| s.runs as f64));
        report.metric("sim.mflits", mflits);
        report.metric("sim.delivered_frac", mean(&delivered));
        report.metric("sweep_mflits_per_s", mflits / run_s);
        layers = traced.finish(&mut report, &times);
    }
    report.finish(digest, engaged, &layers)
}
