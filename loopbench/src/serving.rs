//! `serve-20`: fig16-style serving lifetimes.  Two 4x5 fabrics prepared
//! in set-up — the folded torus under NDBT and an NS-LatOp candidate
//! under MCLB — each serve a 96-epoch diurnal lifetime under the
//! always-on, link-sleep and DVFS policies, all three on the lifetime's
//! one fault tape.  A run measures four lifetimes, each drawing its own
//! load process and tape from the workload seed, in turn: how much a
//! horizon gates and repairs depends on its draw, and the median over
//! several draws keeps one unlucky draw from swinging the run.
//!
//! `serve` is one opaque call, so the traced run times each horizon and
//! splits it from outside: it counts the gate, repair and epoch calls a
//! horizon made from the report's per-epoch records, and times one call
//! of each on the horizon's own fabric.

use crate::fabrics::{set_up, Fabrics};
use crate::tracer::{span, Traced, Tracer};
use crate::{
    digest_network, mean, median, repeat_for, Digest, Options, Outcome, Report, Scale, Tally,
};
use netsmith::energy::{EnergyContext, LinkSleep};
use netsmith::fault::{FaultScenario, RepairPolicy, RerouteRepair};
use netsmith::gen::Objective;
use netsmith::obs::Obs;
use netsmith::pipeline::EvaluatedNetwork;
use netsmith::serve::{
    serve, FaultTape, LoadSpec, PolicyKind, ServingConfig, ServingInputs, ServingReport, TapeSpec,
};
use netsmith::sim::{splitmix64, NetworkSim, SimConfig, SimReport};
use netsmith::topo::{Layout, LinkClass};
use std::time::Instant;

/// Link-sleep idle threshold and low-load boundary, as figure 16.
const IDLE_THRESHOLD: f64 = 0.12;

/// `serve`'s wake rule: link sleep skips gating after an epoch whose
/// links ran at least this busy or that delivered less than this share.
/// Mirrors the serving loop's private constants, to count gate calls.
const WAKE_UTILIZATION: f64 = 0.25;
const WAKE_DELIVERED_FLOOR: f64 = 0.985;

/// Standalone timings per call; each layer estimate uses their median.
const PROBE_REPEATS: usize = 3;

struct Inputs {
    fabrics: Fabrics,
    /// One configuration per lifetime; the policy is set per horizon.
    lifetimes: Vec<ServingConfig>,
}

fn setup(options: &Options) -> Inputs {
    let layout = Layout::noi_4x5();
    let (evals, epochs, lifetimes) = match options.scale {
        Scale::Full => (24_000, 96, 6),
        Scale::Tiny => (200, 8, 1),
    };
    let seed = options.seed;
    let fabrics = Fabrics::prepare(&layout, Objective::LatOp, evals, seed);
    let lifetimes = (0..lifetimes)
        .map(|k: u64| ServingConfig {
            epochs,
            load: LoadSpec {
                period_epochs: epochs,
                ..LoadSpec::default()
            },
            tape: TapeSpec {
                expected_faults: 2.0,
                seed: splitmix64(seed ^ (0x7A9E + (k << 32))),
            },
            sim: SimConfig {
                warmup_cycles: 100,
                measure_cycles: 400,
                drain_cycles: 200,
                ..SimConfig::for_class(LinkClass::Medium)
            },
            low_load_threshold: IDLE_THRESHOLD,
            seed: splitmix64(seed ^ (0x5E7E + (k << 32))),
            ..ServingConfig::default()
        })
        .collect();
    Inputs { fabrics, lifetimes }
}

fn span_name(policy: PolicyKind) -> &'static str {
    match policy {
        PolicyKind::AlwaysOn => "serve.always_on",
        PolicyKind::LinkSleep { .. } => "serve.link_sleep",
        PolicyKind::Dvfs => "serve.dvfs",
    }
}

/// One lifetime: a horizon per fabric and policy, fabric-major.
fn serve_lifetime(inputs: &Inputs, k: usize, tracer: Option<&Tracer>) -> Vec<ServingReport> {
    let mut reports = Vec::new();
    for network in &inputs.fabrics.networks {
        for policy in PolicyKind::standard(IDLE_THRESHOLD) {
            let config = ServingConfig {
                policy,
                ..inputs.lifetimes[k].clone()
            };
            reports.push(span(tracer, span_name(policy), || {
                serve(
                    &ServingInputs::new(&network.topology, &network.routing, &network.vcs),
                    &config,
                    &Obs::noop(),
                )
            }));
        }
    }
    reports
}

fn digest(inputs: &Inputs, reports: &[ServingReport]) -> Digest {
    let mut digest = Digest::default();
    for network in &inputs.fabrics.networks {
        digest_network(&mut digest, network);
    }
    for r in reports {
        digest.str(&r.policy);
        for v in [
            r.epochs,
            r.faults_injected,
            r.repairs_ok,
            r.downtime_epochs,
            r.delivered_flits,
            r.low_load_epochs,
            r.gated_pair_epochs,
        ] {
            digest.u64(v);
        }
        for v in [
            r.availability,
            r.energy_pj,
            r.energy_per_flit_pj,
            r.low_load_energy_per_flit_pj,
            r.p95_latency_cycles,
            r.p99_latency_cycles,
            r.mean_latency_cycles,
        ] {
            digest.f64(v);
        }
        for e in &r.records {
            for v in [
                e.offered,
                e.delivered_fraction,
                e.total_mw,
                e.energy_pj,
                e.avg_link_utilization,
                e.mean_latency_cycles,
                e.freq_scale,
            ] {
                digest.f64(v);
            }
            digest.u64(e.delivered_flits);
            digest.u64(u64::from(e.gated_pairs));
        }
    }
    digest
}

/// Served epochs succeed; downtime epochs (the fabric could not be
/// repaired) fail.
fn tally(reports: &[ServingReport]) -> Tally {
    let mut tally = Tally::default();
    for r in reports {
        for e in &r.records {
            tally.attempt("epoch");
            if !e.routable {
                tally.fail("epoch.downtime");
            }
        }
    }
    tally
}

/// The epochs at which `serve` called `LinkSleep::gate`: each re-decides
/// from the previous epoch's measurement of the same fabric (so never on
/// a fault's arrival), unless that epoch triggered the wake rule.
fn gate_calls(report: &ServingReport) -> u64 {
    report
        .records
        .windows(2)
        .filter(|w| {
            let (prev, cur) = (&w[0], &w[1]);
            cur.routable
                && !cur.fault_arrived
                && prev.routable
                && prev.avg_link_utilization < WAKE_UTILIZATION
                && prev.delivered_fraction >= WAKE_DELIVERED_FLOOR
        })
        .count() as u64
}

/// Median seconds per call of `f` over [`PROBE_REPEATS`] calls.
fn probe<T>(mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..PROBE_REPEATS)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// Standalone per-call costs on one fabric: one epoch's compile and run,
/// and one `LinkSleep::gate` on that epoch's measurement.
struct EpochCosts {
    compile: f64,
    run: f64,
    gate: f64,
}

fn epoch_costs(network: &EvaluatedNetwork, lifetime: &ServingConfig, offered: f64) -> EpochCosts {
    let config = SimConfig {
        epoch_cycles: lifetime.sim.measure_cycles,
        seed: splitmix64(lifetime.seed ^ 1),
        ..lifetime.sim.clone()
    };
    let builder = || {
        NetworkSim::builder(&network.topology, &network.routing)
            .vcs(&network.vcs)
            .pattern(lifetime.pattern.clone())
            .config(config.clone())
    };
    let compile = probe(|| builder().compile());
    let sim = builder().compile();
    let run = probe(|| sim.run(offered));
    let measured: SimReport = sim.run(offered);
    let sleep = LinkSleep {
        idle_threshold: IDLE_THRESHOLD,
        ..LinkSleep::default()
    };
    let context = EnergyContext {
        topology: &network.topology,
        routing: &network.routing,
        vcs: &network.vcs,
        sim: &config,
        report: &measured,
        config: &lifetime.energy,
    };
    let gate = probe(|| sleep.gate(&context));
    EpochCosts { compile, run, gate }
}

/// The time of the repairs a lifetime's fault tape makes `serve` run: one
/// per arrival epoch, on the healthy fabric degraded by every fault so far.
fn repair_cost(network: &EvaluatedNetwork, lifetime: &ServingConfig) -> f64 {
    let tape = FaultTape::sample(&network.topology, &lifetime.tape, lifetime.epochs);
    let mut faults = Vec::new();
    let mut secs = 0.0;
    for (i, event) in tape.events.iter().enumerate() {
        faults.push(event.fault);
        if tape
            .events
            .get(i + 1)
            .is_some_and(|next| next.epoch == event.epoch)
        {
            continue;
        }
        let degraded = FaultScenario::new(faults.clone()).apply(&network.topology);
        secs += probe(|| RerouteRepair.repair(&degraded, &lifetime.repair));
    }
    secs
}

pub fn run(options: &Options) -> Outcome {
    let mut report = Report::new(options);
    let inputs = set_up(&mut report, options, || setup(options), |i| &i.fabrics);

    let phase = options.phase_seconds();
    let lifetimes = inputs.lifetimes.len();
    let (times, runs) = repeat_for(phase, lifetimes, |k| serve_lifetime(&inputs, k, None));
    // The first pass: every lifetime once, lifetime-major.
    let reports: Vec<ServingReport> = runs[..lifetimes].concat();
    let digest = digest(&inputs, &reports);
    report.tally(&tally(&reports));
    for (i, run) in runs.iter().enumerate() {
        report.check(
            "every pass of a run serves identical horizons",
            *run == runs[i % lifetimes],
        );
    }
    let epochs_per_horizon = inputs.lifetimes[0].epochs;
    for r in &reports {
        report.check(
            "a serving report covers the configured epochs",
            r.epochs == epochs_per_horizon && r.records.len() as u64 == epochs_per_horizon,
        );
        report.check(
            "horizon availability lies in [0, 1]",
            (0.0..=1.0).contains(&r.availability),
        );
        report.check(
            "a horizon repairs no more faults than it injected",
            r.repairs_ok <= r.faults_injected,
        );
    }
    let run_s = median(&times);
    let epochs_per_lifetime: u64 = runs[0].iter().map(|r| r.epochs).sum();
    report.run_times(&times);
    report.metric("epochs_per_s", epochs_per_lifetime as f64 / run_s);
    let over = |f: fn(&ServingReport) -> f64, policy: Option<&str>| {
        mean(
            &reports
                .iter()
                .filter(|r| policy.is_none_or(|p| r.policy == p))
                .map(f)
                .collect::<Vec<_>>(),
        )
    };
    let sleep_label = PolicyKind::LinkSleep {
        idle_threshold: IDLE_THRESHOLD,
    }
    .label();
    report.metric("availability", over(|r| r.availability, None));
    report.metric(
        "low_load_pj_per_flit",
        over(|r| r.low_load_energy_per_flit_pj, Some(sleep_label)),
    );
    report.metric("p99_latency_cycles", over(|r| r.p99_latency_cycles, None));
    report.line(format!(
        "{lifetimes} lifetime(s) of {} horizons x {epochs_per_horizon} epochs; {} iteration(s) measured",
        runs[0].len(),
        runs.len()
    ));

    let mut layers = Vec::new();
    if options.trace {
        let traced = Traced::run(phase, lifetimes, |k, tracer| {
            serve_lifetime(&inputs, k, Some(tracer))
        });
        for (i, run) in traced.outputs.iter().enumerate() {
            report.check(
                "the traced horizons equal the untraced ones",
                *run == runs[i % lifetimes],
            );
        }
        // Per lifetime, like `run_s`.
        let horizons_s: f64 = ["serve.always_on", "serve.link_sleep", "serve.dvfs"]
            .iter()
            .map(|name| traced.secs(name))
            .sum();
        report.metric("serve.always_on_s", traced.secs("serve.always_on"));
        report.metric("serve.link_sleep_s", traced.secs("serve.link_sleep"));
        report.metric("serve.dvfs_s", traced.secs("serve.dvfs"));

        // Split the horizons by layer: calls counted from the first pass's
        // records, times from standalone calls on the same fabric.
        let policies = PolicyKind::standard(IDLE_THRESHOLD).len();
        let offered = mean(
            &reports
                .iter()
                .flat_map(|r| r.records.iter().map(|e| e.offered))
                .collect::<Vec<_>>(),
        );
        let costs: Vec<EpochCosts> = inputs
            .fabrics
            .networks
            .iter()
            .map(|network| epoch_costs(network, &inputs.lifetimes[0], offered))
            .collect();
        let (mut gate_s, mut repair_s, mut compile_s, mut run_sim_s) = (0.0, 0.0, 0.0, 0.0);
        let (mut gate_n, mut repair_n, mut infeasible, mut epochs_run) = (0, 0, 0, 0);
        let mut delivered = Vec::new();
        for (lifetime, run) in inputs.lifetimes.iter().zip(&runs) {
            for ((network, costs), horizons) in inputs
                .fabrics
                .networks
                .iter()
                .zip(&costs)
                .zip(run.chunks(policies))
            {
                let repairs_s = repair_cost(network, lifetime);
                for r in horizons {
                    let served: Vec<_> = r.records.iter().filter(|e| e.routable).collect();
                    let gates = if r.policy == sleep_label {
                        gate_calls(r)
                    } else {
                        0
                    };
                    gate_n += gates;
                    gate_s += gates as f64 * costs.gate;
                    let repairs = r.records.iter().filter(|e| e.fault_arrived).count() as u64;
                    repair_n += repairs;
                    infeasible += repairs.saturating_sub(r.repairs_ok);
                    repair_s += repairs_s;
                    epochs_run += served.len() as u64;
                    compile_s += served.len() as f64 * costs.compile;
                    run_sim_s += served.len() as f64 * costs.run;
                    delivered.extend(served.iter().map(|e| e.delivered_fraction));
                }
            }
        }
        let n = lifetimes as f64;
        let (gate_s, repair_s, compile_s, run_sim_s) =
            (gate_s / n, repair_s / n, compile_s / n, run_sim_s / n);
        let gated: u64 = reports.iter().map(|r| r.gated_pair_epochs).sum();
        let downtime: u64 = reports.iter().map(|r| r.downtime_epochs).sum();
        report.metric("energy.gate_s", gate_s);
        report.metric("energy.gate_calls", gate_n as f64 / n);
        report.metric("energy.gated_pairs", gated as f64 / n);
        report.metric("fault.repair_s", repair_s);
        report.metric("fault.repair_calls", repair_n as f64 / n);
        report.metric("fault.repair_infeasible", infeasible as f64 / n);
        report.metric("serve.downtime_epochs", downtime as f64 / n);
        report.metric("sim.compile_s", compile_s);
        report.metric("sim.run_s", run_sim_s);
        report.metric("sim.runs", epochs_run as f64 / n);
        report.metric("sim.delivered_frac", mean(&delivered));
        traced.finish(&mut report, &times);
        let derived = gate_s + repair_s + compile_s + run_sim_s;
        report.line(format!(
            "derived split: gate, repair and epoch calls account for {:.1}% of the horizons' {:.3}s",
            100.0 * derived / horizons_s,
            horizons_s
        ));
        layers = vec![
            ("energy.gate", gate_s),
            ("fault.repair", repair_s),
            ("sim.compile", compile_s),
            ("sim.run", run_sim_s),
            ("serve.other", (horizons_s - derived).max(0.0)),
        ];
    }
    report.finish(digest, false, &layers)
}
