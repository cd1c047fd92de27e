//! The set-up shared by `sweep-48` and `serve-20`: two fabrics prepared
//! before measuring — the folded torus under NDBT, and a NetSmith
//! candidate discovered in the medium link class, under MCLB.

use crate::{median, network_ok, repeat_setup, Options, Quality, Report, Tally, DISCOVERY_WORKERS};
use netsmith::gen::{NetSmith, Objective};
use netsmith::pipeline::{EvaluatedNetwork, RoutingScheme};
use netsmith::topo::{expert, Layout, LinkClass};
use netsmith_exp::VC_BUDGET;
use std::time::Instant;

pub struct Fabrics {
    /// The folded torus, then the NetSmith candidate.
    pub networks: Vec<EvaluatedNetwork>,
    prepare_ms: Vec<f64>,
    discover_ms: f64,
    /// Whether the discovery ran its whole evaluation budget.
    discover_on_budget: bool,
}

impl Fabrics {
    pub fn prepare(layout: &Layout, objective: Objective, evals: u64, seed: u64) -> Fabrics {
        let timed = |f: &dyn Fn() -> EvaluatedNetwork| {
            let t0 = Instant::now();
            let network = f();
            (network, t0.elapsed().as_secs_f64() * 1e3)
        };
        let (torus, torus_ms) = timed(&|| {
            let torus = expert::folded_torus(layout);
            EvaluatedNetwork::prepare(&torus, RoutingScheme::Ndbt, VC_BUDGET, seed)
                .expect("the folded torus prepares")
        });
        let t0 = Instant::now();
        let found = NetSmith::new(layout.clone(), LinkClass::Medium)
            .objective(objective)
            .evaluations(evals)
            .workers(DISCOVERY_WORKERS)
            .seed(seed)
            .try_discover()
            .expect("discovery finds a connected topology");
        let discover_ms = t0.elapsed().as_secs_f64() * 1e3;
        let (candidate, candidate_ms) = timed(&|| {
            EvaluatedNetwork::prepare(&found.topology, RoutingScheme::Mclb, VC_BUDGET, seed)
                .expect("the discovered topology prepares")
        });
        Fabrics {
            networks: vec![torus, candidate],
            prepare_ms: vec![torus_ms, candidate_ms],
            discover_ms,
            discover_on_budget: found.evaluations >= evals * DISCOVERY_WORKERS as u64,
        }
    }
}

/// Set up [`Options::setups`] times and report the
/// set-up: its time, its discovery and prepares (operations, checks and
/// per-call times), and the design quality of its fabrics.  Returns the
/// last set-up's inputs.
pub fn set_up<T>(
    report: &mut Report,
    options: &Options,
    mut setup: impl FnMut() -> T,
    fabrics: impl Fn(&T) -> &Fabrics,
) -> T {
    let mut prepare_ms = Vec::new();
    let mut discover_ms = Vec::new();
    let (times, inputs) = repeat_setup(options.setups(), || {
        let inputs = setup();
        prepare_ms.extend(&fabrics(&inputs).prepare_ms);
        discover_ms.push(fabrics(&inputs).discover_ms);
        inputs
    });
    report.metric("setup_s", median(&times));
    report.metric("exp.prepare_ms_p50", median(&prepare_ms));
    report.metric("gen.discover_ms_p50", median(&discover_ms));
    let set = fabrics(&inputs);
    let mut tally = Tally::default();
    tally.attempt("discover");
    if !set.discover_on_budget {
        tally.fail("discover.time_budget");
    }
    let mut quality = Quality::default();
    for (network, synthesized) in set.networks.iter().zip([false, true]) {
        tally.attempt("prepare");
        report.check(
            "every prepared network is complete and deadlock-free",
            network_ok(network),
        );
        quality.add(network.topology.class(), synthesized, &network.metrics);
    }
    report.tally(&tally);
    quality.report(report);
    inputs
}
