//! `design-20` and `design-48`: one design session through the experiment
//! `Runner` with one shared `SuiteCache`.
//!
//! A session first discovers every NetSmith candidate of its link classes
//! through the runner, timing each discovery, then runs its specs; every
//! spec cell prepares one candidate (route, escape VCs, metrics).
//! design-20's second spec references the same candidates again, as
//! figures 6-10 do, so half of its prepares repeat one already made in
//! the session.  design-48 prepares each candidate once, and a run
//! alternates sessions on two seeds drawn from the workload seed: the
//! cost of a 48-router prepare has a heavy tail by seed, and one draw per
//! run would let a single unlucky seed swing the run.
//!
//! The traced session replays each prepare as the public calls
//! `EvaluatedNetwork::prepare` makes, in its order, with a span around
//! each, and the run checks that the replay equals what `prepare`
//! returned in the untraced session.

use crate::tracer::{span, Traced, Tracer};
use crate::{
    digest_network, digest_topology, error_kind, median, network_ok, repeat_for, repeat_setup,
    Digest, Options, Outcome, Quality, Report, Scale, Tally, Workload, DISCOVERY_WORKERS,
};
use netsmith::obs::{MemoryRecorder, Obs};
use netsmith::pipeline::{EvaluatedNetwork, RoutingScheme};
use netsmith::route::{all_shortest_paths, allocate_vcs, mclb_route, ndbt_route, MclbConfig};
use netsmith::sim::splitmix64;
use netsmith::topo::metrics::{unreachable_pairs, TopologyMetrics};
use netsmith::topo::{expert, Topology};
use netsmith_exp::prelude::*;
use netsmith_exp::ResolvedCandidate;
use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The inputs of a run's design sessions, one session per seed.
struct Design {
    layout: LayoutSpec,
    classes: Vec<LinkClass>,
    experts: Vec<CandidateSpec>,
    objectives: Vec<ObjectiveSpec>,
    specs: usize,
    evals: u64,
    seeds: Vec<u64>,
}

impl Design {
    fn new(options: &Options) -> Self {
        let (specs, seeds) = if options.workload == Workload::Design20 {
            (2, vec![options.seed])
        } else {
            (1, vec![options.seed, splitmix64(options.seed)])
        };
        match (options.workload, options.scale) {
            (_, Scale::Tiny) => Design {
                layout: LayoutSpec::Noi4x5,
                classes: vec![LinkClass::Medium],
                experts: vec![CandidateSpec::expert_in("folded-torus", LinkClass::Medium)],
                objectives: vec![ObjectiveSpec::LatOp, ObjectiveSpec::SCOp],
                specs,
                evals: 200,
                seeds,
            },
            (Workload::Design20, Scale::Full) => Design {
                layout: LayoutSpec::Noi4x5,
                classes: LinkClass::STANDARD.to_vec(),
                experts: vec![CandidateSpec::ExpertBaselines],
                objectives: vec![
                    ObjectiveSpec::LatOp,
                    ObjectiveSpec::SCOp,
                    ObjectiveSpec::EnergyOp { edp_weight: 25.0 },
                ],
                specs,
                evals: 24_000,
                seeds,
            },
            // Figure 11's medium and large expert designs.  Its small class
            // is left out: the mesh's NDBT allocation alone ranges over
            // 1.5-9.4 s between seeds, more than a run's bound allows.
            (_, Scale::Full) => Design {
                layout: LayoutSpec::Noi8x6,
                classes: vec![LinkClass::Medium, LinkClass::Large],
                experts: vec![
                    CandidateSpec::expert_in("folded-torus", LinkClass::Medium),
                    CandidateSpec::expert_in("kite-medium", LinkClass::Medium),
                    CandidateSpec::expert_in("butter-donut", LinkClass::Large),
                    CandidateSpec::expert_in("double-butterfly", LinkClass::Large),
                ],
                objectives: vec![ObjectiveSpec::LatOp, ObjectiveSpec::SCOp],
                specs,
                evals: 6_000,
                seeds,
            },
        }
    }

    fn spec(&self, index: usize) -> ExperimentSpec {
        let mut spec = ExperimentSpec::new(&format!("design-spec-{index}"));
        spec.layouts = vec![self.layout];
        spec.classes = self.classes.clone();
        spec.candidates = self.experts.clone();
        spec.candidates
            .extend(self.objectives.iter().cloned().map(CandidateSpec::synth));
        spec
    }

    /// Set-up: warm the worker pool and allocator with one prepare of the
    /// 4x5 folded torus, a fixed fabric outside the measured sessions.
    fn warm_up(&self) {
        let torus = expert::folded_torus(&LayoutSpec::Noi4x5.layout());
        let network =
            EvaluatedNetwork::prepare(&torus, RoutingScheme::Ndbt, VC_BUDGET, self.seeds[0]);
        std::hint::black_box(network.expect("the 4x5 folded torus prepares"));
    }

    /// The design session on seed `k`.  With a tracer, every prepare is
    /// replayed call by call inside spans.
    fn session(&self, k: usize, tracer: Option<&Arc<Tracer>>, obs: Obs) -> Session {
        let profile = RunProfile {
            evals: self.evals,
            workers: DISCOVERY_WORKERS,
            seed: self.seeds[k],
            quick: false,
        };
        let cache = SuiteCache::new().with_obs(obs.clone());
        let runner = Runner::new(profile, &cache).with_obs(obs);
        let mut discoveries = Vec::new();
        for &class in &self.classes {
            for objective in &self.objectives {
                let t0 = Instant::now();
                let candidate = span(tracer.map(|t| &**t), "gen.discover", || {
                    runner.resolve_synth(self.layout, class, objective, false)
                });
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                let found = candidate
                    .discovery
                    .expect("a synthesized candidate carries its discovery");
                discoveries.push(Discovered {
                    ms,
                    evaluations: found.evaluations,
                    score: found.objective.score,
                    topology: found.topology.clone(),
                });
            }
        }
        let prepared = Arc::new(Mutex::new(Vec::new()));
        for spec in 0..self.specs {
            let sink = Arc::clone(&prepared);
            let tracer = tracer.cloned();
            let figure = Figure::new(
                self.spec(spec),
                "topology,routing,prepared",
                move |cell: &Cell<'_>| {
                    let candidate = &cell.candidate;
                    let t0 = Instant::now();
                    let result = match &tracer {
                        None => candidate.try_network(),
                        Some(tracer) => tracer
                            .time("exp.prepare", || {
                                replay(candidate, cell.runner.profile.seed, tracer)
                            })
                            .map(Arc::new),
                    };
                    let ms = t0.elapsed().as_secs_f64() * 1e3;
                    let row = Row::new()
                        .str(candidate.topology.name())
                        .str(candidate.scheme.label())
                        .bool(result.is_ok());
                    sink.lock().expect("a cell panicked").push(Prepared {
                        spec,
                        index: cell.candidate_index,
                        class: candidate.class,
                        objective: candidate.objective.clone(),
                        topology: Arc::clone(&candidate.topology),
                        scheme: candidate.scheme,
                        ms,
                        result,
                    });
                    vec![row]
                },
            );
            runner
                .run(&figure)
                .expect("the design specs name only registered experts");
        }
        let mut prepared = std::mem::take(&mut *prepared.lock().expect("a cell panicked"));
        prepared.sort_by_key(|p| (p.spec, p.index));
        Session {
            discoveries,
            prepared,
            cache_hits: cache.references() - cache.discoveries(),
            cache_misses: cache.discoveries(),
        }
    }
}

/// The calls `EvaluatedNetwork::prepare` makes, in its order, each in a
/// span.  The runner prepares every candidate with its profile's seed.
fn replay(
    candidate: &ResolvedCandidate,
    seed: u64,
    tracer: &Tracer,
) -> Result<EvaluatedNetwork, PipelineError> {
    let topology: &Topology = &candidate.topology;
    let pairs = tracer.time("topo.reach", || unreachable_pairs(topology));
    if pairs > 0 {
        return Err(PipelineError::Disconnected { pairs });
    }
    let paths = tracer.time("route.paths", || all_shortest_paths(topology));
    let routing = match candidate.scheme {
        RoutingScheme::Mclb => tracer.time("route.mclb", || {
            mclb_route(
                &paths,
                &MclbConfig {
                    seed,
                    ..Default::default()
                },
            )
        }),
        RoutingScheme::Ndbt => tracer.time("route.ndbt", || {
            ndbt_route(topology.layout(), &paths, seed).0
        }),
    };
    routing.require_complete()?;
    let vcs = tracer.time("route.vcs", || allocate_vcs(&routing, VC_BUDGET, seed))?;
    let metrics = tracer.time("topo.metrics", || TopologyMetrics::compute(topology));
    Ok(EvaluatedNetwork {
        topology: topology.clone(),
        routing,
        vcs,
        metrics,
        scheme: candidate.scheme,
    })
}

struct Discovered {
    ms: f64,
    evaluations: u64,
    score: f64,
    topology: Topology,
}

struct Prepared {
    spec: usize,
    index: usize,
    class: LinkClass,
    objective: Option<ObjectiveSpec>,
    topology: Arc<Topology>,
    scheme: RoutingScheme,
    ms: f64,
    result: Result<Arc<EvaluatedNetwork>, PipelineError>,
}

struct Session {
    discoveries: Vec<Discovered>,
    prepared: Vec<Prepared>,
    cache_hits: usize,
    cache_misses: usize,
}

impl Session {
    /// Every output of the session, in a fixed order.
    fn digest(&self) -> Digest {
        let mut digest = Digest::default();
        for d in &self.discoveries {
            digest.f64(d.score);
            digest.u64(d.evaluations);
            digest_topology(&mut digest, &d.topology);
        }
        for p in &self.prepared {
            digest.u64(p.spec as u64);
            digest.u64(p.index as u64);
            match &p.result {
                Ok(network) => digest_network(&mut digest, network),
                Err(e) => digest.str(&e.to_string()),
            }
        }
        digest
    }

    /// Attempted and failed operations.  A discovery that ran fewer
    /// evaluations than its budget stopped on the wall-clock limit, which
    /// makes its result machine-dependent: it counts as failed.
    fn tally(&self, budget: u64) -> Tally {
        let mut tally = Tally::default();
        for d in &self.discoveries {
            tally.attempt("discover");
            if d.evaluations < budget {
                tally.fail("discover.time_budget");
            }
        }
        for p in &self.prepared {
            tally.attempt("prepare");
            if let Err(e) = &p.result {
                tally.fail(format!("prepare.{}", error_kind(e)));
            }
        }
        tally
    }

    /// Prepares that repeat a (topology, scheme) already prepared in the
    /// session: the work a prepared-network memo could skip.
    fn repeats(&self) -> usize {
        let mut seen = HashSet::new();
        self.prepared
            .iter()
            .filter(|p| {
                let mut key = Digest::default();
                digest_topology(&mut key, &p.topology);
                !seen.insert((key.value(), p.scheme.label()))
            })
            .count()
    }

    /// The design quality of the first spec's prepared candidates.
    fn quality(&self) -> Quality {
        let mut quality = Quality::default();
        for p in self.prepared.iter().filter(|p| p.spec == 0) {
            if let Ok(network) = &p.result {
                quality.add(p.class, p.objective.is_some(), &network.metrics);
            }
        }
        quality
    }
}

/// Whether two sessions prepared identical networks, candidate by
/// candidate (a traced replay against the untraced `prepare`).
fn same_networks(a: &Session, b: &Session) -> bool {
    a.prepared.len() == b.prepared.len()
        && a.prepared.iter().zip(&b.prepared).all(|(x, y)| {
            (x.spec, x.index) == (y.spec, y.index)
                && match (&x.result, &y.result) {
                    (Ok(x), Ok(y)) => {
                        x.routing == y.routing && x.vcs == y.vcs && x.metrics == y.metrics
                    }
                    (Err(x), Err(y)) => x == y,
                    _ => false,
                }
        })
}

pub fn run(options: &Options) -> Outcome {
    let design = Design::new(options);
    let budget = design.evals * DISCOVERY_WORKERS as u64;
    let mut report = Report::new(options);
    let (setup_times, ()) = repeat_setup(options.setups(), || design.warm_up());
    report.metric("setup_s", median(&setup_times));

    let phase = options.phase_seconds();
    let seeds = design.seeds.len();
    let (times, sessions) = repeat_for(phase, seeds, |k| design.session(k, None, Obs::noop()));
    // The first pass: one session per seed.
    let digests: Vec<Digest> = sessions[..seeds].iter().map(Session::digest).collect();
    let mut digest = Digest::default();
    for d in &digests {
        digest.u64(d.value());
    }
    // Operations are counted once per distinct unit, so the counts do
    // not depend on how many repetitions fitted in the run.
    for session in &sessions[..seeds] {
        report.tally(&session.tally(budget));
    }
    for (i, session) in sessions.iter().enumerate() {
        report.check(
            "every session on a seed computes identical outputs",
            session.digest() == digests[i % seeds],
        );
    }
    let failing = sessions[..seeds]
        .iter()
        .flat_map(|s| &s.prepared)
        .filter_map(|p| p.result.as_ref().ok())
        .filter(|n| !network_ok(n))
        .count();
    report.check(
        "every prepared network is complete and deadlock-free",
        failing == 0,
    );
    report.run_times(&times);
    let prepare_ms: Vec<f64> = sessions
        .iter()
        .flat_map(|s| s.prepared.iter().map(|p| p.ms))
        .collect();
    let discover_ms: Vec<f64> = sessions
        .iter()
        .flat_map(|s| s.discoveries.iter().map(|d| d.ms))
        .collect();
    report.metric("exp.prepare_ms_p50", median(&prepare_ms));
    report.metric("gen.discover_ms_p50", median(&discover_ms));
    // Design quality on the workload seed's own session.
    let first = &sessions[0];
    first.quality().report(&mut report);
    report.line(format!(
        "discoveries (ms): {}",
        first
            .discoveries
            .iter()
            .map(|d| format!("{} {:.1}", d.topology.name(), d.ms))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    report.line(format!(
        "session: {} discoveries, {} prepares over {} spec(s); {} session(s) on {seeds} seed(s) measured",
        first.discoveries.len(),
        first.prepared.len(),
        design.specs,
        sessions.len()
    ));

    let mut layers = Vec::new();
    if options.trace {
        let recorder = MemoryRecorder::new();
        let traced = Traced::run(phase, seeds, |k, tracer| {
            design.session(k, Some(tracer), Obs::to(recorder.clone()))
        });
        for (i, session) in traced.outputs.iter().enumerate() {
            report.check(
                "the traced replay equals what prepare returned",
                same_networks(session, &sessions[i % seeds])
                    && session.digest() == digests[i % seeds],
            );
        }
        let count = traced.outputs.len() as f64;
        let snapshot = recorder.snapshot();
        let accepted = snapshot.counter("anneal.moves.accepted") as f64;
        let rejected = snapshot.counter("anneal.moves.rejected") as f64;
        let discover_s = traced.secs("gen.discover");
        let prepares = first.prepared.len() as f64;
        report.metric("gen.discover_s", discover_s);
        report.metric("gen.discoveries", first.cache_misses as f64);
        report.metric(
            "gen.evals_per_s",
            snapshot.counter("anneal.evaluations") as f64 / count / discover_s,
        );
        report.metric("gen.accept_frac", accepted / (accepted + rejected));
        report.metric("exp.cache_hits", first.cache_hits as f64);
        report.metric("exp.cache_misses", first.cache_misses as f64);
        report.metric("exp.prepare_calls", prepares);
        report.metric("exp.prepare_repeat_frac", first.repeats() as f64 / prepares);
        report.metric("route.paths_s", traced.secs("route.paths"));
        report.metric("route.mclb_s", traced.secs("route.mclb"));
        report.metric("route.ndbt_s", traced.secs("route.ndbt"));
        report.metric("route.vcs_s", traced.secs("route.vcs"));
        report.metric("route.vcs_calls", traced.calls("route.vcs"));
        let layers_max = first
            .prepared
            .iter()
            .filter_map(|p| p.result.as_ref().ok())
            .map(|n| n.vcs.escape_layers)
            .max()
            .unwrap_or(0);
        report.metric("route.escape_layers_max", layers_max as f64);
        report.metric("topo.reach_s", traced.secs("topo.reach"));
        report.metric("topo.metrics_s", traced.secs("topo.metrics"));
        report.metric("topo.metrics_calls", traced.calls("topo.metrics"));
        layers = traced.finish(&mut report, &times);
    }
    report.finish(digest, false, &layers)
}
