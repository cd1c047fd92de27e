//! The suite-wide candidate discovery cache.
//!
//! Discovery is the expensive step of every figure (~10⁵ annealer
//! evaluations per candidate at full budget), and most figures ask for the
//! same handful of candidates (`NS-LatOp-medium`, `NS-SCOp-large`, …).  The
//! cache keys a discovery by everything that determines its outcome — the
//! *resolved objective decomposition* (so a pure-corner composite and the
//! axis objective it equals share one entry), the layout, link class,
//! symmetric-links flag, seed and search budget — and runs it at most once
//! per suite, handing every later reference the same `Arc`'d result
//! bit-for-bit.
//!
//! Preparation (routing, escape-VC allocation, metrics) is memoized the
//! same way: [`SuiteCache::prepared_slot`] hands every candidate with the
//! same topology, routing scheme and seed one shared slot, so a network
//! referenced by several figures is prepared once per suite.

use crate::runner::VC_BUDGET;
use netsmith::gen::{DiscoveryResult, NetSmith, Term, WeightedTerm};
use netsmith::pipeline::{EvaluatedNetwork, RoutingScheme};
use netsmith_obs::Obs;
use netsmith_topo::traffic::DemandMatrix;
use netsmith_topo::{Layout, LinkClass, PipelineError, Topology};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Everything that determines a discovery's outcome.
#[derive(Debug, Clone)]
pub struct DiscoveryRequest {
    pub layout: Layout,
    pub layout_label: String,
    pub class: LinkClass,
    pub objective: netsmith::gen::Objective,
    pub symmetric: bool,
    pub seed: u64,
    pub evaluations: u64,
    pub workers: usize,
}

impl DiscoveryRequest {
    /// The canonical cache key.  Weights and floating-point parameters are
    /// keyed by their bit patterns, so two requests collide exactly when
    /// their searches would be identical.
    pub fn key(&self) -> String {
        let mut key = format!(
            "{}|{}|sym={}|seed={}|evals={}|workers={}|",
            self.layout_label,
            self.class.name(),
            self.symmetric,
            self.seed,
            self.evaluations,
            self.workers
        );
        for WeightedTerm { weight, term } in self.objective.decomposition() {
            let _ = write!(key, "{:016x}x", weight.to_bits());
            match term {
                Term::Hops => key.push_str("hops"),
                Term::SparsestCut => key.push_str("cut"),
                Term::CriticalLinks => key.push_str("crit"),
                Term::SpareCapacity => key.push_str("spare"),
                Term::EnergyProxy { edp_weight } => {
                    let _ = write!(key, "energy[{:016x}]", edp_weight.to_bits());
                }
                Term::PatternHops(demand) => {
                    let _ = write!(key, "pattern[{:016x}]", demand_fingerprint(&demand));
                }
            }
            key.push('+');
        }
        key
    }
}

/// FNV-1a over the demand matrix's bit patterns: distinct demand matrices
/// must key distinct discoveries.
fn demand_fingerprint(demand: &DemandMatrix) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let n = demand.num_nodes();
    for s in 0..n {
        for d in 0..n {
            for byte in demand.demand(s, d).to_bits().to_le_bytes() {
                hash ^= byte as u64;
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
    hash
}

/// A prepared network, computed on first use and shared by every
/// candidate holding the slot.  The typed error names why preparation
/// failed.
pub type PreparedSlot = Arc<OnceLock<Result<Arc<EvaluatedNetwork>, PipelineError>>>;

/// Everything that determines a prepared network.
#[derive(PartialEq, Eq, Hash)]
struct PrepareKey {
    name: String,
    class: LinkClass,
    grid: (usize, usize),
    adjacency: Vec<bool>,
    scheme: RoutingScheme,
    vc_budget: usize,
    seed: u64,
}

/// Shared discovery cache with invocation accounting.  Every lookup is
/// counted on the attached [`Obs`] handle as `cache.hits` / `cache.misses`
/// (hits + misses = references, misses = discoveries), and discoveries run
/// with the same handle so annealer spans and move counters land on the
/// suite's recorder.  Prepared-network slots are counted the same way, as
/// `cache.prepare_hits` / `cache.prepare_misses`.
#[derive(Default)]
pub struct SuiteCache {
    entries: Mutex<HashMap<String, Arc<DiscoveryResult>>>,
    discoveries: AtomicUsize,
    references: AtomicUsize,
    prepared: Mutex<HashMap<PrepareKey, PreparedSlot>>,
    obs: Obs,
}

impl SuiteCache {
    pub fn new() -> Self {
        SuiteCache::default()
    }

    /// Attach an instrumentation handle; defaults to the no-op handle.
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Discoveries actually run (cache misses).
    pub fn discoveries(&self) -> usize {
        self.discoveries.load(Ordering::SeqCst)
    }

    /// Candidate references served (hits + misses).
    pub fn references(&self) -> usize {
        self.references.load(Ordering::SeqCst)
    }

    /// Distinct preparations handed out (prepared-slot misses).  Each
    /// slot prepares its network at most once, on first use.
    pub fn prepares(&self) -> usize {
        self.prepared.lock().unwrap().len()
    }

    /// The shared slot preparing `topology` under `scheme` with `seed` and
    /// the suite's [`VC_BUDGET`]: every request naming the same topology
    /// (name, class, grid and links), scheme and seed gets the same slot.
    pub fn prepared_slot(
        &self,
        topology: &Topology,
        scheme: RoutingScheme,
        seed: u64,
    ) -> PreparedSlot {
        let key = PrepareKey {
            name: topology.name().to_string(),
            class: topology.class(),
            grid: (topology.layout().rows(), topology.layout().cols()),
            adjacency: topology.adjacency().to_vec(),
            scheme,
            vc_budget: VC_BUDGET,
            seed,
        };
        match self.prepared.lock().unwrap().entry(key) {
            Entry::Occupied(slot) => {
                self.obs.add("cache.prepare_hits", 1);
                Arc::clone(slot.get())
            }
            Entry::Vacant(slot) => {
                self.obs.add("cache.prepare_misses", 1);
                Arc::clone(slot.insert(PreparedSlot::default()))
            }
        }
    }

    /// Resolve a discovery request through the cache.  The lock is held
    /// across the search itself so concurrent requests for the same key
    /// never duplicate work (the annealer parallelizes internally).
    pub fn discover(&self, request: &DiscoveryRequest) -> Arc<DiscoveryResult> {
        self.references.fetch_add(1, Ordering::SeqCst);
        let key = request.key();
        let mut entries = self.entries.lock().unwrap();
        if let Some(result) = entries.get(&key) {
            self.obs.add("cache.hits", 1);
            return Arc::clone(result);
        }
        self.discoveries.fetch_add(1, Ordering::SeqCst);
        self.obs.add("cache.misses", 1);
        let mut span = self.obs.span("cache.discover");
        span.attr("key", key.as_str());
        let result = Arc::new(
            NetSmith::new(request.layout.clone(), request.class)
                .objective(request.objective.clone())
                .symmetric_links(request.symmetric)
                .evaluations(request.evaluations)
                .workers(request.workers)
                .seed(request.seed)
                .obs(self.obs.clone())
                .discover(),
        );
        span.close();
        entries.insert(key, Arc::clone(&result));
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use netsmith::gen::Objective;
    use netsmith_topo::expert;

    fn request(objective: Objective) -> DiscoveryRequest {
        DiscoveryRequest {
            layout: Layout::noi_4x5(),
            layout_label: "4x5".into(),
            class: LinkClass::Medium,
            objective,
            symmetric: false,
            seed: 7,
            evaluations: 400,
            workers: 1,
        }
    }

    #[test]
    fn corner_composites_key_like_their_axis_objective() {
        let axis = request(Objective::fault_op_default());
        let corner = request(Objective::Composite(
            Objective::fault_op_default().decomposition(),
        ));
        assert_eq!(axis.key(), corner.key());
        // But a different weighting keys differently.
        let other = request(Objective::FaultOp {
            articulation_penalty: 2.0e5,
            spare_capacity_weight: 40.0,
        });
        assert_ne!(axis.key(), other.key());
    }

    #[test]
    fn budget_and_symmetry_key_separately() {
        let base = request(Objective::LatOp);
        let mut budget = request(Objective::LatOp);
        budget.evaluations = 800;
        let mut symmetric = request(Objective::LatOp);
        symmetric.symmetric = true;
        assert_ne!(base.key(), budget.key());
        assert_ne!(base.key(), symmetric.key());
    }

    #[test]
    fn cache_runs_each_key_once_and_shares_the_result() {
        let recorder = netsmith_obs::MemoryRecorder::new();
        let cache = SuiteCache::new().with_obs(Obs::to(recorder.clone()));
        let a = cache.discover(&request(Objective::LatOp));
        let b = cache.discover(&request(Objective::LatOp));
        assert_eq!(cache.discoveries(), 1);
        assert_eq!(cache.references(), 2);
        let snapshot = recorder.snapshot();
        assert_eq!(snapshot.counter("cache.misses"), 1);
        assert_eq!(snapshot.counter("cache.hits"), 1);
        assert_eq!(snapshot.span_count("cache.discover"), 1);
        // The discovery ran under the cache's obs handle, so the annealer's
        // counters surface on the same recorder.
        assert!(snapshot.counter("anneal.evaluations") >= 400);
        assert!(Arc::ptr_eq(&a, &b));
        let c = cache.discover(&request(Objective::SCOp));
        assert_eq!(cache.discoveries(), 2);
        assert_eq!(recorder.snapshot().counter("cache.misses"), 2);
        assert_eq!(c.topology.name(), "NS-SCOp-medium");
    }

    #[test]
    fn prepared_slots_are_shared_per_topology_scheme_and_seed() {
        let recorder = netsmith_obs::MemoryRecorder::new();
        let cache = SuiteCache::new().with_obs(Obs::to(recorder.clone()));
        let torus = expert::folded_torus(&Layout::noi_4x5());
        let slot = cache.prepared_slot(&torus, RoutingScheme::Ndbt, 1);
        let again = cache.prepared_slot(&torus.clone(), RoutingScheme::Ndbt, 1);
        assert!(Arc::ptr_eq(&slot, &again));
        let mut relinked = torus.clone();
        relinked.remove_link(0, 1);
        for other in [
            cache.prepared_slot(&torus.clone().with_name("renamed"), RoutingScheme::Ndbt, 1),
            cache.prepared_slot(&relinked, RoutingScheme::Ndbt, 1),
            cache.prepared_slot(&torus, RoutingScheme::Mclb, 1),
            cache.prepared_slot(&torus, RoutingScheme::Ndbt, 2),
        ] {
            assert!(!Arc::ptr_eq(&slot, &other));
        }
        assert_eq!(cache.prepares(), 5);
        let snapshot = recorder.snapshot();
        assert_eq!(snapshot.counter("cache.prepare_misses"), 5);
        assert_eq!(snapshot.counter("cache.prepare_hits"), 1);
    }

    /// A spec naming the 4x5 folded torus twice, rerouted under both
    /// schemes: four cells over two distinct preparations.
    fn repeated_torus_figure() -> Figure {
        let mut spec = ExperimentSpec::new("repeated-torus");
        spec.classes = vec![LinkClass::Medium];
        let torus = CandidateSpec::expert_in("folded-torus", LinkClass::Medium);
        spec.candidates = vec![torus.clone(), torus];
        spec.scheme_override = Some(vec![RoutingScheme::Mclb, RoutingScheme::Ndbt]);
        Figure::new(spec, "scheme,metrics,escape_layers", |cell: &Cell<'_>| {
            let network = cell.candidate.network();
            vec![Row::new()
                .str(network.scheme.label())
                .str(network.metrics.csv_row())
                .int(network.vcs.escape_layers as i64)]
        })
    }

    #[test]
    fn memoized_networks_match_fresh_preparations_at_any_worker_count() {
        let figure = repeated_torus_figure();
        let mut outputs = Vec::new();
        for parallelism in [1, 2] {
            let cache = SuiteCache::new();
            let mut runner = Runner::new(RunProfile::default(), &cache);
            runner.parallelism = parallelism;
            let output = runner.run(&figure).unwrap();
            assert_eq!(cache.prepares(), 2, "parallelism {parallelism}");
            let networks: Vec<_> = output.candidates.iter().map(|c| c.network()).collect();
            assert!(Arc::ptr_eq(&networks[0], &networks[2]));
            assert!(Arc::ptr_eq(&networks[1], &networks[3]));
            for (candidate, network) in output.candidates.iter().zip(&networks) {
                let fresh = EvaluatedNetwork::prepare(
                    &candidate.topology,
                    candidate.scheme,
                    VC_BUDGET,
                    RunProfile::default().seed,
                )
                .unwrap();
                assert_eq!(network.routing, fresh.routing);
                assert_eq!(network.vcs, fresh.vcs);
                assert_eq!(network.metrics, fresh.metrics);
            }
            // A second figure over the same candidates prepares nothing new.
            let rerun = runner.run(&figure).unwrap();
            assert_eq!(cache.prepares(), 2);
            assert!(Arc::ptr_eq(&rerun.candidates[0].network(), &networks[0]));
            outputs.push(output.rows);
        }
        assert_eq!(outputs[0], outputs[1]);
    }
}
