//! Property tests for the resilience subsystem: repair always yields a
//! deadlock-free routing of exactly the surviving pairs, and routability
//! coverage can only drop as more faults are injected.

use netsmith_fault::{
    assess_resilience, FaultModel, RepairConfig, RepairPolicy, RerouteRepair, ResilienceConfig,
};
use netsmith_route::paths::all_shortest_paths;
use netsmith_route::vc::verify_deadlock_free;
use netsmith_route::{allocate_vcs, mclb_route, MclbConfig, RoutingTable, VcAllocation};
use netsmith_topo::{expert, Layout, Topology};
use proptest::prelude::*;

fn prepared(topo: &Topology) -> (RoutingTable, VcAllocation) {
    let paths = all_shortest_paths(topo);
    let table = mclb_route(&paths, &MclbConfig::default());
    let vcs = allocate_vcs(&table, 6, 7).expect("fits in 6 VCs");
    (table, vcs)
}

fn baselines() -> Vec<Topology> {
    let layout = Layout::noi_4x5();
    vec![
        expert::mesh(&layout),
        expert::folded_torus(&layout),
        expert::kite_medium(&layout),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Whenever a repair succeeds, it is a *verified* repair: the new
    /// routing covers every surviving ordered pair and its escape-VC
    /// partition keeps every virtual channel's dependency graph acyclic —
    /// faults never smuggle a deadlock into the fabric.
    #[test]
    fn repair_preserves_deadlock_freedom(
        seed in 0u64..10_000,
        topo_idx in 0usize..3,
        link_faults in 1usize..3,
        router_faults in 0usize..2,
    ) {
        let topo = &baselines()[topo_idx];
        let model = FaultModel { link_faults, router_faults, seed };
        let config = RepairConfig::default();
        for scenario in model.sample_scenarios(topo, 4) {
            let degraded = scenario.apply(topo);
            if let Ok(repaired) = RerouteRepair.repair(&degraded, &config) {
                prop_assert!(
                    repaired.routes_all_surviving_pairs(),
                    "{}: incomplete repair", scenario.label()
                );
                prop_assert!(
                    verify_deadlock_free(&repaired.routing, &repaired.vcs),
                    "{}: repair broke deadlock freedom", scenario.label()
                );
                prop_assert!(repaired.vcs.num_vcs <= config.vc_budget);
                // Routes never touch a failed router.
                for dead in repaired.failed_routers() {
                    for (flow, path) in repaired.routing.flows() {
                        prop_assert!(flow.src != dead && flow.dst != dead);
                        prop_assert!(!path.iter().any(|&r| usize::from(r) == dead));
                    }
                }
            } else {
                // Refusal must be justified: the surviving fabric really
                // is partitioned (RerouteRepair only gives up on
                // disconnection for these small instances, where the
                // escape layering always fits 6 VCs).
                prop_assert!(!degraded.is_connected(), "{}: spurious refusal", scenario.label());
            }
        }
    }

    /// Adding faults can only hurt: with a nested fault model (the k-fault
    /// scenarios extend the (k-1)-fault ones), routability coverage over
    /// the scenario set is monotone non-increasing in the fault count.
    #[test]
    fn coverage_is_monotone_non_increasing_in_fault_count(
        seed in 0u64..10_000,
        topo_idx in 0usize..3,
    ) {
        let topo = &baselines()[topo_idx];
        let (table, vcs) = prepared(topo);
        let config = ResilienceConfig { simulate: false, ..Default::default() };
        let mut scenarios = FaultModel { link_faults: 1, router_faults: 0, seed }
            .sample_scenarios(topo, 6);
        let mut previous = f64::INFINITY;
        for extra in 0..3 {
            let report = assess_resilience(
                topo.name(),
                topo,
                &table,
                &vcs,
                &scenarios,
                &RerouteRepair,
                &config,
            );
            let coverage = report.coverage();
            prop_assert!(
                coverage <= previous + 1e-12,
                "coverage rose from {previous} to {coverage} at {extra} extra faults"
            );
            previous = coverage;
            // Extend every scenario by one more sampled link fault: the
            // (k+1)-fault set dominates the k-fault set, so a scenario
            // that was unrepairable stays unrepairable.
            let extensions = FaultModel { link_faults: 1, router_faults: 0, seed: seed ^ (extra + 1) }
                .sample_scenarios(topo, scenarios.len());
            scenarios = scenarios
                .into_iter()
                .zip(extensions.into_iter().cycle())
                .map(|(s, e)| {
                    let mut faults = s.faults;
                    faults.extend(e.faults);
                    netsmith_fault::FaultScenario::new(faults)
                })
                .collect();
        }
    }
}
