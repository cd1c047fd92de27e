//! Pinned comparisons of `allocate_vcs` against the reference allocator on
//! the expert baselines, under both MCLB and NDBT routing.

mod reference;

use netsmith_route::paths::all_shortest_paths;
use netsmith_route::{allocate_vcs, mclb_route, ndbt_route, Flow, MclbConfig, RoutingTable};
use netsmith_topo::{expert, Layout};
use reference::{reference_allocate_vcs, Decisions};

/// The routing tables of every expert baseline of `layout` under MCLB and
/// NDBT with `seed`, labelled for failure messages.
fn baseline_tables(layout: &Layout, seed: u64) -> Vec<(String, RoutingTable)> {
    let mut tables = Vec::new();
    for topo in expert::all_baselines(layout) {
        let paths = all_shortest_paths(&topo);
        let mclb = mclb_route(
            &paths,
            &MclbConfig {
                seed,
                ..Default::default()
            },
        );
        let (ndbt, _) = ndbt_route(layout, &paths, seed);
        tables.push((format!("{} / MCLB", topo.name()), mclb));
        tables.push((format!("{} / NDBT", topo.name()), ndbt));
    }
    tables
}

/// Compare both allocators on every table at the production budget of six
/// VCs and at a budget of one, which most baselines exceed.
fn assert_matches_reference(layout: &Layout, seed: u64) {
    for (label, table) in baseline_tables(layout, seed) {
        for budget in [6, 1] {
            assert_eq!(
                Decisions::of(allocate_vcs(&table, budget, seed)),
                reference_allocate_vcs(&table, budget, seed),
                "{label}, budget {budget}, seed {seed}"
            );
        }
    }
}

#[test]
fn every_4x5_expert_baseline_matches_the_reference() {
    assert_matches_reference(&Layout::noi_4x5(), 1);
}

#[test]
fn a_path_repeating_a_channel_gets_a_layer_of_its_own_as_in_the_reference() {
    // Flow 0 -> 2 loops over channel (0, 1) twice, so its own dependencies
    // form a cycle: it fits no layer, and the layer it opens takes no other
    // flow, even when that layer is the least occupied VC.  The other flows
    // run forward along the line 0-1-2-3-4 and share one acyclic layer.
    let mut table = RoutingTable::new(5, "hand-built");
    for path in [
        vec![0, 1, 0, 1, 2],
        vec![0, 1, 2, 3, 4],
        vec![1, 2, 3, 4],
        vec![0, 1],
        vec![2, 3, 4],
        vec![3, 4],
    ] {
        let flow = Flow::new(path[0], *path.last().unwrap());
        table.set_path(flow, path);
    }
    for budget in 1..=4 {
        for seed in 0..4 {
            let alloc = Decisions::of(allocate_vcs(&table, budget, seed));
            assert_eq!(
                alloc,
                reference_allocate_vcs(&table, budget, seed),
                "budget {budget}, seed {seed}"
            );
            if let Ok(alloc) = alloc {
                assert_eq!(alloc.escape_layers, 2);
                let looping = alloc.assignment[&Flow::new(0, 2)];
                let shared = alloc.assignment.values().filter(|&&vc| vc == looping);
                assert_eq!(shared.count(), 1, "budget {budget}, seed {seed}");
            }
        }
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "the reference allocator takes seconds per 48-router table without optimizations"
)]
fn every_8x6_expert_baseline_matches_the_reference() {
    assert_matches_reference(&Layout::noi_8x6(), 1);
}
