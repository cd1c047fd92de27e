//! The cut kernels against their original implementations
//! (`tests/reference/`): every `CutReport`, partition included, and every
//! bisection value must match bit for bit on random topologies, at every
//! `(starts, seed)` the pipeline uses, and in `TopologyMetrics` for every
//! expert baseline.  The exhaustive bisection is also checked against a
//! brute force over all balanced cuts, which the reference only matches for
//! even router counts.

mod reference;

use netsmith_topo::bounds::occupancy_throughput_bound;
use netsmith_topo::cuts::{self, crossing_links, EXHAUSTIVE_LIMIT};
use netsmith_topo::linkclass::LinkSpan;
use netsmith_topo::metrics::{average_hops, diameter, TopologyMetrics};
use netsmith_topo::{expert, Layout, LinkClass, Topology};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A random directed topology on a `rows x cols` grid with expected
/// out-degree `degree`: each ordered pair is linked independently, so
/// one-way links and disconnected routers occur.
fn random_topology(rows: usize, cols: usize, degree: usize, seed: u64) -> Topology {
    let layout = Layout::interposer_grid(rows, cols, 8);
    let n = layout.num_routers();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut topo = Topology::empty("random", layout, LinkClass::Custom(LinkSpan::new(16, 16)));
    for i in 0..n {
        for j in 0..n {
            if i != j && rng.gen_range(0..n) < degree {
                topo.add_link(i, j);
            }
        }
    }
    topo
}

/// The minimum weaker-direction crossing over every bipartition whose
/// sides differ in size by at most one.
fn brute_force_bisection(topo: &Topology) -> f64 {
    let n = topo.num_routers();
    let mut best = f64::INFINITY;
    for set in 0u32..1 << n {
        let size = set.count_ones() as usize;
        if size != n / 2 && size != n - n / 2 {
            continue;
        }
        let in_u: Vec<bool> = (0..n).map(|r| set >> r & 1 == 1).collect();
        let (fwd, bwd) = crossing_links(topo, &in_u);
        best = best.min(fwd.min(bwd) as f64);
    }
    best
}

/// `TopologyMetrics` as the reference kernels compute it: the sparsest cut
/// feeds both its own column and the cut bound.
fn reference_metrics(topo: &Topology) -> TopologyMetrics {
    let n = topo.num_routers();
    let (sparsest, bisection) = if n <= EXHAUSTIVE_LIMIT {
        (
            reference::sparsest_cut_exhaustive(topo),
            reference::bisection_exhaustive(topo),
        )
    } else {
        (
            reference::sparsest_cut_heuristic(topo, 32, 0x5EEDCA7),
            reference::bisection_heuristic(topo, 64, 0xB15EC),
        )
    };
    TopologyMetrics {
        name: topo.name().to_string(),
        class: topo.class().name(),
        num_routers: n,
        num_links: topo.num_links(),
        diameter: diameter(topo),
        average_hops: average_hops(topo),
        bisection_bandwidth: bisection,
        sparsest_cut: sparsest.normalized_bandwidth,
        cut_bound: sparsest.normalized_bandwidth * (n - 1) as f64,
        occupancy_bound: occupancy_throughput_bound(topo),
    }
}

/// The exhaustive kernel against the reference and, for the bisection,
/// against brute force when `n` is small enough.
fn check_exhaustive(topo: &Topology) {
    let n = topo.num_routers();
    let expected = reference::sparsest_cut_exhaustive(topo);
    let summary = cuts::analyse(topo);
    assert_eq!(cuts::sparsest_cut_exhaustive(topo), expected);
    assert_eq!(summary.sparsest, expected);
    assert_eq!(summary.bisection, cuts::bisection_bandwidth(topo));
    if n.is_multiple_of(2) {
        assert_eq!(summary.bisection, reference::bisection_exhaustive(topo));
    }
    if n <= 12 {
        assert_eq!(summary.bisection, brute_force_bisection(topo));
    }
}

/// Both heuristics against the reference at every `(starts, seed)` the
/// pipeline uses: the metric defaults, the annealer's cut-pool seed and
/// its per-refresh drawn seed.
fn check_heuristics(topo: &Topology, drawn: u64) {
    for (starts, seed) in [(32, 0x5EEDCA7), (8, 0xC07), (4, drawn)] {
        assert_eq!(
            cuts::sparsest_cut_heuristic(topo, starts, seed),
            reference::sparsest_cut_heuristic(topo, starts, seed),
            "starts {starts}, seed {seed:#x}"
        );
    }
    assert_eq!(
        cuts::bisection_heuristic(topo, 64, 0xB15EC),
        reference::bisection_heuristic(topo, 64, 0xB15EC)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn exhaustive_kernels_match_the_reference_up_to_12_routers(
        rows in 2usize..=3,
        cols in 2usize..=4,
        degree in 1usize..=5,
        seed in any::<u64>(),
    ) {
        check_exhaustive(&random_topology(rows, cols, degree, seed));
    }

    #[test]
    fn heuristics_match_the_reference_up_to_16_routers(
        rows in 2usize..=4,
        cols in 2usize..=4,
        degree in 1usize..=5,
        seed in any::<u64>(),
        drawn in any::<u64>(),
    ) {
        check_heuristics(&random_topology(rows, cols, degree, seed), drawn);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "the reference scans take seconds per 20-router topology without optimizations"
    )]
    fn exhaustive_kernels_match_the_reference_up_to_20_routers(
        cols in 4usize..=5,
        degree in 1usize..=6,
        seed in any::<u64>(),
    ) {
        check_exhaustive(&random_topology(4, cols, degree, seed));
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "the reference local searches take seconds per 48-router topology without optimizations"
    )]
    fn heuristics_match_the_reference_on_25_to_48_routers(
        rows in 5usize..=8,
        cols in 5usize..=6,
        degree in 1usize..=6,
        seed in any::<u64>(),
        drawn in any::<u64>(),
    ) {
        let topo = random_topology(rows, cols, degree, seed);
        check_heuristics(&topo, drawn);
        let summary = cuts::analyse(&topo);
        assert_eq!(summary.sparsest, cuts::sparsest_cut(&topo));
        assert_eq!(summary.bisection, cuts::bisection_bandwidth(&topo));
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "the reference kernels take seconds per baseline without optimizations"
)]
fn every_4x5_and_8x6_expert_baseline_has_the_reference_metrics() {
    for layout in [Layout::noi_4x5(), Layout::noi_8x6()] {
        for topo in expert::all_baselines(&layout) {
            assert_eq!(
                TopologyMetrics::compute(&topo),
                reference_metrics(&topo),
                "{}",
                topo.name()
            );
        }
    }
}
