//! The cut kernels' original implementations, kept as the test oracle that
//! `netsmith_topo::cuts` must match: the per-mask scans and the
//! report-per-move local searches, copied unchanged apart from visibility.

#![allow(dead_code)]

use netsmith_topo::cuts::{crossing_links, CutReport, EXHAUSTIVE_LIMIT};
use netsmith_topo::Topology;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn report_for(topo: &Topology, in_u: &[bool], exact: bool) -> CutReport {
    let n = topo.num_routers();
    let (fwd, bwd) = crossing_links(topo, in_u);
    let size_u = in_u.iter().filter(|&&b| b).count();
    let size_v = n - size_u;
    let norm = if size_u == 0 || size_v == 0 {
        f64::INFINITY
    } else {
        fwd.min(bwd) as f64 / (size_u * size_v) as f64
    };
    CutReport {
        partition: (0..n).filter(|&i| in_u[i]).collect(),
        crossing_forward: fwd,
        crossing_backward: bwd,
        normalized_bandwidth: norm,
        is_bisection: size_u == size_v || size_u.abs_diff(size_v) == 1,
        exact,
    }
}

/// Exhaustive sparsest cut over all bipartitions (requires `n <=
/// EXHAUSTIVE_LIMIT`).  The partition containing router 0 is fixed to `U`
/// to avoid enumerating mirror-image cuts twice.
pub fn sparsest_cut_exhaustive(topo: &Topology) -> CutReport {
    let n = topo.num_routers();
    assert!(
        n <= EXHAUSTIVE_LIMIT,
        "exhaustive sparsest cut limited to {EXHAUSTIVE_LIMIT} routers"
    );
    assert!(n >= 2);
    // Collect links once for the inner loop.
    let links: Vec<(usize, usize)> = topo.links().collect();
    let mut best: Option<(f64, Vec<bool>)> = None;
    // Router 0 always in U; enumerate membership of routers 1..n.
    let combos: u64 = 1u64 << (n - 1);
    for mask in 0..combos {
        let mut in_u = vec![false; n];
        in_u[0] = true;
        let mut size_u = 1usize;
        for b in 0..(n - 1) {
            if (mask >> b) & 1 == 1 {
                in_u[b + 1] = true;
                size_u += 1;
            }
        }
        if size_u == n {
            continue; // V must be non-empty
        }
        let size_v = n - size_u;
        let mut fwd = 0usize;
        let mut bwd = 0usize;
        for &(i, j) in &links {
            match (in_u[i], in_u[j]) {
                (true, false) => fwd += 1,
                (false, true) => bwd += 1,
                _ => {}
            }
        }
        let norm = fwd.min(bwd) as f64 / (size_u * size_v) as f64;
        if best.as_ref().is_none_or(|(b, _)| norm < *b) {
            best = Some((norm, in_u));
        }
    }
    let (_, in_u) = best.expect("at least one cut exists");
    report_for(topo, &in_u, true)
}

/// Heuristic sparsest cut: multi-start single-node-move local search.
pub fn sparsest_cut_heuristic(topo: &Topology, starts: usize, seed: u64) -> CutReport {
    let n = topo.num_routers();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut best: Option<CutReport> = None;
    for _ in 0..starts.max(1) {
        let mut in_u = vec![false; n];
        // Random initial partition, non-trivial.
        loop {
            let mut size_u = 0;
            for flag in in_u.iter_mut() {
                *flag = rng.gen_bool(0.5);
                size_u += *flag as usize;
            }
            if size_u > 0 && size_u < n {
                break;
            }
        }
        // Greedy single-node moves until no improvement.
        let mut current = report_for(topo, &in_u, false);
        loop {
            let mut improved = false;
            for v in 0..n {
                let size_u = in_u.iter().filter(|&&b| b).count();
                // Keep both sides non-empty.
                if (in_u[v] && size_u == 1) || (!in_u[v] && size_u == n - 1) {
                    continue;
                }
                in_u[v] = !in_u[v];
                let candidate = report_for(topo, &in_u, false);
                if candidate.normalized_bandwidth < current.normalized_bandwidth - 1e-12 {
                    current = candidate;
                    improved = true;
                } else {
                    in_u[v] = !in_u[v];
                }
            }
            if !improved {
                break;
            }
        }
        if best
            .as_ref()
            .is_none_or(|b| current.normalized_bandwidth < b.normalized_bandwidth)
        {
            best = Some(current);
        }
    }
    best.expect("at least one start")
}

pub fn bisection_exhaustive(topo: &Topology) -> f64 {
    let n = topo.num_routers();
    let half = n / 2;
    let links: Vec<(usize, usize)> = topo.links().collect();
    let mut best = f64::INFINITY;
    let combos: u64 = 1u64 << (n - 1);
    for mask in 0..combos {
        let size_u = 1 + mask.count_ones() as usize;
        if size_u != half {
            continue;
        }
        let mut in_u = vec![false; n];
        in_u[0] = true;
        for b in 0..(n - 1) {
            if (mask >> b) & 1 == 1 {
                in_u[b + 1] = true;
            }
        }
        let mut fwd = 0usize;
        let mut bwd = 0usize;
        for &(i, j) in &links {
            match (in_u[i], in_u[j]) {
                (true, false) => fwd += 1,
                (false, true) => bwd += 1,
                _ => {}
            }
        }
        best = best.min(fwd.min(bwd) as f64);
    }
    best
}

pub fn bisection_heuristic(topo: &Topology, starts: usize, seed: u64) -> f64 {
    let n = topo.num_routers();
    let half = n / 2;
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut best = f64::INFINITY;
    for _ in 0..starts {
        // Random balanced partition.
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        let mut in_u = vec![false; n];
        for &r in order.iter().take(half) {
            in_u[r] = true;
        }
        // Pairwise swap local search maintaining balance.  After an accepted
        // swap the current `a` is no longer in U, so the inner scan must be
        // restarted (otherwise further swaps would unbalance the partition).
        let mut current = {
            let (f, b) = crossing_links(topo, &in_u);
            f.min(b) as f64
        };
        loop {
            let mut improved = false;
            'outer: for a in 0..n {
                if !in_u[a] {
                    continue;
                }
                for b in 0..n {
                    if in_u[b] {
                        continue;
                    }
                    in_u[a] = false;
                    in_u[b] = true;
                    let (f, w) = crossing_links(topo, &in_u);
                    let cand = f.min(w) as f64;
                    if cand < current {
                        current = cand;
                        improved = true;
                        break 'outer;
                    } else {
                        in_u[a] = true;
                        in_u[b] = false;
                    }
                }
            }
            if !improved {
                break;
            }
        }
        best = best.min(current);
    }
    best
}
