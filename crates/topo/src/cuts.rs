//! Cut-based bandwidth metrics: bisection bandwidth and the sparsest cut.
//!
//! Bisection bandwidth (the traditional metric reported by the expert
//! topology papers and in Table II) is the minimum number of links crossing
//! any *balanced* bipartition of the routers: `|U|` and `|V|` differ by at
//! most one.  The sparsest cut is the more general — and tighter —
//! cut-based throughput bottleneck used by NetSmith as its bandwidth
//! objective (constraint C6 of Table I): over every bipartition `(U, V)` of
//! the routers, the crossing capacity is normalized by `|U| * |V|`, which is
//! proportional to the uniform-traffic demand that must cross the cut.  For
//! asymmetric topologies the minimum of the two directions is taken,
//! because the weaker direction is the true bottleneck.
//!
//! **Exhaustive kernel** (up to [`EXHAUSTIVE_LIMIT`] routers, e.g. the
//! paper's 20-router configurations).  Router 0 is pinned to `U` and the
//! memberships of the other `n - 1` routers are enumerated in Gray-code
//! order, so consecutive cuts differ by a single router.  Each router keeps
//! its in- and out-neighbours as a bitmask; a flip updates both crossing
//! counts from two popcounts (the flipped router's neighbours in `U`; its
//! degrees give the rest), with no per-cut allocation and no link scan.
//! One pass ([`analyse`]) yields the sparsest cut and the bisection
//! together.  Equally sparse cuts resolve to the smallest membership mask,
//! the cut an increasing-mask scan meets first.  The bisection accepts
//! `|U|` of both `⌊n/2⌋` and `⌈n/2⌉`, so with router 0 pinned it still sees
//! every balanced cut of an odd router count.
//!
//! **Heuristic kernel** (larger networks, 30/48 routers), where an
//! exhaustive sweep is infeasible: seeded multi-start local search —
//! Kernighan–Lin style single-router moves for the sparsest cut, balanced
//! pair swaps for the bisection.  Each trial move is scored by a delta over
//! the moving router's neighbour lists and a running `|U|`, O(degree) per
//! trial.  This matches how we use the metric (as an optimization objective
//! and reporting statistic, not a proof of optimality).

use crate::topology::Topology;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Largest router count for which cuts are enumerated exhaustively.
pub const EXHAUSTIVE_LIMIT: usize = 24;

/// Report describing the minimizing cut found.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CutReport {
    /// Routers in partition `U` (the complement forms `V`).
    pub partition: Vec<usize>,
    /// Directed links crossing from `U` to `V`.
    pub crossing_forward: usize,
    /// Directed links crossing from `V` to `U`.
    pub crossing_backward: usize,
    /// `min(forward, backward) / (|U| * |V|)` — the normalized sparsest-cut
    /// bandwidth `B(U, V)` from the paper's constraint C6.
    pub normalized_bandwidth: f64,
    /// Whether the minimizing partition happens to be a bisection.
    pub is_bisection: bool,
    /// Whether the value is exact (exhaustive enumeration) or heuristic.
    pub exact: bool,
}

impl CutReport {
    /// Bottleneck crossing capacity (the weaker direction).
    pub fn crossing_min(&self) -> usize {
        self.crossing_forward.min(self.crossing_backward)
    }
}

/// Both cut metrics of one topology, as [`analyse`] computes them.
#[derive(Debug, Clone, PartialEq)]
pub struct CutSummary {
    /// The sparsest cut, as [`sparsest_cut`] reports it.
    pub sparsest: CutReport,
    /// The bisection bandwidth, as [`bisection_bandwidth`] reports it.
    pub bisection: f64,
}

/// Count directed links crossing a bipartition given membership flags
/// (`true` = in `U`).  Returns `(U -> V, V -> U)`.
pub fn crossing_links(topo: &Topology, in_u: &[bool]) -> (usize, usize) {
    let mut fwd = 0;
    let mut bwd = 0;
    for (i, j) in topo.links() {
        match (in_u[i], in_u[j]) {
            (true, false) => fwd += 1,
            (false, true) => bwd += 1,
            _ => {}
        }
    }
    (fwd, bwd)
}

/// `min(fwd, bwd) / (|U| * |V|)`, infinite for a one-sided partition.
fn normalized(fwd: usize, bwd: usize, size_u: usize, n: usize) -> f64 {
    let size_v = n - size_u;
    if size_u == 0 || size_v == 0 {
        f64::INFINITY
    } else {
        fwd.min(bwd) as f64 / (size_u * size_v) as f64
    }
}

fn report(partition: Vec<usize>, n: usize, fwd: usize, bwd: usize, exact: bool) -> CutReport {
    let size_u = partition.len();
    let size_v = n - size_u;
    CutReport {
        partition,
        crossing_forward: fwd,
        crossing_backward: bwd,
        normalized_bandwidth: normalized(fwd, bwd, size_u, n),
        is_bisection: size_u.abs_diff(size_v) <= 1,
        exact,
    }
}

/// Sparsest cut and bisection bandwidth in one call, each computed as
/// [`sparsest_cut`] and [`bisection_bandwidth`] would: one Gray-code pass
/// when the router count permits, the two heuristics otherwise.
pub fn analyse(topo: &Topology) -> CutSummary {
    if topo.num_routers() <= EXHAUSTIVE_LIMIT {
        gray_pass(topo)
    } else {
        CutSummary {
            sparsest: sparsest_cut_heuristic(topo, 32, 0x5EEDCA7),
            bisection: bisection_heuristic(topo, 64, 0xB15EC),
        }
    }
}

/// The exhaustive kernel: every bipartition with router 0 in `U`, visited
/// in Gray-code order over the memberships of routers `1..n`.
fn gray_pass(topo: &Topology) -> CutSummary {
    let n = topo.num_routers();
    assert!(
        n <= EXHAUSTIVE_LIMIT,
        "exhaustive sparsest cut limited to {EXHAUSTIVE_LIMIT} routers"
    );
    assert!(n >= 2);
    // Bit `j` of `out[i]` (`inn[i]`) is set when the link i -> j (j -> i)
    // exists; bit `r` of `u` is set when router `r` is in U.
    let mut out = vec![0u32; n];
    let mut inn = vec![0u32; n];
    for (i, j) in topo.links() {
        out[i] |= 1 << j;
        inn[j] |= 1 << i;
    }
    let out_degree: Vec<usize> = out.iter().map(|m| m.count_ones() as usize).collect();
    let in_degree: Vec<usize> = inn.iter().map(|m| m.count_ones() as usize).collect();
    let mut u = 1u32;
    let mut size_u = 1;
    let mut fwd = out_degree[0];
    let mut bwd = in_degree[0];
    let balanced = [n / 2, n - n / 2];
    // The sparsest cut so far as (crossing, |U| * |V|, u, fwd, bwd), starting
    // from U = {0}.  Cuts compare as exact fractions crossing / (|U| * |V|);
    // at these sizes distinct fractions are distinct doubles, so the order
    // is the one the normalized bandwidths have.
    let mut best = (fwd.min(bwd), n - 1, u, fwd, bwd);
    let mut bisection = if balanced.contains(&1) {
        fwd.min(bwd)
    } else {
        usize::MAX
    };
    for step in 1u32..1 << (n - 1) {
        // Gray code: step `k` flips the router of `k`'s lowest set bit.
        let r = step.trailing_zeros() as usize + 1;
        let bit = 1u32 << r;
        let rest = u & !bit;
        let out_u = (out[r] & rest).count_ones() as usize;
        let out_v = out_degree[r] - out_u;
        let in_u = (inn[r] & rest).count_ones() as usize;
        let in_v = in_degree[r] - in_u;
        if u & bit == 0 {
            // V -> U: its links to V now leave U, links from U stop doing so.
            fwd = fwd + out_v - in_u;
            bwd = bwd + in_v - out_u;
            size_u += 1;
        } else {
            fwd = fwd + in_u - out_v;
            bwd = bwd + out_u - in_v;
            size_u -= 1;
        }
        u ^= bit;
        if size_u == n {
            continue; // V must be non-empty
        }
        let crossing = fwd.min(bwd);
        let pairs = size_u * (n - size_u);
        let (lhs, rhs) = (crossing * best.1, best.0 * pairs);
        if lhs < rhs || (lhs == rhs && u < best.2) {
            best = (crossing, pairs, u, fwd, bwd);
        }
        if balanced.contains(&size_u) {
            bisection = bisection.min(crossing);
        }
    }
    let (_, _, members, fwd, bwd) = best;
    let partition = (0..n).filter(|&r| members >> r & 1 == 1).collect();
    CutSummary {
        sparsest: report(partition, n, fwd, bwd, true),
        bisection: bisection as f64,
    }
}

/// Exhaustive sparsest cut over all bipartitions (requires `2 <= n <=
/// EXHAUSTIVE_LIMIT`).  The partition containing router 0 is fixed to `U`
/// to avoid enumerating mirror-image cuts twice.
pub fn sparsest_cut_exhaustive(topo: &Topology) -> CutReport {
    gray_pass(topo).sparsest
}

/// A bipartition under local search: membership, both crossing counts and
/// `|U|`, updated per move from the moving router's neighbour lists.
struct LocalCut {
    out: Vec<Vec<usize>>,
    inn: Vec<Vec<usize>>,
    in_u: Vec<bool>,
    fwd: usize,
    bwd: usize,
    size_u: usize,
}

impl LocalCut {
    /// The bipartition `in_u` (`true` = in `U`) of `topo`.
    fn new(topo: &Topology, in_u: Vec<bool>) -> Self {
        let n = topo.num_routers();
        let (fwd, bwd) = crossing_links(topo, &in_u);
        LocalCut {
            out: (0..n).map(|i| topo.neighbours_out(i)).collect(),
            inn: (0..n).map(|i| topo.neighbours_in(i)).collect(),
            size_u: in_u.iter().filter(|&&b| b).count(),
            in_u,
            fwd,
            bwd,
        }
    }

    /// `(fwd, bwd)` after moving router `r` to the other side.
    fn moved(&self, r: usize) -> (usize, usize) {
        let out_u = self.out[r].iter().filter(|&&j| self.in_u[j]).count();
        let out_v = self.out[r].len() - out_u;
        let in_u = self.inn[r].iter().filter(|&&j| self.in_u[j]).count();
        let in_v = self.inn[r].len() - in_u;
        if self.in_u[r] {
            (self.fwd + in_u - out_v, self.bwd + out_u - in_v)
        } else {
            (self.fwd + out_v - in_u, self.bwd + in_v - out_u)
        }
    }

    /// Move router `r` to the other side; `counts` is its `moved(r)`.
    fn apply(&mut self, r: usize, (fwd, bwd): (usize, usize)) {
        self.in_u[r] = !self.in_u[r];
        if self.in_u[r] {
            self.size_u += 1;
        } else {
            self.size_u -= 1;
        }
        self.fwd = fwd;
        self.bwd = bwd;
    }

    fn report(&self) -> CutReport {
        let n = self.in_u.len();
        let partition = (0..n).filter(|&i| self.in_u[i]).collect();
        report(partition, n, self.fwd, self.bwd, false)
    }
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
        let mut cut = LocalCut::new(topo, in_u);
        // Greedy single-node moves until no improvement.
        let mut current = normalized(cut.fwd, cut.bwd, cut.size_u, n);
        loop {
            let mut improved = false;
            for v in 0..n {
                // Keep both sides non-empty.
                let size_u = cut.size_u;
                if (cut.in_u[v] && size_u == 1) || (!cut.in_u[v] && size_u == n - 1) {
                    continue;
                }
                let (fwd, bwd) = cut.moved(v);
                let size_after = if cut.in_u[v] { size_u - 1 } else { size_u + 1 };
                let candidate = normalized(fwd, bwd, size_after, n);
                if candidate < current - 1e-12 {
                    cut.apply(v, (fwd, bwd));
                    current = candidate;
                    improved = true;
                }
            }
            if !improved {
                break;
            }
        }
        if best
            .as_ref()
            .is_none_or(|b| current < b.normalized_bandwidth)
        {
            best = Some(cut.report());
        }
    }
    best.expect("at least one start")
}

/// Sparsest cut with automatic method selection: exhaustive when the router
/// count permits, heuristic otherwise.
pub fn sparsest_cut(topo: &Topology) -> CutReport {
    if topo.num_routers() <= EXHAUSTIVE_LIMIT {
        sparsest_cut_exhaustive(topo)
    } else {
        sparsest_cut_heuristic(topo, 32, 0x5EEDCA7)
    }
}

/// Bisection bandwidth: minimum crossing capacity (weaker direction) over
/// balanced bipartitions.  Exhaustive for small networks; for larger ones a
/// heuristic restricted to balanced partitions is used.  The value reported
/// matches how the expert-topology papers count it: number of (full-duplex)
/// links crossing the bisection, i.e. the directed crossing count of the
/// weaker direction.  A single router has no bisection (infinite).
pub fn bisection_bandwidth(topo: &Topology) -> f64 {
    let n = topo.num_routers();
    if n < 2 {
        f64::INFINITY
    } else if n <= EXHAUSTIVE_LIMIT {
        gray_pass(topo).bisection
    } else {
        bisection_heuristic(topo, 64, 0xB15EC)
    }
}

/// Heuristic bisection bandwidth: multi-start balanced pair-swap local
/// search from seeded random balanced partitions.
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
        let mut cut = LocalCut::new(topo, in_u);
        // Pairwise swap local search maintaining balance: move `a` out of
        // U, then try each `b` of V in its place.  After an accepted swap
        // the scan restarts from the first router of U.
        let mut current = cut.fwd.min(cut.bwd) as f64;
        loop {
            let mut improved = false;
            'outer: for a in 0..n {
                if !cut.in_u[a] {
                    continue;
                }
                let before = (cut.fwd, cut.bwd);
                cut.apply(a, cut.moved(a));
                for b in 0..n {
                    if b == a || cut.in_u[b] {
                        continue;
                    }
                    let (fwd, bwd) = cut.moved(b);
                    let candidate = fwd.min(bwd) as f64;
                    if candidate < current {
                        cut.apply(b, (fwd, bwd));
                        current = candidate;
                        improved = true;
                        break 'outer;
                    }
                }
                cut.apply(a, before);
            }
            if !improved {
                break;
            }
        }
        best = best.min(current);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expert;
    use crate::layout::Layout;
    use crate::linkclass::{LinkClass, LinkSpan};

    #[test]
    fn ring_sparsest_cut() {
        // Bidirectional ring over 6 routers: any contiguous cut crosses 2
        // links each way; the sparsest cut balances the partition.
        let layout = Layout::interposer_grid(2, 3, 4);
        let links = [(0, 1), (1, 2), (2, 5), (5, 4), (4, 3), (3, 0)];
        let t = Topology::from_bidirectional_links(
            "ring6",
            layout,
            LinkClass::Custom(LinkSpan::new(8, 8)),
            &links,
        );
        let cut = sparsest_cut_exhaustive(&t);
        assert!(cut.exact);
        assert_eq!(cut.crossing_min(), 2);
        // Minimum normalized value is 2 / (3*3).
        assert!((cut.normalized_bandwidth - 2.0 / 9.0).abs() < 1e-9);
    }

    #[test]
    fn mesh_bisection_matches_row_cut() {
        // 4x5 mesh: the balanced 10/10 cut with the fewest crossing links is
        // the horizontal cut between rows 1 and 2, severing 5 column links.
        // (Column cuts sever only 4 links but are 8/12, not balanced.)
        let mesh = expert::mesh(&Layout::noi_4x5());
        let bb = bisection_bandwidth(&mesh);
        assert_eq!(bb, 5.0);
    }

    #[test]
    fn heuristic_close_to_exhaustive_on_small_networks() {
        let mesh = expert::mesh(&Layout::noi_4x5());
        let exact = sparsest_cut_exhaustive(&mesh);
        let heur = sparsest_cut_heuristic(&mesh, 16, 42);
        assert!(heur.normalized_bandwidth >= exact.normalized_bandwidth - 1e-12);
        assert!(heur.normalized_bandwidth <= exact.normalized_bandwidth * 1.5 + 1e-9);
    }

    #[test]
    fn asymmetric_direction_minimum_is_used() {
        // A 4-cycle whose 2 -> 0 link has no reverse.  The cut {0, 1} vs
        // {2, 3} crosses forward only on 1 -> 3 and backward on 3 -> 1 and
        // 2 -> 0, so its weaker direction gives 1 / (2 * 2) = 0.25, the
        // minimum over all cuts.  Taking the stronger direction instead
        // would make the sparsest value 0.5.
        let layout = Layout::interposer_grid(2, 2, 4);
        let mut t = Topology::empty("one-way", layout, LinkClass::Large);
        t.add_link(0, 1);
        t.add_link(1, 0);
        t.add_link(1, 3);
        t.add_link(3, 1);
        t.add_link(3, 2);
        t.add_link(2, 3);
        t.add_link(2, 0);
        let cut = sparsest_cut_exhaustive(&t);
        assert_eq!(cut.normalized_bandwidth, 0.25);
        assert_eq!(cut.partition, vec![0, 1]);
        assert_eq!((cut.crossing_forward, cut.crossing_backward), (1, 2));
    }

    #[test]
    fn crossing_links_counts_directions_separately() {
        let layout = Layout::interposer_grid(2, 2, 4);
        let mut t = Topology::empty("x", layout, LinkClass::Large);
        t.add_link(0, 3);
        t.add_link(3, 0);
        t.add_link(1, 2);
        let in_u = vec![true, true, false, false];
        let (f, b) = crossing_links(&t, &in_u);
        assert_eq!(f, 2);
        assert_eq!(b, 1);
    }

    #[test]
    fn odd_bisection_sees_router_zero_on_the_larger_side() {
        // Two bidirectional rings, 1-2-3-4 and 0-5-6-7-8, bridged by 4-5.
        // The balanced 4/5 cut between the rings crosses one link each
        // way, but it puts router 0 on the larger side: every balanced cut
        // with router 0 among four routers splits a ring, crossing two.
        let layout = Layout::interposer_grid(3, 3, 4);
        let t = Topology::from_bidirectional_links(
            "two-rings",
            layout,
            LinkClass::Custom(LinkSpan::new(8, 8)),
            &[
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 1),
                (0, 5),
                (5, 6),
                (6, 7),
                (7, 8),
                (8, 0),
                (4, 5),
            ],
        );
        assert_eq!(bisection_bandwidth(&t), 1.0);
        assert_eq!(analyse(&t).bisection, 1.0);
    }

    #[test]
    fn heuristic_bisection_stays_balanced_on_larger_layouts() {
        // 6x5 mesh: the minimum balanced (15/15) cut severs the 5 column
        // links between two rows; the heuristic reports a real cut, so it
        // can never be below that optimum and must stay close to it.
        let mesh = expert::mesh(&Layout::noi_6x5());
        let bb = bisection_heuristic(&mesh, 64, 0xB15EC);
        assert!(bb >= 5.0, "heuristic produced an impossible cut {bb}");
        assert!(bb <= 7.0, "heuristic far from the optimum: {bb}");
    }

    #[test]
    fn folded_torus_beats_mesh_on_bisection() {
        let layout = Layout::noi_4x5();
        let mesh = expert::mesh(&layout);
        let torus = expert::folded_torus(&layout);
        assert!(bisection_bandwidth(&torus) > bisection_bandwidth(&mesh));
    }

    #[test]
    fn analyse_matches_the_separate_calls() {
        for layout in [Layout::noi_4x5(), Layout::noi_6x5()] {
            let torus = expert::folded_torus(&layout);
            let summary = analyse(&torus);
            assert_eq!(summary.sparsest, sparsest_cut(&torus));
            assert_eq!(summary.bisection, bisection_bandwidth(&torus));
        }
    }

    #[test]
    fn cut_report_partition_is_consistent() {
        let mesh = expert::mesh(&Layout::noi_4x5());
        let cut = sparsest_cut(&mesh);
        assert!(!cut.partition.is_empty());
        assert!(cut.partition.len() < 20);
        assert!(cut.partition.contains(&0));
    }
}
