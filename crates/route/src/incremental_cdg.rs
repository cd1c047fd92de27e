//! Incremental channel dependency graph over dense channel ids.
//!
//! [`allocate_vcs`](crate::vc::allocate_vcs) asks one question many
//! thousands of times: "does this layer's CDG stay acyclic if this path is
//! added?".  [`ChannelDependencyGraph`](crate::cdg::ChannelDependencyGraph)
//! answers it by rebuilding and re-searching the whole graph;
//! [`IncrementalCdg`] answers it in time proportional to the part of the
//! graph reachable from the new dependencies.  Because the graph is kept
//! acyclic, a new dependency `a -> b` closes a cycle exactly when `b`
//! already reaches `a`, so adding a path's dependencies one at a time and
//! checking each against the graph so far gives the same verdict as a full
//! cycle search over the union.

use netsmith_topo::RouterId;

/// Dense ids for the directed channels (links) of a set of paths, through
/// an `n × n` table indexed by `(from, to)`.
#[derive(Debug, Clone)]
pub(crate) struct ChannelIds {
    n: usize,
    ids: Vec<u32>,
    len: u32,
}

impl ChannelIds {
    const NONE: u32 = u32::MAX;

    /// An empty table for channels between routers `0..n`.
    pub(crate) fn new(n: usize) -> Self {
        ChannelIds {
            n,
            ids: vec![Self::NONE; n * n],
            len: 0,
        }
    }

    /// The id of channel `from -> to`, assigning the next free one on
    /// first sight.
    pub(crate) fn id(&mut self, from: RouterId, to: RouterId) -> u32 {
        let slot = &mut self.ids[from * self.n + to];
        if *slot == Self::NONE {
            *slot = self.len;
            self.len += 1;
        }
        *slot
    }

    /// Number of distinct channels seen so far.
    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }

    /// Append the channel ids of a path's links to `out`.
    pub(crate) fn extend_path<R: Copy + Into<usize>>(&mut self, path: &[R], out: &mut Vec<u32>) {
        out.extend(path.windows(2).map(|w| self.id(w[0].into(), w[1].into())));
    }
}

/// An acyclic channel dependency graph that paths (given as channel-id
/// sequences) can be added to and removed from.
///
/// Each channel keeps its successors as `(to, count)` pairs, where `count`
/// is the number of path occurrences inducing that dependency; a linear
/// scan suffices because a channel's out-degree is at most the router
/// radix.  Reachability searches reuse an epoch-stamped visited array and
/// a stack, so a check allocates nothing.
#[derive(Debug, Clone)]
pub(crate) struct IncrementalCdg {
    succ: Vec<Vec<(u32, u32)>>,
    /// Visit stamps of the current search; `stamp[c] == epoch` means seen.
    stamp: Vec<u32>,
    epoch: u32,
    stack: Vec<u32>,
}

impl IncrementalCdg {
    /// An empty graph over channels `0..num_channels`.
    pub(crate) fn new(num_channels: usize) -> Self {
        IncrementalCdg {
            succ: vec![Vec::new(); num_channels],
            stamp: vec![0; num_channels],
            epoch: 0,
            stack: Vec::new(),
        }
    }

    /// Add the dependencies of a path (its consecutive channel pairs) when
    /// the graph stays acyclic, and report whether it did.  A rejected path
    /// leaves the graph exactly as it was.
    pub(crate) fn try_add_path(&mut self, channels: &[u32]) -> bool {
        for (k, w) in channels.windows(2).enumerate() {
            let (a, b) = (w[0], w[1]);
            if let Some(edge) = self.succ[a as usize].iter_mut().find(|e| e.0 == b) {
                // An existing dependency changes no reachability.
                edge.1 += 1;
            } else if self.reaches(b, a) {
                // Roll back the dependencies 0..k this call added.
                self.remove_path(&channels[..=k]);
                return false;
            } else {
                self.succ[a as usize].push((b, 1));
            }
        }
        true
    }

    /// Remove one occurrence of a previously added path's dependencies,
    /// dropping each dependency whose count reaches zero.
    pub(crate) fn remove_path(&mut self, channels: &[u32]) {
        for w in channels.windows(2) {
            let succ = &mut self.succ[w[0] as usize];
            let i = succ
                .iter()
                .position(|e| e.0 == w[1])
                .expect("removed dependency must be present");
            succ[i].1 -= 1;
            if succ[i].1 == 0 {
                succ.swap_remove(i);
            }
        }
    }

    /// Does a dependency path lead from channel `from` to channel `to`
    /// (trivially so when they are the same channel)?
    fn reaches(&mut self, from: u32, to: u32) -> bool {
        if from == to {
            return true;
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.stack.clear();
        self.stack.push(from);
        self.stamp[from as usize] = self.epoch;
        while let Some(c) = self.stack.pop() {
            for &(s, _) in &self.succ[c as usize] {
                if s == to {
                    return true;
                }
                if self.stamp[s as usize] != self.epoch {
                    self.stamp[s as usize] = self.epoch;
                    self.stack.push(s);
                }
            }
        }
        false
    }

    /// The dependency multiset as sorted `(from, to, count)` triples.
    #[cfg(test)]
    fn edges(&self) -> Vec<(u32, u32, u32)> {
        let mut edges: Vec<_> = self
            .succ
            .iter()
            .enumerate()
            .flat_map(|(a, s)| s.iter().map(move |&(b, c)| (a as u32, b, c)))
            .collect();
        edges.sort_unstable();
        edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cdg::ChannelDependencyGraph;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn channels_of(ids: &mut ChannelIds, path: &[RouterId]) -> Vec<u32> {
        let mut out = Vec::new();
        ids.extend_path(path, &mut out);
        out
    }

    /// The dependency multiset the graph should hold for `paths`.
    fn expected_edges(ids: &mut ChannelIds, paths: &[Vec<RouterId>]) -> Vec<(u32, u32, u32)> {
        let mut deps: Vec<(u32, u32)> = paths
            .iter()
            .flat_map(|p| {
                let c = channels_of(ids, p);
                c.windows(2).map(|w| (w[0], w[1])).collect::<Vec<_>>()
            })
            .collect();
        deps.sort_unstable();
        let mut edges: Vec<(u32, u32, u32)> = Vec::new();
        for (a, b) in deps {
            match edges.last_mut() {
                Some(e) if (e.0, e.1) == (a, b) => e.2 += 1,
                _ => edges.push((a, b, 1)),
            }
        }
        edges
    }

    #[test]
    fn ring_closing_path_is_rejected_and_rolled_back() {
        let mut ids = ChannelIds::new(3);
        let paths = [vec![0usize, 1, 2], vec![1, 2, 0], vec![2, 0, 1]];
        let chans: Vec<Vec<u32>> = paths.iter().map(|p| channels_of(&mut ids, p)).collect();
        let mut cdg = IncrementalCdg::new(ids.len());
        assert!(cdg.try_add_path(&chans[0]));
        assert!(cdg.try_add_path(&chans[1]));
        let before = cdg.edges();
        assert!(!cdg.try_add_path(&chans[2]));
        assert_eq!(cdg.edges(), before);
        cdg.remove_path(&chans[0]);
        assert!(cdg.try_add_path(&chans[2]));
    }

    #[test]
    fn a_path_repeating_a_channel_is_rejected_even_alone() {
        let mut ids = ChannelIds::new(2);
        let chans = channels_of(&mut ids, &[0, 1, 0, 1]);
        let mut cdg = IncrementalCdg::new(ids.len());
        assert!(!cdg.try_add_path(&chans));
        assert!(cdg.edges().is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random add/remove sequences over random (possibly non-simple)
        /// paths: every verdict matches a full cycle search of the union,
        /// a rejected add leaves the dependency multiset untouched, and
        /// the graph always holds exactly its accepted paths' dependencies.
        #[test]
        fn try_add_path_agrees_with_a_full_cycle_search(seed in 0u64..100_000, n in 3usize..7) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut ids = ChannelIds::new(n);
            // Pre-assign every channel so the graph can be sized up front.
            for a in 0..n {
                for b in 0..n {
                    ids.id(a, b);
                }
            }
            let mut cdg = IncrementalCdg::new(ids.len());
            let mut current: Vec<Vec<RouterId>> = Vec::new();
            for _ in 0..60 {
                if !current.is_empty() && rng.gen_range(0..3) == 0 {
                    let i = rng.gen_range(0..current.len());
                    let path = current.swap_remove(i);
                    cdg.remove_path(&channels_of(&mut ids, &path));
                } else {
                    let len = rng.gen_range(2..6);
                    let path: Vec<RouterId> = (0..len).map(|_| rng.gen_range(0..n)).collect();
                    let expected = ChannelDependencyGraph::from_paths(
                        current.iter().map(|p| p.as_slice()).chain([path.as_slice()]),
                    )
                    .is_acyclic();
                    let before = cdg.edges();
                    let added = cdg.try_add_path(&channels_of(&mut ids, &path));
                    prop_assert_eq!(added, expected, "path {:?} onto {:?}", path, current);
                    if added {
                        current.push(path);
                    } else {
                        prop_assert_eq!(cdg.edges(), before);
                    }
                }
                prop_assert_eq!(cdg.edges(), expected_edges(&mut ids, &current));
            }
        }
    }
}
