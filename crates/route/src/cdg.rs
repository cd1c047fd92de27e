//! Channel dependency graph (CDG) construction and cycle detection.
//!
//! Dally & Seitz: wormhole routing is deadlock-free if the channel
//! dependency graph of the routing function is acyclic.  The CDG has one
//! node per directed channel (link); a routing function that can hold
//! channel `(a, b)` while requesting channel `(b, c)` induces the
//! dependency `(a, b) -> (b, c)`.  For table-based single-path routing the
//! dependencies are exactly the consecutive link pairs of the selected
//! paths.

use crate::paths::path_links;
use crate::table::RoutingTable;
use netsmith_topo::RouterId;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// A directed channel (link) of the topology.
pub type Channel = (RouterId, RouterId);

/// Channel dependency graph for a set of routed paths.
///
/// This is the straightforward, whole-graph form: it is the verification
/// oracle behind [`verify_deadlock_free`](crate::vc::verify_deadlock_free)
/// and the tests, independent of the incremental graph VC allocation uses.
/// Ordered containers make [`find_cycle`](Self::find_cycle) report the same
/// cycle on every run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ChannelDependencyGraph {
    /// Adjacency: dependency edges between channels.
    edges: BTreeMap<Channel, BTreeSet<Channel>>,
    /// All channels that appear in any path.
    channels: BTreeSet<Channel>,
}

impl ChannelDependencyGraph {
    /// Empty CDG.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build the CDG induced by a set of paths.
    pub fn from_paths<'a, R: Copy + Into<usize> + 'a>(
        paths: impl IntoIterator<Item = &'a [R]>,
    ) -> Self {
        let mut cdg = Self::new();
        for p in paths {
            cdg.add_path(p);
        }
        cdg
    }

    /// Build the CDG of a complete routing table.
    pub fn from_table(table: &RoutingTable) -> Self {
        Self::from_paths(table.flows().map(|(_, p)| p))
    }

    /// Add the dependencies induced by one path.
    pub fn add_path<R: Copy + Into<usize>>(&mut self, path: &[R]) {
        let links: Vec<Channel> = path_links(path).collect();
        for l in &links {
            self.channels.insert(*l);
        }
        for w in links.windows(2) {
            self.edges.entry(w[0]).or_default().insert(w[1]);
        }
    }

    /// Number of channels present.
    pub fn num_channels(&self) -> usize {
        self.channels.len()
    }

    /// Number of dependency edges.
    pub fn num_dependencies(&self) -> usize {
        self.edges.values().map(|s| s.len()).sum()
    }

    /// Does the dependency `from -> to` exist?
    pub fn has_dependency(&self, from: Channel, to: Channel) -> bool {
        self.edges.get(&from).is_some_and(|s| s.contains(&to))
    }

    /// Is the CDG acyclic (the Dally & Seitz sufficient condition)?
    pub fn is_acyclic(&self) -> bool {
        self.find_cycle().is_none()
    }

    /// Find one cycle, returned as a sequence of channels where each
    /// consecutive pair (and the last-to-first pair) is a dependency edge.
    /// Returns `None` when the CDG is acyclic.
    pub fn find_cycle(&self) -> Option<Vec<Channel>> {
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            White,
            Grey,
            Black,
        }
        let mut marks: BTreeMap<Channel, Mark> =
            self.channels.iter().map(|&c| (c, Mark::White)).collect();

        // Iterative DFS with an explicit stack that tracks the path.
        for &start in &self.channels {
            if marks[&start] != Mark::White {
                continue;
            }
            let mut stack: Vec<(Channel, Vec<Channel>)> = vec![(start, Vec::new())];
            let mut path: Vec<Channel> = Vec::new();
            while let Some((node, _)) = stack.last().cloned() {
                if marks[&node] == Mark::White {
                    marks.insert(node, Mark::Grey);
                    path.push(node);
                    let succs: Vec<Channel> = self
                        .edges
                        .get(&node)
                        .map(|s| s.iter().copied().collect())
                        .unwrap_or_default();
                    stack.last_mut().unwrap().1 = succs;
                }
                // Expand next unvisited successor.
                let next = {
                    let (_, succs) = stack.last_mut().unwrap();
                    succs.pop()
                };
                match next {
                    Some(succ) => match marks[&succ] {
                        Mark::Grey => {
                            // Found a cycle: slice the path from succ onwards.
                            let pos = path.iter().position(|&c| c == succ).unwrap();
                            return Some(path[pos..].to_vec());
                        }
                        Mark::White => stack.push((succ, Vec::new())),
                        Mark::Black => {}
                    },
                    None => {
                        // Finished this node.
                        marks.insert(node, Mark::Black);
                        path.pop();
                        stack.pop();
                    }
                }
            }
        }
        None
    }

    /// The dependency edges along a cycle as `(from, to)` channel pairs,
    /// including the closing edge.
    pub fn cycle_edges(cycle: &[Channel]) -> Vec<(Channel, Channel)> {
        let mut edges = Vec::with_capacity(cycle.len());
        for i in 0..cycle.len() {
            edges.push((cycle[i], cycle[(i + 1) % cycle.len()]));
        }
        edges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_path_is_acyclic() {
        let cdg = ChannelDependencyGraph::from_paths([vec![0usize, 1, 2, 3].as_slice()]);
        assert_eq!(cdg.num_channels(), 3);
        assert_eq!(cdg.num_dependencies(), 2);
        assert!(cdg.is_acyclic());
    }

    #[test]
    fn ring_routes_create_a_cycle() {
        // Three paths that each wrap part of a 3-node ring create the cyclic
        // dependency (0,1)->(1,2)->(2,0)->(0,1).
        let paths = [vec![0usize, 1, 2], vec![1usize, 2, 0], vec![2usize, 0, 1]];
        let cdg = ChannelDependencyGraph::from_paths(paths.iter().map(|p| p.as_slice()));
        assert!(!cdg.is_acyclic());
        let cycle = cdg.find_cycle().unwrap();
        assert!(cycle.len() >= 2);
        // Every consecutive pair in the reported cycle is a real dependency.
        for (from, to) in ChannelDependencyGraph::cycle_edges(&cycle) {
            assert!(cdg.has_dependency(from, to), "{from:?} -> {to:?}");
        }
    }

    #[test]
    fn dependencies_require_consecutive_links() {
        let cdg = ChannelDependencyGraph::from_paths([
            vec![0usize, 1, 2].as_slice(),
            vec![3usize, 4].as_slice(),
        ]);
        assert!(cdg.has_dependency((0, 1), (1, 2)));
        assert!(!cdg.has_dependency((0, 1), (3, 4)));
    }

    #[test]
    fn xy_routing_on_a_ring_is_acyclic_when_no_wraparound() {
        // Paths that always travel "clockwise but never complete the loop".
        let paths = [vec![0usize, 1, 2], vec![1usize, 2, 3], vec![2usize, 3]];
        let cdg = ChannelDependencyGraph::from_paths(paths.iter().map(|p| p.as_slice()));
        assert!(cdg.is_acyclic());
    }

    #[test]
    fn empty_cdg_is_acyclic() {
        let cdg = ChannelDependencyGraph::new();
        assert!(cdg.is_acyclic());
        assert_eq!(cdg.num_channels(), 0);
    }
}
