//! Deadlock-free virtual-channel allocation for irregular topologies.
//!
//! Machine-generated topologies cannot rely on simple turn rules, so the
//! paper applies the DFSSSP approach (Domke et al.): partition the set of
//! selected shortest paths into subsets whose channel dependency graphs are
//! each acyclic, and map every subset onto its own (escape) virtual
//! channel.  A packet uses the VC its flow was assigned to for its entire
//! journey, so each VC's routing subfunction is acyclic and the network is
//! deadlock-free by the Dally & Seitz condition.
//!
//! The partition is a greedy first fit: flows are taken longest path first
//! (seeded random tie-breaking), and each goes into the lowest layer whose
//! CDG stays acyclic with the flow's path added, opening a new layer when
//! none does.  A balancing pass then repeatedly moves a flow from the most
//! occupied VC to the least occupied one at or above the flow's escape
//! layer, keeping every VC acyclic, with path-length-weighted occupancy as
//! the balance metric, mirroring the paper's Section IV-A.
//!
//! Both passes keep one incremental CDG per layer or VC over dense channel
//! ids: a new dependency `a -> b` is legal iff `b` does not already reach
//! `a`, so each placement or move costs a bounded search instead of a
//! rebuilt graph and a full cycle check.

use crate::cdg::ChannelDependencyGraph;
use crate::incremental_cdg::{ChannelIds, IncrementalCdg};
use crate::table::{Flow, RoutingTable};
use netsmith_topo::PipelineError;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Iteration limit of the balancing pass.
const BALANCE_ITERATION_LIMIT: usize = 10_000;

/// Marks a flow slot the allocation assigns no VC (an unrouted pair).
const UNASSIGNED: u8 = u8::MAX;

/// Result of VC allocation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VcAllocation {
    /// Number of routers; flow `(s, d)` owns slot `s * n + d` of `vc_of`.
    n: usize,
    /// Virtual channel assigned to each flow, [`UNASSIGNED`] for flows the
    /// routing table does not route.  One byte per slot keeps a prepared
    /// network's allocation ~40x smaller than a map keyed by flow.
    vc_of: Vec<u8>,
    /// Number of virtual channels actually used after load balancing
    /// (max index + 1).
    pub num_vcs: usize,
    /// Number of escape layers the DFSSSP-style partition required for
    /// deadlock freedom *before* load balancing — the "VCs required" figure
    /// the paper reports (4 for all its 20-router configurations).
    pub escape_layers: usize,
    /// Path-length-weighted occupancy per VC.
    pub occupancy: Vec<f64>,
    /// Flows the balancing pass moved between VCs.
    pub balance_moves: usize,
    /// True when the balancing pass stopped at its 10 000-iteration limit
    /// while still moving flows, rather than converging.
    pub balance_capped: bool,
}

impl VcAllocation {
    /// The VC assigned to a flow, or `None` when the flow was not routed.
    pub fn get(&self, flow: Flow) -> Option<usize> {
        if flow.src >= self.n || flow.dst >= self.n {
            return None;
        }
        match self.vc_of[flow.src * self.n + flow.dst] {
            UNASSIGNED => None,
            vc => Some(vc as usize),
        }
    }

    /// The VC assigned to a flow (panics when the flow was not routed).
    pub fn vc(&self, flow: Flow) -> usize {
        self.get(flow).expect("flow has no VC: it was not routed")
    }

    /// Every routed flow with its VC, in `Flow` order.
    pub fn assignment(&self) -> impl Iterator<Item = (Flow, usize)> + '_ {
        let n = self.n;
        self.vc_of
            .iter()
            .enumerate()
            .filter(|&(_, &vc)| vc != UNASSIGNED)
            .map(move |(slot, &vc)| (Flow::new(slot / n, slot % n), vc as usize))
    }

    /// Number of flows assigned a VC.
    pub fn num_assigned(&self) -> usize {
        self.vc_of.iter().filter(|&&vc| vc != UNASSIGNED).count()
    }

    /// Largest/smallest weighted occupancy ratio — 1.0 means perfectly
    /// balanced.
    pub fn imbalance(&self) -> f64 {
        let max = self.occupancy.iter().copied().fold(0.0f64, f64::max);
        let min = self.occupancy.iter().copied().fold(f64::INFINITY, f64::min);
        if min <= 0.0 {
            f64::INFINITY
        } else {
            max / min
        }
    }
}

/// Partition the flows of a routing table into acyclic layers and balance
/// them over `total_vcs` virtual channels.  Fails with
/// [`PipelineError::VcBudgetExceeded`] — carrying the exact number of escape
/// layers the partition required — when they exceed `total_vcs`.
/// `total_vcs` must lie in `1..=255`.
pub fn allocate_vcs(
    table: &RoutingTable,
    total_vcs: usize,
    seed: u64,
) -> Result<VcAllocation, PipelineError> {
    assert!((1..=UNASSIGNED as usize).contains(&total_vcs));
    let mut rng = SmallRng::seed_from_u64(seed);

    // Flows get dense indices in `Flow` order, and their paths dense
    // channel-id sequences (flow `f` owns `chans[start[f]..start[f + 1]]`).
    let flows: Vec<Flow> = table.flows().map(|(f, _)| f).collect();
    let routers = table
        .flows()
        .flat_map(|(_, p)| p.iter().copied())
        .max()
        .map_or(0, |m| usize::from(m) + 1);
    let mut ids = ChannelIds::new(routers);
    let mut start = vec![0usize];
    let mut chans: Vec<u32> = Vec::new();
    for (_, p) in table.flows() {
        ids.extend_path(p, &mut chans);
        start.push(chans.len());
    }
    let path_of = |f: usize| &chans[start[f]..start[f + 1]];
    let hops = |f: usize| start[f + 1] - start[f];

    // Greedy first-fit escape partition: seeded shuffle, then a stable
    // sort by descending path length (long paths constrain the CDG most).
    let mut order: Vec<usize> = (0..flows.len()).collect();
    for i in (1..order.len()).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    order.sort_by_key(|&f| std::cmp::Reverse(hops(f)));
    let mut layer_of = vec![0usize; flows.len()];
    let mut cdgs = vec![IncrementalCdg::new(ids.len())];
    // Layers opened by a path whose own dependencies form a cycle (it
    // repeats a channel): like any cyclic CDG, they accept nothing more.
    let mut sealed = vec![false];
    for &f in &order {
        let path = path_of(f);
        let fits = (0..cdgs.len()).find(|&l| !sealed[l] && cdgs[l].try_add_path(path));
        layer_of[f] = fits.unwrap_or_else(|| {
            let mut cdg = IncrementalCdg::new(ids.len());
            sealed.push(!cdg.try_add_path(path));
            cdgs.push(cdg);
            cdgs.len() - 1
        });
    }
    let num_layers = cdgs.len();

    if num_layers > total_vcs {
        return Err(PipelineError::VcBudgetExceeded {
            needed: num_layers,
            budget: total_vcs,
        });
    }

    // Balance: flows may move from their escape layer to any *higher* VC
    // index as long as that VC's CDG stays acyclic.  Greedily move flows
    // from the most occupied VC to the least occupied one.
    // Each VC starts as its escape layer (upper VCs start empty) and keeps
    // its members in flow order, the order candidates are tried in.
    cdgs.resize_with(total_vcs, || IncrementalCdg::new(ids.len()));
    sealed.resize(total_vcs, false);
    let mut members: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); total_vcs];
    let mut occupancy = vec![0.0f64; total_vcs];
    for (f, &vc) in layer_of.iter().enumerate() {
        members[vc].insert(f);
        occupancy[vc] += hops(f) as f64;
    }
    let mut improved = true;
    let mut guard = 0usize;
    let mut balance_moves = 0usize;
    while improved && guard < BALANCE_ITERATION_LIMIT {
        improved = false;
        guard += 1;
        // Most loaded VC and its flows.
        let (hot_vc, _) = occupancy
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        let (cold_vc, _) = occupancy
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap();
        if occupancy[hot_vc] - occupancy[cold_vc] < 1e-9 {
            break;
        }
        // Try to move one flow from hot to cold, keeping the cold VC acyclic
        // and never moving a flow below its escape layer.
        let moved = members[hot_vc].iter().copied().find(|&f| {
            let w = hops(f) as f64;
            // Moving must actually reduce the imbalance.
            layer_of[f] <= cold_vc
                && occupancy[hot_vc] - w >= occupancy[cold_vc] + w - 1e-9
                && !sealed[cold_vc]
                && cdgs[cold_vc].try_add_path(path_of(f))
        });
        if let Some(f) = moved {
            let w = hops(f) as f64;
            cdgs[hot_vc].remove_path(path_of(f));
            members[hot_vc].remove(&f);
            members[cold_vc].insert(f);
            occupancy[hot_vc] -= w;
            occupancy[cold_vc] += w;
            balance_moves += 1;
            improved = true;
        }
    }

    let n = table.num_routers();
    let mut vc_of = vec![UNASSIGNED; n * n];
    for (vc, m) in members.iter().enumerate() {
        for &f in m {
            vc_of[flows[f].src * n + flows[f].dst] = vc as u8;
        }
    }
    let num_vcs = members.iter().rposition(|m| !m.is_empty()).unwrap_or(0) + 1;
    Ok(VcAllocation {
        n,
        vc_of,
        num_vcs,
        escape_layers: num_layers,
        occupancy,
        balance_moves,
        // Still set only when the iteration limit ended the loop.
        balance_capped: improved,
    })
}

/// Verify that an allocation is deadlock-free: for every VC, the CDG of the
/// flows assigned to it must be acyclic.
pub fn verify_deadlock_free(table: &RoutingTable, alloc: &VcAllocation) -> bool {
    for vc in 0..alloc.num_vcs {
        let members: Vec<&[u16]> = table
            .flows()
            .filter(|&(f, _)| alloc.get(f) == Some(vc))
            .map(|(_, p)| p)
            .collect();
        let cdg = ChannelDependencyGraph::from_paths(members);
        if !cdg.is_acyclic() {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mclb::{mclb_route, MclbConfig};
    use crate::ndbt::ndbt_route;
    use crate::paths::all_shortest_paths;
    use netsmith_topo::expert;
    use netsmith_topo::Layout;

    #[test]
    fn xy_routing_on_a_mesh_needs_exactly_one_vc() {
        // Dimension-ordered (XY) routing on a mesh famously has an acyclic
        // CDG, so the allocator must report a single escape VC.
        let layout = Layout::noi_4x5();
        let mesh = expert::mesh(&layout);
        let ps = all_shortest_paths(&mesh);
        let mut table = crate::table::RoutingTable::new(20, "XY");
        for (s, d) in ps.flows() {
            // The XY path is the shortest path whose column moves all happen
            // before its row moves.
            let xy = ps
                .paths(s, d)
                .iter()
                .find(|p| {
                    let mut seen_row_move = false;
                    for w in p.windows(2) {
                        let (r0, c0) = layout.position(w[0]);
                        let (r1, c1) = layout.position(w[1]);
                        if r0 != r1 {
                            seen_row_move = true;
                        } else if c0 != c1 && seen_row_move {
                            return false;
                        }
                    }
                    true
                })
                .expect("mesh always has an XY shortest path")
                .clone();
            table.set_path(crate::table::Flow::new(s, d), xy);
        }
        let alloc = allocate_vcs(&table, 6, 11).expect("fits trivially");
        assert!(verify_deadlock_free(&table, &alloc));
        assert_eq!(alloc.escape_layers, 1, "XY routing must be acyclic");
    }

    #[test]
    fn ndbt_routed_mesh_fits_in_six_vcs() {
        let layout = Layout::noi_4x5();
        let mesh = expert::mesh(&layout);
        let ps = all_shortest_paths(&mesh);
        let (table, _) = ndbt_route(&layout, &ps, 3);
        let alloc = allocate_vcs(&table, 6, 11).expect("allocation fits in 6 VCs");
        assert!(verify_deadlock_free(&table, &alloc));
        assert!(alloc.num_vcs <= 6);
        assert_eq!(alloc.num_assigned(), 380);
    }

    #[test]
    fn expert_topologies_fit_in_six_vcs_with_mclb() {
        let layout = Layout::noi_4x5();
        for topo in [
            expert::folded_torus(&layout),
            expert::kite_large(&layout),
            expert::butter_donut(&layout),
        ] {
            let ps = all_shortest_paths(&topo);
            let table = mclb_route(&ps, &MclbConfig::default());
            let alloc =
                allocate_vcs(&table, 6, 5).unwrap_or_else(|e| panic!("{}: {e}", topo.name()));
            assert!(
                verify_deadlock_free(&table, &alloc),
                "{} allocation has a cyclic VC",
                topo.name()
            );
            assert!(alloc.num_vcs <= 6);
        }
    }

    #[test]
    fn single_vc_budget_reports_the_exact_escape_layer_need() {
        // The folded torus's shortest-path CDG is cyclic, so one VC cannot
        // be made deadlock free; the error must carry the exact number of
        // escape layers the partition required (which a roomy allocation of
        // the same seed reports as `escape_layers`).
        let layout = Layout::noi_4x5();
        let torus = expert::folded_torus(&layout);
        let ps = all_shortest_paths(&torus);
        let table = mclb_route(&ps, &MclbConfig::default());
        let roomy = allocate_vcs(&table, 6, 5).expect("fits in 6 VCs");
        assert!(roomy.escape_layers > 1, "torus CDG must be cyclic");
        match allocate_vcs(&table, 1, 5) {
            Err(PipelineError::VcBudgetExceeded { needed, budget }) => {
                assert_eq!(needed, roomy.escape_layers);
                assert_eq!(budget, 1);
            }
            other => panic!("expected VcBudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn occupancy_accounts_every_flow_weight() {
        let layout = Layout::noi_4x5();
        let kite = expert::kite_medium(&layout);
        let ps = all_shortest_paths(&kite);
        let table = mclb_route(&ps, &MclbConfig::default());
        let alloc = allocate_vcs(&table, 6, 1).unwrap();
        let total_weight: f64 = table.flows().map(|(_, p)| (p.len() - 1) as f64).sum();
        let occ_sum: f64 = alloc.occupancy.iter().sum();
        assert!((total_weight - occ_sum).abs() < 1e-9);
    }

    #[test]
    fn balancing_converges_below_its_limit_on_every_8x6_expert_baseline() {
        let layout = Layout::noi_8x6();
        for topo in expert::all_baselines(&layout) {
            let ps = all_shortest_paths(&topo);
            let mclb = mclb_route(&ps, &MclbConfig::default());
            let (ndbt, _) = ndbt_route(&layout, &ps, 1);
            for (scheme, table) in [("MCLB", mclb), ("NDBT", ndbt)] {
                let alloc = allocate_vcs(&table, 6, 1)
                    .unwrap_or_else(|e| panic!("{} / {scheme}: {e}", topo.name()));
                assert!(
                    !alloc.balance_capped && alloc.balance_moves > 0,
                    "{} / {scheme}: {} moves, capped {}",
                    topo.name(),
                    alloc.balance_moves,
                    alloc.balance_capped
                );
            }
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let layout = Layout::noi_4x5();
        let bd = expert::butter_donut(&layout);
        let ps = all_shortest_paths(&bd);
        let table = mclb_route(&ps, &MclbConfig::default());
        let a = allocate_vcs(&table, 6, 77).unwrap();
        let b = allocate_vcs(&table, 6, 77).unwrap();
        assert_eq!(a, b);
    }
}
