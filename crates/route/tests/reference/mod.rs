//! The escape-VC allocator's original implementation, kept as the test
//! oracle that `allocate_vcs` must match bit for bit (errors included).

use netsmith_route::cdg::ChannelDependencyGraph;
use netsmith_route::{Flow, PipelineError, RoutingTable, VcAllocation};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Everything an allocation decides, in a form both allocators produce.
#[derive(Debug, PartialEq)]
pub struct Decisions {
    pub assignment: BTreeMap<Flow, usize>,
    pub num_vcs: usize,
    pub escape_layers: usize,
    pub occupancy: Vec<f64>,
    pub balance_moves: usize,
    pub balance_capped: bool,
}

impl Decisions {
    /// The decisions of an `allocate_vcs` result.
    pub fn of(result: Result<VcAllocation, PipelineError>) -> Result<Decisions, PipelineError> {
        result.map(|alloc| Decisions {
            assignment: alloc.assignment().collect(),
            num_vcs: alloc.num_vcs,
            escape_layers: alloc.escape_layers,
            occupancy: alloc.occupancy,
            balance_moves: alloc.balance_moves,
            balance_capped: alloc.balance_capped,
        })
    }
}

/// The allocator as it was before the incremental CDG: every placement
/// clones the layer's CDG and re-runs a full cycle search, and every balance
/// candidate rebuilds the destination VC's CDG from its members.
pub fn reference_allocate_vcs(
    table: &RoutingTable,
    total_vcs: usize,
    seed: u64,
) -> Result<Decisions, PipelineError> {
    assert!(total_vcs >= 1);
    let mut rng = SmallRng::seed_from_u64(seed);

    // Layered escape partition (DFSSSP/LASH style), built greedily: flows
    // are considered one at a time (longest paths first — they constrain
    // the CDG the most — with seeded random tie-breaking) and each flow is
    // placed in the lowest layer whose channel dependency graph stays
    // acyclic after adding the flow's path.  Ordered maps keep the
    // procedure deterministic for a given seed.
    let paths: BTreeMap<Flow, Vec<usize>> = table
        .flows()
        .map(|(f, p)| (f, p.iter().map(|&r| usize::from(r)).collect()))
        .collect();
    let mut order: Vec<Flow> = paths.keys().copied().collect();
    {
        // Seeded shuffle, then stable sort by descending path length.
        for i in (1..order.len()).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        order.sort_by_key(|f| std::cmp::Reverse(paths[f].len()));
    }
    let mut layer_of: BTreeMap<Flow, usize> = BTreeMap::new();
    let mut layer_cdgs: Vec<ChannelDependencyGraph> = vec![ChannelDependencyGraph::new()];
    for flow in &order {
        let path = paths[flow].as_slice();
        let mut placed = false;
        for (layer, cdg) in layer_cdgs.iter_mut().enumerate() {
            let mut tentative = cdg.clone();
            tentative.add_path(path);
            if tentative.is_acyclic() {
                *cdg = tentative;
                layer_of.insert(*flow, layer);
                placed = true;
                break;
            }
        }
        if !placed {
            let mut cdg = ChannelDependencyGraph::new();
            cdg.add_path(path);
            layer_cdgs.push(cdg);
            layer_of.insert(*flow, layer_cdgs.len() - 1);
        }
    }
    let num_layers = layer_cdgs.len();

    if num_layers > total_vcs {
        return Err(PipelineError::VcBudgetExceeded {
            needed: num_layers,
            budget: total_vcs,
        });
    }

    // Balance: flows may move from their escape layer to any *higher* VC
    // index as long as that VC's CDG stays acyclic.  Greedily move flows
    // from the most occupied VC to the least occupied higher-indexed VC.
    let mut assignment: BTreeMap<Flow, usize> = layer_of.clone();
    let weight = |f: &Flow| (paths[f].len() - 1) as f64;
    let mut occupancy = vec![0.0f64; total_vcs];
    for (f, &vc) in &assignment {
        occupancy[vc] += weight(f);
    }
    // Spread into unused upper VCs.
    let mut improved = true;
    let mut guard = 0usize;
    let mut balance_moves = 0usize;
    while improved && guard < 10_000 {
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
        let mut candidates: Vec<Flow> = assignment
            .iter()
            .filter(|(f, &vc)| vc == hot_vc && layer_of[f] <= cold_vc)
            .map(|(f, _)| *f)
            .collect();
        candidates.sort();
        for f in candidates {
            let w = weight(&f);
            // Moving must actually reduce the imbalance.
            if occupancy[hot_vc] - w < occupancy[cold_vc] + w - 1e-9 {
                continue;
            }
            // Check acyclicity of the destination VC with the flow added.
            let members: Vec<Flow> = assignment
                .iter()
                .filter(|(_, &vc)| vc == cold_vc)
                .map(|(f2, _)| *f2)
                .chain(std::iter::once(f))
                .collect();
            let cdg =
                ChannelDependencyGraph::from_paths(members.iter().map(|m| paths[m].as_slice()));
            if cdg.is_acyclic() {
                assignment.insert(f, cold_vc);
                occupancy[hot_vc] -= w;
                occupancy[cold_vc] += w;
                balance_moves += 1;
                improved = true;
                break;
            }
        }
    }

    let num_vcs = assignment.values().copied().max().unwrap_or(0) + 1;
    Ok(Decisions {
        assignment,
        num_vcs,
        escape_layers: num_layers,
        occupancy,
        balance_moves,
        balance_capped: improved,
    })
}
