//! The cycle-driven network simulator core.
//!
//! [`NetworkSim::run`] executes on a precompiled flat representation of
//! the network (see [`crate::compile`]) that turns per-packet routing
//! table lookups into dense array walks.  The original scan-based
//! implementation is kept as [`NetworkSim::run_reference`], the test
//! oracle; both paths consume the same injection stream and produce
//! bit-identical [`SimReport`]s, which the equivalence proptests assert.

use crate::activity::{ActivityProfile, LinkActivity, RouterActivity};
use crate::compile::CompiledNetwork;
use crate::config::SimConfig;
use crate::inject::InjectionSchedule;
use crate::stats::LatencyStats;
use netsmith_route::Flow;
use netsmith_route::{RoutingTable, VcAllocation};
use netsmith_topo::traffic::TrafficPattern;
use netsmith_topo::{RouterId, Topology};
use netsmith_trace::{Trace, TraceCursor};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};

/// A packet in flight (reference path only; the compiled path keeps flat
/// per-field arrays instead).
#[derive(Debug, Clone)]
struct Packet {
    src: RouterId,
    dst: RouterId,
    flits: usize,
    vc: usize,
    created: u64,
}

/// A packet resident in a router's input buffer, ready to arbitrate for its
/// next output from `ready_at` onwards.  `in_link` identifies the incoming
/// channel whose VC buffer the packet occupies (None for freshly injected
/// packets, which sit in the source queue instead).
#[derive(Debug, Clone)]
struct Resident {
    packet: Packet,
    ready_at: u64,
    in_link: usize,
}

/// The SplitMix64 output finalizer: a cheap, full-avalanche bijection on
/// `u64` (Steele, Lea & Flood, OOPSLA 2014).  Used to derive per-load-point
/// RNG seeds that differ in every bit even for adjacent load values.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Seed for one simulation run: the configured base seed mixed with the
/// *exact bits* of the offered load.
///
/// The previous scheme (`seed ^ (rate * 1e6) as u64`) truncated the rate to
/// an integer microflit count, so load points closer than 1e-6 collided and
/// nearby points differed in only a couple of low bits.  Hashing
/// `f64::to_bits` through [`splitmix64`] makes every distinct load value an
/// independent stream.  Changing the derivation intentionally changes every
/// simulated sample; the pinned values live in `seed_mixing` tests.
#[inline]
pub fn point_seed(seed: u64, offered_flits_per_node_cycle: f64) -> u64 {
    splitmix64(seed ^ splitmix64(offered_flits_per_node_cycle.to_bits()))
}

/// One epoch of the compiled engine's epoch probe: the measurement window
/// sliced at [`SimConfig::epoch_cycles`] intervals.  Attribution follows
/// the window counters: injections count in the epoch of their injection
/// cycle, accepted flits in the epoch their packet arrives, and latency
/// samples in the epoch the packet was *created* (the "requests issued in
/// this interval" view a serving-style consumer wants).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochSample {
    /// First cycle of the epoch (absolute, includes warmup offset).
    pub start_cycle: u64,
    /// One past the last cycle of the epoch (clamped to the window end).
    pub end_cycle: u64,
    /// Flits injected during the epoch.
    pub injected_flits: u64,
    /// Flits whose packets were ejected during the epoch.
    pub accepted_flits: u64,
    /// Measured packets (created in this epoch) ejected so far.
    pub packets_ejected: u64,
    /// Mean latency of measured packets created in this epoch (cycles).
    pub mean_latency_cycles: f64,
    /// 95th-percentile latency of measured packets created in this epoch.
    pub p95_latency_cycles: f64,
    /// Total flits resident in VC buffers when the epoch ended (an
    /// instantaneous occupancy snapshot, not a window average).
    pub buffered_flits: u64,
}

/// The epoch probe's time-series over the measurement window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochSeries {
    /// The configured epoch length in cycles.
    pub epoch_cycles: u64,
    pub samples: Vec<EpochSample>,
}

/// Final report of a single simulation run at a fixed injection rate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Offered load in flits per node per cycle.  Under Bernoulli
    /// injection this is the generator's target probability; under trace
    /// replay it is the *requested* replay rate the trace's issue cycles
    /// were stretched to (see [`NetworkSimBuilder::trace`]), which the
    /// discrete stretched schedule then tracks modulo rounding.
    pub offered_flits_per_node_cycle: f64,
    /// Traffic actually generated during the measurement window, in flits
    /// per node per cycle.  Tracks the offered load (modulo sampling
    /// noise) on a healthy network, but drops below it when routers are
    /// failed — their traffic disappears with them — or when a pattern
    /// sends some sources nothing.  Under trace replay this is exact, not
    /// sampled: the window's scheduled trace flits, minus any masked out
    /// by failed endpoints.
    pub injected_flits_per_node_cycle: f64,
    /// Accepted throughput in flits per node per cycle (measured window).
    pub accepted_flits_per_node_cycle: f64,
    /// Average end-to-end packet latency in cycles (source-queue time
    /// included).
    pub avg_latency_cycles: f64,
    /// 95th-percentile latency in cycles.
    pub p95_latency_cycles: f64,
    /// 99th-percentile latency in cycles.
    pub p99_latency_cycles: f64,
    /// Average packet latency in nanoseconds at the configured clock.
    pub avg_latency_ns: f64,
    /// Packets injected during the measurement window.
    pub packets_injected: u64,
    /// Packets ejected during the measurement window.
    pub packets_ejected: u64,
    /// Measured packets still stuck in the network or source queues when
    /// the drain budget expired.
    pub packets_unfinished: u64,
    /// Average link utilization (flit-cycles used / link-cycles available)
    /// over the measurement window.
    pub avg_link_utilization: f64,
    /// Per-directed-link and per-router activity measured over the window;
    /// the input to measured power reports and energy policies.
    pub activity: ActivityProfile,
    /// Per-epoch time-series over the measurement window, present when
    /// [`SimConfig::epoch_cycles`] is non-zero and the compiled engine ran
    /// (the reference engine never fills it).
    pub epochs: Option<EpochSeries>,
    /// The full latency histogram the percentiles above were computed
    /// from.  Carrying the histogram lets a caller aggregate many runs
    /// (e.g. the epochs of a serving horizon) with
    /// [`LatencyStats::merge`] and extract *exact* horizon-level
    /// p95/p99 instead of a mean of per-run percentiles.
    pub latency: LatencyStats,
}

impl SimReport {
    /// A crude but robust saturation indicator: the network is saturated
    /// when it visibly fails to deliver the offered load or latency has
    /// exploded relative to an uncongested network.  A small absolute slack
    /// keeps low-load points (where the finite measurement window introduces
    /// sampling noise) from being misclassified.
    ///
    /// The delivery reference is the *injected* rate where that is lower
    /// than the offered one: traffic that was never generated — because a
    /// failed router's endpoints are masked out, or a permutation pattern
    /// leaves some sources silent — is not a delivery shortfall.
    pub fn is_saturated(&self, zero_load_latency_cycles: f64) -> bool {
        let reference = self
            .offered_flits_per_node_cycle
            .min(self.injected_flits_per_node_cycle);
        let delivery_shortfall = self.accepted_flits_per_node_cycle < 0.85 * reference - 0.01;
        let latency_blowup = self.avg_latency_cycles > 6.0 * zero_load_latency_cycles.max(1.0);
        delivery_shortfall || latency_blowup
    }

    /// Fraction of the traffic actually generated in the window that was
    /// also delivered in it: `accepted / injected` (1.0 when nothing was
    /// injected).  The denominator is the *injected* rate, not the offered
    /// one, so the measure has the same meaning under Bernoulli injection
    /// and under trace replay: traffic never generated (failed endpoints,
    /// silent sources, a trace quieter than requested) does not count as
    /// loss.  Sits near 1 below saturation and degrades past it.
    pub fn delivered_fraction(&self) -> f64 {
        if self.injected_flits_per_node_cycle <= 0.0 {
            1.0
        } else {
            (self.accepted_flits_per_node_cycle / self.injected_flits_per_node_cycle).min(1.0)
        }
    }
}

/// Typed builder for [`NetworkSim`] (replaces the old positional
/// `NetworkSim::new(topo, table, vcs, pattern, config)` constructor).
///
/// ```ignore
/// let sim = NetworkSim::builder(&topo, &table)
///     .vcs(&alloc)
///     .pattern(TrafficPattern::UniformRandom)
///     .config(SimConfig::quick())
///     .build();
/// ```
pub struct NetworkSimBuilder<'a> {
    topo: &'a Topology,
    table: &'a RoutingTable,
    vcs: Option<&'a VcAllocation>,
    pattern: TrafficPattern,
    trace: Option<Arc<Trace>>,
    config: SimConfig,
    failed: Vec<RouterId>,
}

impl<'a> NetworkSimBuilder<'a> {
    /// Use a deadlock-free VC allocation.  Without one every packet uses
    /// VC 0 — acceptable for acyclic routing functions only.
    pub fn vcs(mut self, vcs: &'a VcAllocation) -> Self {
        self.vcs = Some(vcs);
        self
    }

    /// Synthetic traffic pattern (default: [`TrafficPattern::UniformRandom`]).
    /// Ignored when a [`NetworkSimBuilder::trace`] is set.
    pub fn pattern(mut self, pattern: TrafficPattern) -> Self {
        self.pattern = pattern;
        self
    }

    /// Replay a recorded message trace instead of Bernoulli injection.
    ///
    /// The run's offered load selects the replay rate: the trace's issue
    /// cycles are stretched by `native_load / offered_load` (preserving
    /// burst structure rather than resampling it) and the schedule wraps
    /// past the trace horizon, so any measurement window length works.
    /// Trace injection draws no RNG: a run is fully determined by
    /// `(trace, offered load)`, and the reference and compiled engines
    /// stay bit-identical under replay.  The trace must be defined over
    /// exactly this topology's router count, and messages wider than
    /// [`SimConfig::vc_buffer_flits`](crate::SimConfig) can never obtain
    /// credits at an intermediate hop — keep trace message sizes within
    /// the VC buffer depth (the bundled generators do).
    pub fn trace(mut self, trace: Arc<Trace>) -> Self {
        assert_eq!(
            trace.header.routers as usize,
            self.topo.num_routers(),
            "trace router count must match the topology"
        );
        self.trace = Some(trace);
        self
    }

    /// Simulator configuration (default: [`SimConfig::default`]).
    pub fn config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Mark routers as failed up front; equivalent to
    /// [`NetworkSim::with_failed_routers`] after `build()`.
    pub fn failed_routers(mut self, failed: &[RouterId]) -> Self {
        self.failed.extend_from_slice(failed);
        self
    }

    /// Build the simulator.  The flat network representation is compiled
    /// lazily on the first `run` call; use [`NetworkSimBuilder::compile`]
    /// to pay that cost eagerly instead.
    pub fn build(self) -> NetworkSim<'a> {
        assert_eq!(self.table.num_routers(), self.topo.num_routers());
        let mut alive = vec![true; self.topo.num_routers()];
        for &r in &self.failed {
            alive[r] = false;
        }
        NetworkSim {
            topo: self.topo,
            table: self.table,
            vcs: self.vcs,
            pattern: self.pattern,
            trace: self.trace,
            config: self.config,
            alive,
            compiled: OnceLock::new(),
        }
    }

    /// Build the simulator and compile the flat network representation
    /// immediately (useful when the construction cost should not be
    /// attributed to the first of many `run` calls in a sweep).
    pub fn compile(self) -> NetworkSim<'a> {
        let sim = self.build();
        let _ = sim.compiled();
        sim
    }
}

/// The simulator.
pub struct NetworkSim<'a> {
    pub(crate) topo: &'a Topology,
    pub(crate) table: &'a RoutingTable,
    pub(crate) vcs: Option<&'a VcAllocation>,
    pub(crate) pattern: TrafficPattern,
    /// When set, traffic comes from replaying this trace instead of the
    /// Bernoulli generator over `pattern` (see [`NetworkSimBuilder::trace`]).
    pub(crate) trace: Option<Arc<Trace>>,
    pub(crate) config: SimConfig,
    /// Routers that inject and eject traffic.  Failed routers (cleared
    /// bits) neither source packets nor get sampled as destinations, which
    /// is how a workload runs on a degraded topology: the fault layer
    /// removes the dead router's links from the topology/routing, and this
    /// mask removes its traffic endpoints.
    pub(crate) alive: Vec<bool>,
    /// Flat representation shared by every `run` call; compiled once per
    /// `(topology, table, vcs)` and reused across all load points of a
    /// sweep.  Independent of the `alive` mask, which only gates traffic
    /// generation.
    compiled: OnceLock<CompiledNetwork>,
}

impl<'a> NetworkSim<'a> {
    /// Start building a simulator for a topology and a routing table.
    pub fn builder(topo: &'a Topology, table: &'a RoutingTable) -> NetworkSimBuilder<'a> {
        NetworkSimBuilder {
            topo,
            table,
            vcs: None,
            pattern: TrafficPattern::UniformRandom,
            trace: None,
            config: SimConfig::default(),
            failed: Vec::new(),
        }
    }

    /// Mark routers as failed: they stop injecting packets and traffic
    /// addressed to them is dropped at the source (the cores behind a dead
    /// router are offline, so their load disappears with them).  The caller
    /// supplies the degraded topology and a routing table covering the
    /// surviving pairs — typically from `netsmith-fault`'s repair policy.
    pub fn with_failed_routers(mut self, failed: &[RouterId]) -> Self {
        for &r in failed {
            self.alive[r] = false;
        }
        self
    }

    /// The simulator configuration (clock, packet mix, windows).
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The compiled flat representation of `(topology, table, vcs)`,
    /// building it on first use.
    pub fn compiled(&self) -> &CompiledNetwork {
        self.compiled
            .get_or_init(|| CompiledNetwork::compile(self.topo, self.table, self.vcs, &self.config))
    }

    /// Zero-load latency estimate in cycles: average hops times the per-hop
    /// delay (router + link) plus average serialization.
    pub fn zero_load_latency_cycles(&self) -> f64 {
        let hops = self.table.average_hops();
        let per_hop = (self.config.router_latency + self.config.link_latency) as f64;
        hops * per_hop + self.config.average_flits()
    }

    /// Run the simulation at an offered load expressed in flits per node
    /// per cycle, on the compiled flat state machine.
    pub fn run(&self, offered_flits_per_node_cycle: f64) -> SimReport {
        crate::compile::run_flat(self, self.compiled(), offered_flits_per_node_cycle)
    }

    /// The scan-based simulation loop: a direct, per-cycle statement of
    /// the model, kept as the executable specification the compiled path
    /// is tested against — see the `compiled_equivalence` proptests.  It
    /// consumes the same injection schedule (seeded through
    /// [`point_seed`]) or trace cursor as [`NetworkSim::run`].  Prefer
    /// [`NetworkSim::run`].
    pub fn run_reference(&self, offered_flits_per_node_cycle: f64) -> SimReport {
        let cfg = &self.config;
        let n = self.topo.num_routers();
        let layout = self.topo.layout().clone();
        // Trace replay schedule, when this run replays a trace instead of
        // sampling Bernoulli traffic.
        let mut trace_cursor = self
            .trace
            .as_deref()
            .map(|t| TraceCursor::new(t, offered_flits_per_node_cycle));
        // Precomputed per-source injection schedule for Bernoulli traffic.
        // Identical construction to the compiled engine, so both drain the
        // same event sequence.
        let mut schedule = self
            .trace
            .is_none()
            .then(|| InjectionSchedule::for_run(cfg, offered_flits_per_node_cycle, &self.alive));

        let links: Vec<(RouterId, RouterId)> = self.topo.links().collect();
        let mut link_free_at: Vec<u64> = vec![0; links.len()];
        // Windowed activity accounting (measurement cycles only).
        let mut link_flits: Vec<u64> = vec![0; links.len()];
        let mut link_busy_cycles: Vec<u64> = vec![0; links.len()];
        let mut router_flits: Vec<u64> = vec![0; n];
        let mut router_active_cycles: Vec<u64> = vec![0; n];
        let mut router_last_active: Vec<u64> = vec![u64::MAX; n];
        let mut router_buffered_flits: Vec<u64> = vec![0; n];
        let mut router_buffer_flit_cycles: Vec<u64> = vec![0; n];

        // Per-incoming-channel, per-VC buffer occupancy in flits.  Buffers
        // are per channel (not per router) so the Dally & Seitz argument —
        // acyclic per-VC channel dependency graph implies deadlock freedom —
        // carries over to the simulated resource model.
        let mut vc_occupancy: Vec<Vec<usize>> = vec![vec![0; cfg.num_vcs]; links.len()];
        // Packets resident in router buffers.
        let mut residents: Vec<Vec<Resident>> = vec![Vec::new(); n];
        // Source (injection) queues.
        let mut source_queues: Vec<VecDeque<Packet>> = vec![VecDeque::new(); n];

        let total_cycles = cfg.warmup_cycles + cfg.measure_cycles + cfg.drain_cycles;
        let measure_start = cfg.warmup_cycles;
        let measure_end = cfg.warmup_cycles + cfg.measure_cycles;

        let mut stats = LatencyStats::new();
        let mut packets_injected = 0u64;
        let mut packets_ejected = 0u64;
        let mut flits_injected_in_window = 0u64;
        let mut flits_ejected_in_window = 0u64;
        let mut measured_outstanding: u64 = 0;

        for cycle in 0..total_cycles {
            let in_window = cycle >= measure_start && cycle < measure_end;
            // 0. Buffer-occupancy sampling for the router activity profile.
            if in_window {
                for (r, &buffered) in router_buffered_flits.iter().enumerate() {
                    router_buffer_flit_cycles[r] += buffered;
                }
            }
            // 1. Traffic generation (stops after the measurement window so
            //    the drain phase can empty the network).
            if cycle < measure_end {
                if let Some(cursor) = trace_cursor.as_mut() {
                    // Trace replay: drain every message due this cycle, in
                    // trace order.  Messages whose endpoints are masked out
                    // by failed routers are dropped at the source, exactly
                    // like the Bernoulli path's alive checks.
                    while let Some(m) = cursor.pop_due(cycle) {
                        let (src, dst) = (m.src as usize, m.dst as usize);
                        if !self.alive[src] || !self.alive[dst] {
                            continue;
                        }
                        let vc = self
                            .vcs
                            .and_then(|a| a.get(Flow::new(src, dst)))
                            .unwrap_or(0)
                            .min(cfg.num_vcs - 1);
                        let packet = Packet {
                            src,
                            dst,
                            flits: m.flits as usize,
                            vc,
                            created: cycle,
                        };
                        if cycle >= measure_start {
                            packets_injected += 1;
                            flits_injected_in_window += packet.flits as u64;
                            measured_outstanding += 1;
                        }
                        source_queues[src].push_back(packet);
                    }
                } else if let Some(sched) = schedule.as_mut() {
                    // Drain the precomputed arrivals due this cycle
                    // (destination and class already drawn and validated
                    // inside the schedule).
                    while let Some(ev) = sched.pop_due(cycle, &self.pattern, &layout, &self.alive) {
                        let (src, dst) = (ev.src as usize, ev.dst as usize);
                        let vc = self
                            .vcs
                            .and_then(|a| a.get(Flow::new(src, dst)))
                            .unwrap_or(0)
                            .min(cfg.num_vcs - 1);
                        let packet = Packet {
                            src,
                            dst,
                            flits: ev.flits as usize,
                            vc,
                            created: cycle,
                        };
                        if cycle >= measure_start {
                            packets_injected += 1;
                            flits_injected_in_window += packet.flits as u64;
                            measured_outstanding += 1;
                        }
                        source_queues[src].push_back(packet);
                    }
                }
            }

            // 2. Link/switch allocation: for every output link, pick the
            //    oldest eligible packet among the router's residents and the
            //    head of its source queue.
            for (idx, &(from, to)) in links.iter().enumerate() {
                if link_free_at[idx] > cycle {
                    continue;
                }
                // Candidate from the resident buffers.
                let mut best: Option<(u64, usize, bool)> = None; // (created, index, from_source)
                for (ri, r) in residents[from].iter().enumerate() {
                    if r.ready_at > cycle {
                        continue;
                    }
                    let next = self.table.next_hop(r.packet.src, r.packet.dst, from);
                    if next == Some(to)
                        && best.is_none_or(|(created, _, _)| r.packet.created < created)
                    {
                        best = Some((r.packet.created, ri, false));
                    }
                }
                // Candidate from the source queue head.
                if let Some(head) = source_queues[from].front() {
                    if head.src == from {
                        let next = self.table.next_hop(head.src, head.dst, from);
                        if next == Some(to)
                            && best.is_none_or(|(created, _, _)| head.created < created)
                        {
                            best = Some((head.created, 0, true));
                        }
                    }
                }
                let Some((_, ri, from_source)) = best else {
                    continue;
                };
                // Peek the packet to check downstream space.
                let packet = if from_source {
                    source_queues[from].front().unwrap().clone()
                } else {
                    residents[from][ri].packet.clone()
                };
                let ejecting = to == packet.dst;
                if !ejecting {
                    // The packet will occupy the VC buffer at the downstream
                    // end of *this* link.
                    let occ = vc_occupancy[idx][packet.vc];
                    if occ + packet.flits > cfg.vc_buffer_flits {
                        continue; // no credits downstream
                    }
                }
                // Commit the move.
                if from_source {
                    source_queues[from].pop_front();
                } else {
                    let freed = residents[from].swap_remove(ri);
                    vc_occupancy[freed.in_link][packet.vc] =
                        vc_occupancy[freed.in_link][packet.vc].saturating_sub(packet.flits);
                    router_buffered_flits[from] =
                        router_buffered_flits[from].saturating_sub(packet.flits as u64);
                }
                let serialization = packet.flits as u64;
                link_free_at[idx] = cycle + serialization;
                if in_window {
                    link_flits[idx] += serialization;
                    link_busy_cycles[idx] += serialization.min(measure_end - cycle);
                    router_flits[from] += serialization;
                    if router_last_active[from] != cycle {
                        router_last_active[from] = cycle;
                        router_active_cycles[from] += 1;
                    }
                }
                let arrival = cycle + cfg.link_latency + serialization + cfg.router_latency;
                if ejecting {
                    // Ejected at the destination.
                    let latency = (arrival - packet.created) as f64;
                    let measured = packet.created >= measure_start && packet.created < measure_end;
                    if measured {
                        stats.record(latency);
                        packets_ejected += 1;
                        measured_outstanding = measured_outstanding.saturating_sub(1);
                    }
                    if arrival >= measure_start && arrival < measure_end {
                        flits_ejected_in_window += packet.flits as u64;
                    }
                } else {
                    vc_occupancy[idx][packet.vc] += packet.flits;
                    router_buffered_flits[to] += packet.flits as u64;
                    residents[to].push(Resident {
                        packet,
                        ready_at: arrival,
                        in_link: idx,
                    });
                }
            }
        }

        let measure_cycles = cfg.measure_cycles as f64;
        let injected = flits_injected_in_window as f64 / (n as f64 * measure_cycles);
        let accepted = flits_ejected_in_window as f64 / (n as f64 * measure_cycles);
        let activity = ActivityProfile {
            measured_cycles: cfg.measure_cycles,
            links: links
                .iter()
                .enumerate()
                .map(|(idx, &(from, to))| LinkActivity {
                    from,
                    to,
                    flits: link_flits[idx],
                    busy_cycles: link_busy_cycles[idx],
                })
                .collect(),
            routers: (0..n)
                .map(|r| RouterActivity {
                    router: r,
                    flits_forwarded: router_flits[r],
                    active_cycles: router_active_cycles[r],
                    buffer_flit_cycles: router_buffer_flit_cycles[r],
                })
                .collect(),
        };
        let avg_latency_cycles = stats.mean();
        SimReport {
            offered_flits_per_node_cycle,
            injected_flits_per_node_cycle: injected,
            accepted_flits_per_node_cycle: accepted,
            avg_latency_cycles,
            p95_latency_cycles: stats.percentile(0.95),
            p99_latency_cycles: stats.percentile(0.99),
            avg_latency_ns: cfg.cycles_to_ns(avg_latency_cycles),
            packets_injected,
            packets_ejected,
            packets_unfinished: measured_outstanding,
            avg_link_utilization: activity.avg_link_utilization(),
            activity,
            epochs: None,
            latency: stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsmith_route::paths::all_shortest_paths;
    use netsmith_route::{allocate_vcs, mclb_route, MclbConfig};
    use netsmith_topo::expert;
    use netsmith_topo::Layout;

    fn setup(topo: &Topology) -> (RoutingTable, VcAllocation) {
        let ps = all_shortest_paths(topo);
        let table = mclb_route(&ps, &MclbConfig::default());
        let alloc = allocate_vcs(&table, 6, 42).expect("fits in 6 VCs");
        (table, alloc)
    }

    #[test]
    fn low_load_latency_is_near_zero_load_estimate() {
        let mesh = expert::mesh(&Layout::noi_4x5());
        let (table, alloc) = setup(&mesh);
        let sim = NetworkSim::builder(&mesh, &table)
            .vcs(&alloc)
            .config(SimConfig::quick())
            .build();
        let zero = sim.zero_load_latency_cycles();
        let report = sim.run(0.02);
        assert!(report.packets_ejected > 0);
        assert!(
            report.avg_latency_cycles < 2.5 * zero,
            "latency {} vs zero-load {zero}",
            report.avg_latency_cycles
        );
        assert!(!report.is_saturated(zero));
    }

    #[test]
    fn packets_are_conserved_at_low_load() {
        let torus = expert::folded_torus(&Layout::noi_4x5());
        let (table, alloc) = setup(&torus);
        let sim = NetworkSim::builder(&torus, &table)
            .vcs(&alloc)
            .config(SimConfig::quick())
            .build();
        let report = sim.run(0.05);
        // At 5% load with a generous drain window every measured packet
        // must make it out.
        assert_eq!(
            report.packets_ejected + report.packets_unfinished,
            report.packets_injected
        );
        assert_eq!(report.packets_unfinished, 0, "packets stuck at low load");
    }

    #[test]
    fn high_load_saturates_and_throughput_plateaus() {
        let mesh = expert::mesh(&Layout::noi_4x5());
        let (table, alloc) = setup(&mesh);
        let sim = NetworkSim::builder(&mesh, &table)
            .vcs(&alloc)
            .config(SimConfig::quick())
            .build();
        let zero = sim.zero_load_latency_cycles();
        let light = sim.run(0.05);
        let heavy = sim.run(0.9);
        assert!(heavy.avg_latency_cycles > light.avg_latency_cycles);
        assert!(heavy.is_saturated(zero));
        // Accepted throughput can never exceed offered.
        assert!(heavy.accepted_flits_per_node_cycle <= heavy.offered_flits_per_node_cycle + 1e-9);
        assert!(heavy.accepted_flits_per_node_cycle < 0.9);
    }

    #[test]
    fn better_topologies_accept_more_traffic() {
        let layout = Layout::noi_4x5();
        let mesh = expert::mesh(&layout);
        let torus = expert::folded_torus(&layout);
        let load = 0.6;
        let mut accepted = Vec::new();
        for topo in [&mesh, &torus] {
            let (table, alloc) = setup(topo);
            let sim = NetworkSim::builder(topo, &table)
                .vcs(&alloc)
                .config(SimConfig::quick())
                .build();
            accepted.push(sim.run(load).accepted_flits_per_node_cycle);
        }
        assert!(
            accepted[1] > accepted[0],
            "folded torus {} should out-deliver mesh {}",
            accepted[1],
            accepted[0]
        );
    }

    #[test]
    fn deterministic_for_a_seed() {
        let mesh = expert::mesh(&Layout::noi_4x5());
        let (table, alloc) = setup(&mesh);
        let sim = NetworkSim::builder(&mesh, &table)
            .vcs(&alloc)
            .config(SimConfig::quick())
            .build();
        let a = sim.run(0.2);
        let b = sim.run(0.2);
        assert_eq!(a, b);
    }

    #[test]
    fn eager_compile_matches_lazy() {
        let mesh = expert::mesh(&Layout::noi_4x5());
        let (table, alloc) = setup(&mesh);
        let lazy = NetworkSim::builder(&mesh, &table)
            .vcs(&alloc)
            .config(SimConfig::quick())
            .build();
        let eager = NetworkSim::builder(&mesh, &table)
            .vcs(&alloc)
            .config(SimConfig::quick())
            .compile();
        assert_eq!(lazy.run(0.2), eager.run(0.2));
    }

    #[test]
    fn activity_profile_is_consistent_with_the_report() {
        let mesh = expert::mesh(&Layout::noi_4x5());
        let (table, alloc) = setup(&mesh);
        let sim = NetworkSim::builder(&mesh, &table)
            .vcs(&alloc)
            .config(SimConfig::quick())
            .build();
        let report = sim.run(0.2);
        let activity = &report.activity;
        // One entry per directed link and per router.
        assert_eq!(activity.links.len(), mesh.num_directed_links());
        assert_eq!(activity.routers.len(), mesh.num_routers());
        // The scalar utilization is exactly the profile's average.
        assert!((report.avg_link_utilization - activity.avg_link_utilization()).abs() < 1e-12);
        assert!(activity.avg_link_utilization() > 0.0);
        // Busy cycles never exceed the window, flits move somewhere.
        for l in &activity.links {
            assert!(l.busy_cycles <= activity.measured_cycles);
            assert!(mesh.has_link(l.from, l.to));
        }
        assert!(activity.total_link_flits() > 0);
        // Every forwarded flit is attributed to the router driving the link.
        let link_total: u64 = activity.links.iter().map(|l| l.flits).sum();
        let router_total: u64 = activity.routers.iter().map(|r| r.flits_forwarded).sum();
        assert_eq!(link_total, router_total);
        // Under uniform traffic at a moderate load some router buffers
        // must have been occupied during the window.
        assert!(activity.routers.iter().any(|r| r.buffer_flit_cycles > 0));
    }

    #[test]
    fn failed_routers_neither_inject_nor_receive() {
        let mesh = expert::mesh(&Layout::noi_4x5());
        let (table, alloc) = setup(&mesh);
        let dead = 7usize;
        let sim = NetworkSim::builder(&mesh, &table)
            .vcs(&alloc)
            .config(SimConfig::quick())
            .build()
            .with_failed_routers(&[dead]);
        let report = sim.run(0.1);
        assert!(report.packets_ejected > 0, "survivors must keep talking");
        // Nothing is ever buffered *for* the dead router as a destination,
        // so the links into it carry only through-traffic the routing table
        // chose; with uniform traffic and a dead endpoint the router still
        // forwards, but it must never eject or source packets.  The
        // simulator models that by dropping its traffic at the sources, so
        // delivered throughput stays below the healthy run's.
        let healthy = NetworkSim::builder(&mesh, &table)
            .vcs(&alloc)
            .config(SimConfig::quick())
            .build()
            .run(0.1);
        assert!(report.packets_injected < healthy.packets_injected);
    }

    #[test]
    fn builder_failed_routers_match_with_failed_routers() {
        let mesh = expert::mesh(&Layout::noi_4x5());
        let (table, alloc) = setup(&mesh);
        let via_builder = NetworkSim::builder(&mesh, &table)
            .vcs(&alloc)
            .config(SimConfig::quick())
            .failed_routers(&[3, 12])
            .build()
            .run(0.1);
        let via_method = NetworkSim::builder(&mesh, &table)
            .vcs(&alloc)
            .config(SimConfig::quick())
            .build()
            .with_failed_routers(&[3, 12])
            .run(0.1);
        assert_eq!(via_builder, via_method);
    }

    #[test]
    fn masked_traffic_is_not_mistaken_for_saturation() {
        // Two dead routers structurally drop ~19% of uniform traffic at
        // the sources.  That missing traffic is not a delivery shortfall:
        // an uncongested degraded fabric must not read as saturated.
        let mesh = expert::mesh(&Layout::noi_4x5());
        let (table, alloc) = setup(&mesh);
        let sim = NetworkSim::builder(&mesh, &table)
            .vcs(&alloc)
            .config(SimConfig::quick())
            .build()
            .with_failed_routers(&[3, 12]);
        let zero = sim.zero_load_latency_cycles();
        let report = sim.run(0.25);
        assert!(
            report.injected_flits_per_node_cycle < 0.9 * report.offered_flits_per_node_cycle,
            "masking two routers must visibly reduce generated traffic"
        );
        assert!(
            !report.is_saturated(zero),
            "accepted {} vs offered {} misread as saturation",
            report.accepted_flits_per_node_cycle,
            report.offered_flits_per_node_cycle
        );
    }

    #[test]
    fn delivered_fraction_degrades_past_saturation() {
        let mesh = expert::mesh(&Layout::noi_4x5());
        let (table, alloc) = setup(&mesh);
        let sim = NetworkSim::builder(&mesh, &table)
            .vcs(&alloc)
            .config(SimConfig::quick())
            .build();
        // Low load: essentially everything injected is delivered.
        let light = sim.run(0.05);
        assert!(
            light.delivered_fraction() > 0.95,
            "{}",
            light.delivered_fraction()
        );
        // Far past the mesh's saturation point the injected and accepted
        // rates diverge, and the fraction must expose that divergence.
        let heavy = sim.run(0.9);
        assert!(
            heavy.delivered_fraction() < 0.85,
            "delivered {} at 0.9 offered",
            heavy.delivered_fraction()
        );
        assert!(heavy.delivered_fraction() > 0.0);
        // The denominator is the injected rate: consistent by construction.
        assert!(
            (heavy.delivered_fraction()
                - (heavy.accepted_flits_per_node_cycle / heavy.injected_flits_per_node_cycle)
                    .min(1.0))
            .abs()
                < 1e-12
        );
    }

    #[test]
    fn p95_latency_sits_between_mean_and_p99() {
        let mesh = expert::mesh(&Layout::noi_4x5());
        let (table, alloc) = setup(&mesh);
        let sim = NetworkSim::builder(&mesh, &table)
            .vcs(&alloc)
            .config(SimConfig::quick())
            .build();
        let report = sim.run(0.3);
        assert!(report.p95_latency_cycles > 0.0);
        assert!(report.p95_latency_cycles <= report.p99_latency_cycles);
        assert!(report.p95_latency_cycles >= report.avg_latency_cycles * 0.5);
    }

    #[test]
    fn trace_replay_reports_offered_and_injected_rates_consistently() {
        use netsmith_trace::TraceModel;
        let mesh = expert::mesh(&Layout::noi_4x5());
        let (table, alloc) = setup(&mesh);
        // Horizon 100 divides the quick config's 300-cycle warmup and
        // 1500-cycle measurement window, so at the native rate the window
        // covers exactly 15 full replay waves.
        let trace = Arc::new(
            TraceModel::by_name("pointer-chase")
                .unwrap()
                .generate(20, 100, 5),
        );
        let requested = trace.offered_flits_per_node_cycle();
        let sim = NetworkSim::builder(&mesh, &table)
            .vcs(&alloc)
            .trace(Arc::clone(&trace))
            .config(SimConfig::quick())
            .build();
        let report = sim.run(requested);
        // Offered is the requested replay rate verbatim.
        assert_eq!(report.offered_flits_per_node_cycle, requested);
        // Injected is the exact scheduled trace traffic — over whole waves
        // it reproduces the native rate to the ulp, where a Bernoulli
        // sample of the same window would carry percent-level noise.
        assert!(
            (report.injected_flits_per_node_cycle - requested).abs() < 1e-12,
            "injected {} vs requested {requested}",
            report.injected_flits_per_node_cycle
        );
        assert!(report.packets_ejected > 0);
        // Replay draws no RNG: two runs are identical reports.
        assert_eq!(report, sim.run(requested));
    }

    #[test]
    #[should_panic(expected = "trace router count")]
    fn trace_with_wrong_router_count_is_rejected() {
        use netsmith_trace::TraceModel;
        let mesh = expert::mesh(&Layout::noi_4x5());
        let (table, _alloc) = setup(&mesh);
        let trace = Arc::new(
            TraceModel::by_name("onoff-hotspot")
                .unwrap()
                .generate(16, 64, 1),
        );
        let _ = NetworkSim::builder(&mesh, &table).trace(trace);
    }

    #[test]
    fn shuffle_pattern_runs_end_to_end() {
        let layout = Layout::noi_4x5();
        let kite = expert::kite_medium(&layout);
        let (table, alloc) = setup(&kite);
        let sim = NetworkSim::builder(&kite, &table)
            .vcs(&alloc)
            .pattern(TrafficPattern::Shuffle)
            .config(SimConfig::quick())
            .build();
        let report = sim.run(0.1);
        assert!(report.packets_ejected > 0);
    }

    mod seed_mixing {
        use super::super::{point_seed, splitmix64};

        #[test]
        fn nearby_loads_no_longer_collide() {
            // The old `seed ^ (rate * 1e6) as u64` derivation truncated
            // both of these to the same integer (100000), so two distinct
            // load points shared one RNG stream.
            let a = point_seed(0xBEEF, 0.1);
            let b = point_seed(0xBEEF, 0.100_000_000_1);
            assert_ne!(a, b);
            // And neighbouring grid points must be independent streams,
            // not single-bit variations.
            let c = point_seed(0xBEEF, 0.15);
            assert_ne!(a, c);
            assert!((a ^ c).count_ones() > 8);
        }

        #[test]
        fn derivation_is_pinned() {
            // Changing point_seed changes every simulated sample in the
            // repo (figure CSV values, pinned sweep numbers).  These
            // constants pin the intentional PR-6 derivation; do not change
            // them casually.
            assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
            assert_eq!(point_seed(0xBEEF, 0.0), point_seed(0xBEEF, 0.0));
            let pinned: &[(u64, f64, u64)] = &[
                (0xBEEF, 0.1, PIN_BEEF_01),
                (0xBEEF, 0.3, PIN_BEEF_03),
                (20_240_402, 1.0, PIN_EXP_10),
            ];
            for &(seed, load, expect) in pinned {
                assert_eq!(
                    point_seed(seed, load),
                    expect,
                    "point_seed({seed:#x}, {load})"
                );
            }
        }

        // Pinned values for the intentional seed-derivation change.
        const PIN_BEEF_01: u64 = 0xC54D_9356_9504_1A71;
        const PIN_BEEF_03: u64 = 0xC099_7E23_8257_CE06;
        const PIN_EXP_10: u64 = 0x72B4_20EE_1595_9D91;
    }
}
