//! The compiled flat-state simulation engine.
//!
//! [`NetworkSim::run`](crate::NetworkSim::run) lowers the routing table and
//! VC allocation into dense arrays once per `(topology, table, vcs)` and
//! then drives a hot loop built around three levers:
//!
//! * **Batched injection sampling** — under
//!   [`InjectionMode::Schedule`](crate::InjectionMode) (the default),
//!   Bernoulli traffic comes from per-source next-injection schedules
//!   ([`InjectionSchedule`]): geometric inter-arrival gaps are
//!   skip-sampled once per *arrival* instead of one coin per source per
//!   cycle, so an idle cycle draws zero RNG.  Because the injection
//!   stream is then a pure function of `(seed, load)` — independent of
//!   which cycles the engine visits — a commit-free cycle can jump
//!   straight to the next ready/free/due threshold even inside the
//!   measurement window, which is where sub-saturation sweep points spend
//!   most of their cycles.  The reference engine consumes the identical
//!   schedule, so the two stay bit-for-bit equal; the pre-rework
//!   per-cycle coin order survives as `InjectionMode::LegacyCoins`.
//! * **Vectorized candidate scan** — each output link keeps its
//!   candidates as two parallel slabs: a packed `(created << 20) | slot`
//!   tie-break key and a `ready_at` cycle.  Arbitration is a branchless
//!   dual min-reduction over the zipped slices (eligible → min key,
//!   in-flight → min ready), which LLVM turns into straight-line
//!   compare/select code; the packed key makes "oldest, lowest slot" a
//!   single integer `min`, reproducing the reference scan's
//!   first-strictly-older tie-break exactly.
//! * **Deterministic intra-simulation parallelism** — for large networks
//!   ([`ParallelMode`]), the per-cycle
//!   arbitration pass is split in two: a parallel phase A precomputes a
//!   `Decision` per active link on the shared [`WorkerPool`] (helpers only *read*
//!   simulation state), and the sequential phase B replays the links in
//!   ascending id order, consuming a cached decision only when the
//!   per-router `touched` stamps prove no earlier commit invalidated it.
//!   Results are therefore bit-identical for every worker count,
//!   including zero.
//!
//! The engine replays the exact event sequence of the scan-based loop
//! ([`NetworkSim::run_reference`](crate::NetworkSim::run_reference)): the
//! same injection stream, the same winner for every output link, the same
//! mid-cycle visibility of earlier links' commits.  Reports are
//! bit-identical; the `compiled_equivalence` proptests assert that across
//! random topologies, patterns, loads, failure masks, injection modes and
//! worker counts.
//!
//! [`InjectionSchedule`]: crate::inject::InjectionSchedule
//! [`ParallelMode`]: crate::config::ParallelMode
//! [`WorkerPool`]: netsmith_pool::WorkerPool

use crate::activity::{ActivityProfile, LinkActivity, RouterActivity};
use crate::config::{InjectionMode, PacketClass, ParallelMode, SimConfig};
use crate::inject::InjectionSchedule;
use crate::network::{point_seed, EpochSample, EpochSeries, NetworkSim, SimReport};
use crate::stats::LatencyStats;
use netsmith_pool::WorkerPool;
use netsmith_route::paths::path_links;
use netsmith_route::{Flow, RoutingTable, VcAllocation};
use netsmith_topo::{Layout, RouterId, Topology};
use netsmith_trace::TraceCursor;
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Sentinel for "no link": an unrouted flow, an empty source queue, a
/// resident with no physical output (packets on such flows block forever,
/// exactly as under the reference scan).
const NONE: u32 = u32::MAX;

/// Low bits of a packed candidate key holding the slab slot; the high
/// bits hold the creation cycle, so an integer `min` over keys is the
/// lexicographic `(created, slot)` minimum the arbitration needs.
const SLOT_BITS: u32 = 20;
const SLOT_MASK: u64 = (1 << SLOT_BITS) - 1;

/// Links per parallel work chunk: coarse enough to amortize the striding
/// arithmetic, fine enough to balance across helpers.
const PAR_CHUNK: usize = 16;
/// Ceiling on arbitration helpers per simulation; beyond this the
/// per-round hand-off outweighs the extra shards.
const PAR_MAX_HELPERS: usize = 8;
/// Smallest network `ParallelMode::Auto` engages for.
const PAR_MIN_ROUTERS: usize = 48;
/// Under `Auto`, rounds with fewer active links than this stay
/// sequential — the hand-off costs more than the scan.  `Force` always
/// publishes, so the equivalence tests exercise the path on any size.
const PAR_MIN_ACTIVE: usize = 32;

/// The routing table, VC allocation and link structure of one network,
/// lowered to dense index arrays.  Owned (no borrows), built once per
/// `(topology, table, vcs)` and reused across every load point of a sweep.
#[derive(Debug, Clone)]
pub struct CompiledNetwork {
    n: usize,
    /// Directed links in `Topology::links` iteration order; positions are
    /// the link ids every other array is keyed by.
    links: Vec<(RouterId, RouterId)>,
    /// CSR offsets into `hops`, one slot per flow (`src * n + dst`), plus a
    /// final end sentinel.  An empty range means the flow is unrouted.
    path_offsets: Vec<u32>,
    /// Concatenated per-flow paths as link ids.  A `NONE` entry marks a
    /// table hop with no physical link (an invalid table): packets reaching
    /// it stall forever, matching the reference scan.
    hops: Vec<u32>,
    /// Per-flow virtual channel, already clamped to `num_vcs - 1`.
    vc_of_flow: Vec<u32>,
    num_vcs: usize,
}

impl CompiledNetwork {
    /// Lower `(topology, table, vcs)` into the flat representation.
    pub(crate) fn compile(
        topo: &Topology,
        table: &RoutingTable,
        vcs: Option<&VcAllocation>,
        config: &SimConfig,
    ) -> Self {
        let n = topo.num_routers();
        let links: Vec<(RouterId, RouterId)> = topo.links().collect();
        let mut link_id = vec![NONE; n * n];
        for (idx, &(from, to)) in links.iter().enumerate() {
            link_id[from * n + to] = idx as u32;
        }
        let mut path_offsets = Vec::with_capacity(n * n + 1);
        let mut hops = Vec::new();
        let mut vc_of_flow = vec![0u32; n * n];
        path_offsets.push(0u32);
        for src in 0..n {
            for dst in 0..n {
                if let Some(path) = table.path(src, dst) {
                    for (a, b) in path_links(path) {
                        hops.push(link_id[a * n + b]);
                    }
                }
                path_offsets.push(hops.len() as u32);
                vc_of_flow[src * n + dst] = vcs
                    .and_then(|a| a.get(Flow::new(src, dst)))
                    .unwrap_or(0)
                    .min(config.num_vcs - 1) as u32;
            }
        }
        CompiledNetwork {
            n,
            links,
            path_offsets,
            hops,
            vc_of_flow,
            num_vcs: config.num_vcs,
        }
    }

    /// Number of directed links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Number of routed flows.
    pub fn num_routed_flows(&self) -> usize {
        self.path_offsets.windows(2).filter(|w| w[1] > w[0]).count()
    }

    /// Total compiled hop entries across all flows.
    pub fn num_hops(&self) -> usize {
        self.hops.len()
    }

    /// First-hop link of a flow (`NONE` when unrouted).
    #[inline]
    fn first_hop(&self, flow: u32) -> u32 {
        let off = self.path_offsets[flow as usize] as usize;
        let end = self.path_offsets[flow as usize + 1] as usize;
        if off == end {
            NONE
        } else {
            self.hops[off]
        }
    }
}

/// A packet resident in a router's input buffer, flat form.  Slab-stored
/// per router; `cand_pos` back-points into the candidate slabs of
/// `out_link` so both sides update in O(1) under `swap_remove`.
#[derive(Debug, Clone)]
struct FlatResident {
    created: u64,
    ready_at: u64,
    flits: u32,
    vc: u32,
    flow: u32,
    /// Index (within the flow's hop sequence) of the next link to take.
    next_idx: u32,
    /// Link whose downstream VC buffer the packet occupies.
    in_link: u32,
    /// The next link to take (`hops[off + next_idx]`), or `NONE` when the
    /// table has no physical link there (the packet stalls forever).
    out_link: u32,
    /// Position of this resident's entry in the candidate slabs of
    /// `out_link`.
    cand_pos: u32,
}

/// A freshly injected packet waiting in a source queue.
#[derive(Debug, Clone)]
struct FlatPacket {
    created: u64,
    flits: u32,
    vc: u32,
    flow: u32,
}

/// Winner read-out captured by [`St::arbitrate_pre`]: the fields of the
/// winning packet a commit consumes, read while arbitration already has
/// them hot.  `off` is the flow's offset into the hop table and
/// `ejecting` whether this hop is the last.  Default-initialized (and
/// meaningless) for non-commit decisions.
#[derive(Debug, Clone, Copy, Default)]
struct Pre {
    created: u64,
    flits: u32,
    vc: u32,
    flow: u32,
    next_idx: u32,
    in_link: u32,
    off: u32,
    ejecting: bool,
}

/// Hot per-link state: the cycle the link is serializing until, plus the
/// measurement-window activity counters, packed so a commit touches one
/// location per link.  `free_at` is monotone — a link only ever gets
/// busier — which is what makes busy-aware wake-ups (see [`St::wake`])
/// exact.
#[derive(Debug, Clone, Copy)]
struct LinkState {
    free_at: u64,
    flits: u64,
    busy_cycles: u64,
}

impl LinkState {
    const IDLE: LinkState = LinkState {
        free_at: 0,
        flits: 0,
        busy_cycles: 0,
    };
}

/// Per-router buffered-flit occupancy, integrated lazily: the reference
/// loop samples `buffered` once per measurement cycle (before that cycle's
/// commits), so a value set during cycle `c` counts for sample cycles
/// `c + 1 ..`.  `accrue` settles the closed interval since the previous
/// change; called at every change point and once at the end, it reproduces
/// the per-cycle sum exactly without an O(routers) pass per cycle — and it
/// makes the value independent of *which* cycles the engine visits, which
/// is what lets commit-free stretches be jumped.
#[derive(Debug, Clone, Copy)]
struct RouterBuf {
    buffered: u64,
    /// First sample cycle the current `buffered` value applies to.
    since: u64,
    flit_cycles: u64,
}

impl RouterBuf {
    #[inline]
    fn accrue(&mut self, change_cycle: u64, measure_start: u64, measure_end: u64) {
        let lo = self.since.max(measure_start);
        let hi = (change_cycle + 1).min(measure_end);
        if hi > lo {
            self.flit_cycles += self.buffered * (hi - lo);
        }
        self.since = change_cycle + 1;
    }
}

/// Windowed per-router activity accounting, packed so a commit's updates
/// (forwarded flits, active-cycle edge detection, buffer accrual) land on
/// one cache line per router instead of four parallel arrays.
#[derive(Debug, Clone, Copy)]
struct RouterState {
    /// Flits forwarded during the measurement window.
    flits: u64,
    /// Measurement cycles with at least one commit out of this router.
    active_cycles: u64,
    /// Last cycle counted in `active_cycles` (edge detector).
    last_active: u64,
    buf: RouterBuf,
}

#[inline]
fn set_bit(active: &mut [u64], link: u32) {
    active[(link / 64) as usize] |= 1u64 << (link % 64);
}

#[inline]
fn clear_bit(active: &mut [u64], link: u32) {
    active[(link / 64) as usize] &= !(1u64 << (link % 64));
}

/// What one output link does this cycle, as computed by [`St::arbitrate`].
/// Phase A of a parallel round precomputes these; the sequential commit
/// pass consumes one (cached or recomputed) per active link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Decision {
    /// Still serializing: park until `free_at`.
    Busy,
    /// Nothing can move; park until the carried cycle (`u64::MAX` = go
    /// dark until an add / head / renumber wake re-arms the link).
    Park(u64),
    /// The source queue's head packet wins.
    CommitSource,
    /// The resident in the carried slab slot wins.
    CommitSlot(u32),
}

/// Knobs: the per-run read-only parameters threaded through the loop.
struct Knobs<'s, 'a> {
    sim: &'s NetworkSim<'a>,
    layout: Layout,
    measure_start: u64,
    measure_end: u64,
    total_cycles: u64,
    inject_thr: u64,
    data_thr: u64,
    data_flits: u32,
    ctrl_flits: u32,
    max_flits: u64,
    link_latency: u64,
    router_latency: u64,
    num_links: usize,
    force_parallel: bool,
}

/// Window counters folded into the final [`SimReport`].
struct Counters {
    stats: LatencyStats,
    packets: u64,
    window_flits: u64,
    outstanding: u64,
    packets_ejected: u64,
    flits_ejected: u64,
}

/// The optional per-epoch time-series accumulator (`len == 0` disables
/// it).  Attribution mirrors the window counters — injections by
/// injection cycle, accepted flits by arrival cycle, latency samples by
/// creation cycle — so every epoch column sums (or averages) back to the
/// corresponding report field.  Boundaries are closed lazily at the loop
/// head; a jump over a boundary is exact because nothing changes during a
/// jumped stretch, so the occupancy snapshot is the boundary's.
struct EpochProbe {
    len: u64,
    measure_start: u64,
    measure_end: u64,
    injected: Vec<u64>,
    accepted: Vec<u64>,
    ejected: Vec<u64>,
    stats: Vec<LatencyStats>,
    buffered: Vec<u64>,
    idx: usize,
    next_end: u64,
}

impl EpochProbe {
    fn new(cfg: &SimConfig, measure_start: u64, measure_end: u64) -> Self {
        let len = cfg.epoch_cycles;
        let num = if len > 0 {
            cfg.measure_cycles.div_ceil(len) as usize
        } else {
            0
        };
        EpochProbe {
            len,
            measure_start,
            measure_end,
            injected: vec![0; num],
            accepted: vec![0; num],
            ejected: vec![0; num],
            stats: vec![LatencyStats::new(); num],
            buffered: vec![0; num],
            idx: 0,
            next_end: if num > 0 {
                (measure_start + len).min(measure_end)
            } else {
                u64::MAX
            },
        }
    }

    /// Close every epoch that ends at or before `cycle`, snapshotting the
    /// instantaneous buffered-flit occupancy as of the boundary (all
    /// commits of the epoch's last visited cycle have happened; nothing of
    /// the current cycle has, and jumped cycles change nothing).
    #[inline]
    fn close_finished(&mut self, cycle: u64, routers: &[RouterState]) {
        while cycle >= self.next_end && self.idx < self.injected.len() {
            self.buffered[self.idx] = routers.iter().map(|r| r.buf.buffered).sum();
            self.idx += 1;
            self.next_end = if self.idx < self.injected.len() {
                (self.measure_start + (self.idx as u64 + 1) * self.len).min(self.measure_end)
            } else {
                u64::MAX
            };
        }
    }

    // `len > 0` below means "probe enabled", not a division guard:
    // `checked_div` would hoist the cycle-offset subtraction ahead of it,
    // which may underflow while the probe is disabled.
    #[inline]
    #[allow(clippy::manual_checked_ops)]
    fn note_injected(&mut self, cycle: u64, flits: u64) {
        if self.len > 0 {
            self.injected[((cycle - self.measure_start) / self.len) as usize] += flits;
        }
    }

    #[inline]
    #[allow(clippy::manual_checked_ops)]
    fn note_accepted(&mut self, arrival: u64, flits: u64) {
        if self.len > 0 {
            self.accepted[((arrival - self.measure_start) / self.len) as usize] += flits;
        }
    }

    #[inline]
    #[allow(clippy::manual_checked_ops)]
    fn note_ejected(&mut self, created: u64, latency: f64) {
        if self.len > 0 {
            let e = ((created - self.measure_start) / self.len) as usize;
            self.stats[e].record(latency);
            self.ejected[e] += 1;
        }
    }

    /// Close any epochs still open and assemble the series.
    fn finish(mut self, routers: &[RouterState]) -> Option<EpochSeries> {
        let num = self.injected.len();
        while self.idx < num {
            self.buffered[self.idx] = routers.iter().map(|r| r.buf.buffered).sum();
            self.idx += 1;
        }
        (self.len > 0).then(|| EpochSeries {
            epoch_cycles: self.len,
            samples: (0..num)
                .map(|e| {
                    let start_cycle = self.measure_start + e as u64 * self.len;
                    EpochSample {
                        start_cycle,
                        end_cycle: (start_cycle + self.len).min(self.measure_end),
                        injected_flits: self.injected[e],
                        accepted_flits: self.accepted[e],
                        packets_ejected: self.ejected[e],
                        mean_latency_cycles: self.stats[e].mean(),
                        p95_latency_cycles: self.stats[e].percentile(0.95),
                        buffered_flits: self.buffered[e],
                    }
                })
                .collect(),
        })
    }
}

/// The mutable simulation state, gathered into one struct so the main
/// thread can hand read-only views to arbitration helpers between its own
/// exclusive regions.
struct St<'n> {
    net: &'n CompiledNetwork,
    num_vcs: usize,
    vc_buffer_flits: u64,
    lstate: Vec<LinkState>,
    routers: Vec<RouterState>,
    /// Flat per-(link, VC) buffer occupancy in flits.
    vc_occ: Vec<u32>,
    /// Per-router resident slabs; slot order matches the reference loop's
    /// `swap_remove` order exactly (tie-breaking depends on it).
    residents: Vec<Vec<FlatResident>>,
    /// Per-output-link candidate slabs, structure-of-arrays: the packed
    /// `(created << SLOT_BITS) | slot` tie-break key and the arrival
    /// cycle, in matching positions.  Two flat arrays keep the min-scan
    /// branchless and autovectorizable.
    cand_keys: Vec<Vec<u64>>,
    cand_ready: Vec<Vec<u64>>,
    /// One-bit-per-link active set over the candidate slabs.
    active: Vec<u64>,
    /// Parking calendar: a link with provably nothing to do until a known
    /// cycle leaves the active set and re-arms through this ring.  Each
    /// bucket is a bitmap with the same word layout as `active`, so a
    /// park is one `OR`, duplicates coalesce for free, and draining a
    /// bucket is a word-wise `OR` into the active set.
    ring: Vec<u64>,
    ring_mask: u64,
    /// Source (injection) queues plus the out-link of each queue's head.
    source_queues: Vec<VecDeque<FlatPacket>>,
    head_out: Vec<u32>,
    /// Last cycle each router's arbitration-visible state was mutated by
    /// a commit; a cached phase-A decision for link `(from, to)` is valid
    /// iff neither endpoint was touched this cycle.
    touched: Vec<u64>,
    /// Scratch: ascending snapshot of the active set for a parallel round.
    snap: Vec<u32>,
}

impl St<'_> {
    /// Make `link` get examined again as soon as examining it could
    /// matter: immediately when the link is idle, otherwise at `free_at`
    /// through the ring — a busy link cannot commit before it frees, and
    /// `free_at` only grows through the link's own commits (which re-arm
    /// it themselves), so deferring the visit is exact and skips every
    /// pointless busy-check in between.  Duplicate wake-ups are harmless:
    /// a visit that finds nothing to do parks the link again.
    /// Park `link` in the calendar bucket for cycle `t` (one bit-OR).
    #[inline]
    fn ring_push(&mut self, t: u64, link: u32) {
        let words = self.active.len();
        let idx = (t & self.ring_mask) as usize;
        self.ring[idx * words + (link / 64) as usize] |= 1u64 << (link % 64);
    }

    #[inline]
    fn wake(&mut self, cycle: u64, link: u32) {
        let free_at = self.lstate[link as usize].free_at;
        if free_at > cycle {
            self.ring_push(free_at.min(cycle + self.ring_mask), link);
        } else {
            set_bit(&mut self.active, link);
        }
    }

    /// Wake parked links whose scheduled cycle has arrived.
    #[inline]
    fn drain_ring(&mut self, cycle: u64) {
        let words = self.active.len();
        let idx = (cycle & self.ring_mask) as usize * words;
        for w in 0..words {
            self.active[w] |= self.ring[idx + w];
            self.ring[idx + w] = 0;
        }
    }

    /// Insert a resident into router `to`'s slab and register it with its
    /// output link's candidate slabs.  The output link is woken through
    /// the ring at `max(ready_at, free_at)` rather than immediately: the
    /// new candidate cannot move before it arrives, the link cannot
    /// commit before it frees, and every earlier visit would find
    /// nothing — waking at the later of the two is exact.
    #[inline]
    fn add_resident(&mut self, cycle: u64, to: usize, mut r: FlatResident) {
        let slot = self.residents[to].len() as u32;
        debug_assert!(
            (slot as u64) < SLOT_MASK,
            "slab slot overflows the packed key"
        );
        debug_assert!(
            r.created < (u64::MAX >> SLOT_BITS),
            "cycle overflows the packed key"
        );
        if r.out_link != NONE {
            let o = r.out_link as usize;
            r.cand_pos = self.cand_keys[o].len() as u32;
            self.cand_keys[o].push(((r.created) << SLOT_BITS) | slot as u64);
            self.cand_ready[o].push(r.ready_at);
            let t = r
                .ready_at
                .max(self.lstate[o].free_at)
                .min(cycle + self.ring_mask);
            self.ring_push(t, r.out_link);
        } else {
            r.cand_pos = NONE;
        }
        self.residents[to].push(r);
    }

    /// Remove slot `ri` from router `from`'s slab, keeping every surviving
    /// resident's slot/candidate cross-references consistent under the
    /// `swap_remove`s.  The caller parks the committed link; a link whose
    /// candidate got renumbered is re-armed here (its tie-break key
    /// changed, which can change the winner a parked link was blocked on).
    #[inline]
    fn remove_resident(&mut self, cycle: u64, from: usize, ri: u32) {
        let ri_us = ri as usize;
        let (out, pos) = {
            let r = &self.residents[from][ri_us];
            (r.out_link, r.cand_pos)
        };
        if out != NONE {
            let o = out as usize;
            let pos = pos as usize;
            self.cand_keys[o].swap_remove(pos);
            self.cand_ready[o].swap_remove(pos);
            if pos < self.cand_keys[o].len() {
                // The entry moved into `pos` belongs to another resident
                // of the same router: repair its back-pointer.
                let moved_slot = (self.cand_keys[o][pos] & SLOT_MASK) as usize;
                self.residents[from][moved_slot].cand_pos = pos as u32;
            }
        }
        self.residents[from].swap_remove(ri_us);
        if ri_us < self.residents[from].len() {
            // The slab's last resident moved into `ri`: rewrite the slot
            // bits of its packed key and re-arm that link — renumbering
            // changes the `(created, slot)` tie-break, which can change
            // the winner a parked link was blocked on.
            let (mpos, mout) = {
                let moved = &self.residents[from][ri_us];
                (moved.cand_pos, moved.out_link)
            };
            if mpos != NONE {
                let key = &mut self.cand_keys[mout as usize][mpos as usize];
                *key = (*key & !SLOT_MASK) | ri as u64;
                self.wake(cycle, mout);
            }
        }
    }

    /// Append a freshly injected packet to its source queue, waking the
    /// first-hop link when the packet becomes the new head.
    #[inline]
    fn push_source_packet(&mut self, cycle: u64, src: usize, flits: u32, flow: u32) {
        let queue = &mut self.source_queues[src];
        queue.push_back(FlatPacket {
            created: cycle,
            flits,
            vc: self.net.vc_of_flow[flow as usize],
            flow,
        });
        if queue.len() == 1 {
            let first = self.net.first_hop(flow);
            self.head_out[src] = first;
            if first != NONE {
                self.wake(cycle, first);
            }
        }
    }

    /// The rare legacy-coin injection-hit path, outlined from the
    /// per-source coin loop.  Kept out of line deliberately: inlined, the
    /// queue and wake machinery forces the RNG state and loop bounds into
    /// the stack on every coin draw, and the common *miss* path pays for
    /// it.
    #[cold]
    #[inline(never)]
    fn inject_legacy(
        &mut self,
        k: &Knobs<'_, '_>,
        rng: &mut SmallRng,
        cycle: u64,
        in_window: bool,
        src: usize,
        counters: &mut Counters,
    ) {
        // RNG draw order matches the reference loop exactly: the
        // destination sample happens here, and the class coin only if the
        // destination is routable and alive.
        let Some(dst) = k.sim.pattern.sample_destination(&k.layout, src, rng) else {
            return;
        };
        if !k.sim.alive[dst] {
            return;
        }
        let flits = if (rng.next_u64() >> 11) < k.data_thr {
            k.data_flits
        } else {
            k.ctrl_flits
        };
        let flow = (src * self.net.n + dst) as u32;
        if in_window {
            counters.packets += 1;
            counters.window_flits += flits as u64;
            counters.outstanding += 1;
        }
        self.push_source_packet(cycle, src, flits, flow);
    }

    /// Decide what output link `o` does this cycle.  Pure read — this is
    /// the function parallel helpers run — and exactly the reference
    /// loop's semantics: oldest eligible candidate wins, ties to the
    /// lowest slot, the source-queue head loses ties, and a forward needs
    /// downstream credit for the whole packet.
    #[inline]
    fn arbitrate(&self, o: usize, cycle: u64) -> Decision {
        self.arbitrate_pre(o, cycle).0
    }

    /// [`St::arbitrate`] plus the winner read-out: everything the commit
    /// needs about the winning packet, captured while its cache lines are
    /// hot so the sequential fast path ([`St::commit_pre`]) never re-reads
    /// the queue head, resident slab or path table.  The read-out is
    /// meaningful only for commit decisions.
    #[inline]
    fn arbitrate_pre(&self, o: usize, cycle: u64) -> (Decision, Pre) {
        if self.lstate[o].free_at > cycle {
            return (Decision::Busy, Pre::default());
        }
        // Branchless dual min-reduction over the candidate slabs:
        // eligible entries feed the winner key, in-flight entries feed
        // the next-arrival park target.
        let mut best_key = u64::MAX;
        let mut next_ready = u64::MAX;
        for (&key, &ready) in self.cand_keys[o].iter().zip(self.cand_ready[o].iter()) {
            let elig = ready <= cycle;
            best_key = best_key.min(if elig { key } else { u64::MAX });
            next_ready = next_ready.min(if elig { u64::MAX } else { ready });
        }
        let (from, _) = self.net.links[o];
        // The source-queue head loses ties to residents, as in the
        // reference loop.  With no eligible resident `best_key >>
        // SLOT_BITS` is an unreachable creation cycle, so any head wins.
        let from_source = self.head_out[from] == o as u32
            && self.source_queues[from]
                .front()
                .is_some_and(|h| h.created < (best_key >> SLOT_BITS));
        if !from_source && best_key == u64::MAX {
            return (Decision::Park(next_ready), Pre::default());
        }
        let slot = (best_key & SLOT_MASK) as u32;
        let (created, flits, vc, flow, next_idx, in_link) = if from_source {
            let h = self.source_queues[from].front().unwrap();
            (h.created, h.flits, h.vc, h.flow, 0u32, NONE)
        } else {
            let r = &self.residents[from][slot as usize];
            (r.created, r.flits, r.vc, r.flow, r.next_idx, r.in_link)
        };
        let off = self.net.path_offsets[flow as usize] as usize;
        let path_len = self.net.path_offsets[flow as usize + 1] as usize - off;
        let ejecting = next_idx as usize + 1 == path_len;
        if !ejecting {
            // The packet will occupy the VC buffer at the downstream end
            // of *this* link; without credit for all of it, nothing moves.
            let occ = self.vc_occ[o * self.num_vcs + vc as usize];
            if occ as u64 + flits as u64 > self.vc_buffer_flits {
                return (Decision::Park(next_ready), Pre::default());
            }
        }
        let pre = Pre {
            created,
            flits,
            vc,
            flow,
            next_idx,
            in_link,
            off: off as u32,
            ejecting,
        };
        if from_source {
            (Decision::CommitSource, pre)
        } else {
            (Decision::CommitSlot(slot), pre)
        }
    }

    /// Commit a winning decision on link `o`: dequeue the winner, account
    /// the serialization, and either eject or forward.  Stamps the
    /// endpoint routers' `touched` marks so later links' cached phase-A
    /// decisions are invalidated exactly when this commit could have
    /// changed them.
    #[allow(clippy::too_many_arguments)]
    fn commit(
        &mut self,
        o: usize,
        cycle: u64,
        dec: Decision,
        k: &Knobs<'_, '_>,
        counters: &mut Counters,
        probe: &mut EpochProbe,
        in_window: bool,
    ) {
        // Re-read the winner (the cached-decision parallel path arrives
        // here without a read-out in hand).
        let (from, _) = self.net.links[o];
        let (created, flits, vc, flow, next_idx, in_link) = if dec == Decision::CommitSource {
            let h = self.source_queues[from].front().unwrap();
            (h.created, h.flits, h.vc, h.flow, 0u32, NONE)
        } else {
            let Decision::CommitSlot(slot) = dec else {
                unreachable!("commit called on a non-commit decision");
            };
            let r = &self.residents[from][slot as usize];
            (r.created, r.flits, r.vc, r.flow, r.next_idx, r.in_link)
        };
        let off = self.net.path_offsets[flow as usize] as usize;
        let path_len = self.net.path_offsets[flow as usize + 1] as usize - off;
        let pre = Pre {
            created,
            flits,
            vc,
            flow,
            next_idx,
            in_link,
            off: off as u32,
            ejecting: next_idx as usize + 1 == path_len,
        };
        self.commit_pre(o, cycle, dec, pre, k, counters, probe, in_window);
    }

    /// Commit with the winner read-out already in hand (the sequential
    /// fast path, fused with [`St::arbitrate_pre`]).  Deliberately not
    /// inlined: folding the commit machinery into the scan loop costs
    /// more in code size than the call saves.
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn commit_pre(
        &mut self,
        o: usize,
        cycle: u64,
        dec: Decision,
        pre: Pre,
        k: &Knobs<'_, '_>,
        counters: &mut Counters,
        probe: &mut EpochProbe,
        in_window: bool,
    ) {
        let (from, to) = self.net.links[o];
        let from_source = dec == Decision::CommitSource;
        let Pre {
            created,
            flits,
            vc,
            flow,
            next_idx,
            in_link,
            off,
            ejecting,
        } = pre;
        let off = off as usize;
        self.touched[from] = cycle;
        if from_source {
            self.source_queues[from].pop_front();
            let next_head = match self.source_queues[from].front() {
                Some(p) => self.net.first_hop(p.flow),
                None => NONE,
            };
            self.head_out[from] = next_head;
            if next_head != NONE && next_head != o as u32 {
                self.wake(cycle, next_head);
            }
        } else {
            let Decision::CommitSlot(slot) = dec else {
                unreachable!();
            };
            self.remove_resident(cycle, from, slot);
            let occ = &mut self.vc_occ[in_link as usize * self.num_vcs + vc as usize];
            let occ_old = *occ;
            *occ = occ.saturating_sub(flits);
            // Credit release: the upstream link may be parked on this
            // VC's buffer being full.  A packet of `w <= max_flits` flits
            // was blocked iff `occ_old + w > capacity`, so when even the
            // largest class fit there was nothing to unblock and the wake
            // can be skipped exactly.
            if occ_old as u64 + k.max_flits > self.vc_buffer_flits {
                self.wake(cycle, in_link);
            }
            let rb = &mut self.routers[from].buf;
            rb.accrue(cycle, k.measure_start, k.measure_end);
            rb.buffered = rb.buffered.saturating_sub(flits as u64);
        }
        // The link now serializes this packet: park it, re-arming at
        // `free_at` only when it could have work then (a remaining
        // candidate or a source head) — if it goes dark, every later
        // add/head/renumber wake is busy-aware and re-arms it itself.
        let serialization = flits as u64;
        let free_at = cycle + serialization;
        clear_bit(&mut self.active, o as u32);
        if !self.cand_keys[o].is_empty() || self.head_out[from] == o as u32 {
            self.ring_push(free_at.min(cycle + self.ring_mask), o as u32);
        }
        {
            let s = &mut self.lstate[o];
            s.free_at = free_at;
            if in_window {
                s.flits += serialization;
                s.busy_cycles += serialization.min(k.measure_end - cycle);
            }
        }
        if in_window {
            let rs = &mut self.routers[from];
            rs.flits += serialization;
            if rs.last_active != cycle {
                rs.last_active = cycle;
                rs.active_cycles += 1;
            }
        }
        let arrival = cycle + k.link_latency + serialization + k.router_latency;
        if ejecting {
            // Ejected at the destination.
            let latency = (arrival - created) as f64;
            if created >= k.measure_start && created < k.measure_end {
                counters.stats.record(latency);
                counters.packets_ejected += 1;
                counters.outstanding = counters.outstanding.saturating_sub(1);
                probe.note_ejected(created, latency);
            }
            if arrival >= k.measure_start && arrival < k.measure_end {
                counters.flits_ejected += flits as u64;
                probe.note_accepted(arrival, flits as u64);
            }
        } else {
            self.touched[to] = cycle;
            self.vc_occ[o * self.num_vcs + vc as usize] += flits;
            let rb = &mut self.routers[to].buf;
            rb.accrue(cycle, k.measure_start, k.measure_end);
            rb.buffered += flits as u64;
            let next_idx = next_idx + 1;
            self.add_resident(
                cycle,
                to,
                FlatResident {
                    created,
                    ready_at: arrival,
                    flits,
                    vc,
                    flow,
                    next_idx,
                    in_link: o as u32,
                    out_link: self.net.hops[off + next_idx as usize],
                    cand_pos: NONE,
                },
            );
        }
    }
}

/// Shared-state cell for the parallel arbitration rounds.
///
/// SAFETY contract: the main thread holds `&mut St` only *between* rounds
/// (injection, snapshot, phase B); during a published round both main and
/// helpers hold only `&St`.  The round protocol's release/acquire pair on
/// `ParShared::job` / `ParShared::acks` orders every prior mutation
/// before the helpers' reads and the helpers' decision writes before the
/// main thread's consumption.
struct StCell<'n>(UnsafeCell<St<'n>>);
// SAFETY: see the round protocol above; St contains only Send data.
unsafe impl Sync for StCell<'_> {}

/// One precomputed decision slot per link; participants of a round write
/// disjoint slots (the snapshot is chunk-partitioned by rank).
struct DecSlot(UnsafeCell<Decision>);
// SAFETY: writes are disjoint per round and ordered by the acks fence.
unsafe impl Sync for DecSlot {}

/// Round coordination between the main simulation thread and its
/// arbitration helpers: main publishes a round by bumping `job` (release)
/// after staging `cycle` and the participant set; each counted helper
/// processes its chunk stride and acknowledges the job id (release).  A
/// helper that never started simply stays out of `live` and is excluded
/// from the next round, so pool starvation degrades to sequential
/// execution instead of deadlock.
struct ParShared {
    job: AtomicU64,
    cycle: AtomicU64,
    finished: AtomicBool,
    live: Vec<AtomicBool>,
    participating: Vec<AtomicBool>,
    acks: Vec<AtomicU64>,
}

impl ParShared {
    fn new(helpers: usize) -> Self {
        ParShared {
            job: AtomicU64::new(0),
            cycle: AtomicU64::new(0),
            finished: AtomicBool::new(false),
            live: (0..helpers).map(|_| AtomicBool::new(false)).collect(),
            participating: (0..helpers).map(|_| AtomicBool::new(false)).collect(),
            acks: (0..helpers).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

/// Sets `finished` when the main simulation closure exits (including by
/// panic), so helpers never outlive the run.
struct FinishGuard<'a>(&'a AtomicBool);
impl Drop for FinishGuard<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// Poisons the helper's ack register if it unwinds mid-round, so the main
/// thread fails fast instead of spinning forever.  (On a clean exit the
/// poison lands after `finished` is set, when nobody reads acks anymore.)
struct HelperGuard<'a> {
    shared: &'a ParShared,
    h: usize,
}
impl Drop for HelperGuard<'_> {
    fn drop(&mut self) {
        self.shared.acks[self.h].store(u64::MAX, Ordering::Release);
    }
}

/// The arbitration helper body: wait for each published round, arbitrate
/// the chunk stride assigned by participation rank, acknowledge.
fn helper_loop(h: usize, cell: &StCell<'_>, dec: &[DecSlot], shared: &ParShared) {
    shared.live[h].store(true, Ordering::Release);
    let _guard = HelperGuard { shared, h };
    let mut seen = 0u64;
    loop {
        let mut spins = 0u32;
        let job = loop {
            let j = shared.job.load(Ordering::Acquire);
            if j != seen {
                break j;
            }
            if shared.finished.load(Ordering::Acquire) {
                return;
            }
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        };
        seen = job;
        if !shared.participating[h].load(Ordering::Relaxed) {
            shared.acks[h].store(job, Ordering::Release);
            continue;
        }
        let mut rank = 1usize;
        let mut parts = 1usize;
        for (g, p) in shared.participating.iter().enumerate() {
            if p.load(Ordering::Relaxed) {
                parts += 1;
                if g < h {
                    rank += 1;
                }
            }
        }
        let cycle = shared.cycle.load(Ordering::Relaxed);
        // SAFETY: the round protocol guarantees main holds no `&mut St`
        // while this job id is published and unacknowledged.
        let st = unsafe { &*cell.0.get() };
        let len = st.snap.len();
        let mut chunk = rank;
        loop {
            let lo = chunk * PAR_CHUNK;
            if lo >= len {
                break;
            }
            let hi = (lo + PAR_CHUNK).min(len);
            for &o in &st.snap[lo..hi] {
                let d = st.arbitrate(o as usize, cycle);
                // SAFETY: chunk striding makes slot writes disjoint.
                unsafe { *dec[o as usize].0.get() = d };
            }
            chunk += parts;
        }
        shared.acks[h].store(job, Ordering::Release);
    }
}

/// The cycle loop, shared by the sequential and parallel paths (`par` is
/// `None` when no helpers are attached).
#[allow(clippy::too_many_arguments)]
fn run_cycles(
    cell: &StCell<'_>,
    k: &Knobs<'_, '_>,
    mut rng: SmallRng,
    mut trace_cursor: Option<TraceCursor<'_>>,
    mut sched: Option<InjectionSchedule>,
    counters: &mut Counters,
    probe: &mut EpochProbe,
    par: Option<(&ParShared, &[DecSlot])>,
) {
    let l = k.num_links;
    // With a schedule or a trace, injection draws no per-cycle RNG, so a
    // commit-free cycle can be jumped even inside the measurement window;
    // legacy coins burn one draw per source per cycle and must visit all.
    let rng_free = trace_cursor.is_some() || sched.is_some();
    let mut cycle: u64 = 0;
    while cycle < k.total_cycles {
        let in_window = cycle >= k.measure_start && cycle < k.measure_end;
        let mut round_parts = 0usize;
        let mut round_job = 0u64;
        {
            // SAFETY: exclusive region — no round is in flight.
            let st = unsafe { &mut *cell.0.get() };
            probe.close_finished(cycle, &st.routers);
            st.drain_ring(cycle);
            // Traffic generation.  (Buffer occupancy for the router
            // activity profile is integrated lazily at change points —
            // see `RouterBuf::accrue` — instead of the reference loop's
            // per-cycle sampling pass.)
            if cycle < k.measure_end {
                if let Some(cursor) = trace_cursor.as_mut() {
                    // Trace replay: no coins, no RNG — drain every message
                    // due this cycle, mirroring the reference loop's trace
                    // branch exactly.
                    while let Some(m) = cursor.pop_due(cycle) {
                        let (src, dst) = (m.src as usize, m.dst as usize);
                        if !k.sim.alive[src] || !k.sim.alive[dst] {
                            continue;
                        }
                        let flits = m.flits;
                        let flow = (src * st.net.n + dst) as u32;
                        if in_window {
                            counters.packets += 1;
                            counters.window_flits += flits as u64;
                            counters.outstanding += 1;
                            probe.note_injected(cycle, flits as u64);
                        }
                        st.push_source_packet(cycle, src, flits, flow);
                    }
                } else if let Some(s) = sched.as_mut() {
                    // Batched Bernoulli sampling: only cycles with an
                    // arrival due reach the RNG at all.
                    while let Some(ev) = s.pop_due(cycle, &k.sim.pattern, &k.layout, &k.sim.alive) {
                        let src = ev.src as usize;
                        let flow = (src * st.net.n + ev.dst as usize) as u32;
                        if in_window {
                            counters.packets += 1;
                            counters.window_flits += ev.flits as u64;
                            counters.outstanding += 1;
                            probe.note_injected(cycle, ev.flits as u64);
                        }
                        st.push_source_packet(cycle, src, ev.flits, flow);
                    }
                } else {
                    for (src, &alive) in k.sim.alive.iter().enumerate() {
                        if alive && (rng.next_u64() >> 11) < k.inject_thr {
                            let flits_before = counters.window_flits;
                            st.inject_legacy(k, &mut rng, cycle, in_window, src, counters);
                            // The epoch attribution stays out of the cold
                            // injection helper: recover the injected
                            // flits (if any) from the window counter's
                            // delta.
                            if in_window {
                                probe.note_injected(cycle, counters.window_flits - flits_before);
                            }
                        }
                    }
                }
            }
            // Publish a parallel round over a snapshot of the active set.
            if let Some((shared, _)) = par {
                st.snap.clear();
                for (w, &word) in st.active.iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        let b = bits.trailing_zeros() as usize;
                        st.snap.push((w * 64 + b) as u32);
                        bits &= bits - 1;
                    }
                }
                if !st.snap.is_empty() && (k.force_parallel || st.snap.len() >= PAR_MIN_ACTIVE) {
                    let mut parts = 1usize;
                    for (g, lv) in shared.live.iter().enumerate() {
                        let live = lv.load(Ordering::Acquire);
                        shared.participating[g].store(live, Ordering::Relaxed);
                        if live {
                            parts += 1;
                        }
                    }
                    if parts > 1 {
                        round_job = shared.job.load(Ordering::Relaxed) + 1;
                        shared.cycle.store(cycle, Ordering::Relaxed);
                        shared.job.store(round_job, Ordering::Release);
                        round_parts = parts;
                    }
                }
            }
        }
        // Phase A: main arbitrates its own chunk stride alongside the
        // helpers, then waits for every counted participant's ack.
        if round_parts > 1 {
            let (shared, dec) = par.unwrap();
            {
                // SAFETY: shared-read region; helpers hold `&St` too.
                let st = unsafe { &*cell.0.get() };
                let len = st.snap.len();
                let mut chunk = 0usize;
                loop {
                    let lo = chunk * PAR_CHUNK;
                    if lo >= len {
                        break;
                    }
                    let hi = (lo + PAR_CHUNK).min(len);
                    for &o in &st.snap[lo..hi] {
                        let d = st.arbitrate(o as usize, cycle);
                        // SAFETY: chunk striding makes slot writes disjoint.
                        unsafe { *dec[o as usize].0.get() = d };
                    }
                    chunk += round_parts;
                }
            }
            for (h, p) in shared.participating.iter().enumerate() {
                if !p.load(Ordering::Relaxed) {
                    continue;
                }
                let mut spins = 0u32;
                loop {
                    let a = shared.acks[h].load(Ordering::Acquire);
                    if a == round_job {
                        break;
                    }
                    assert_ne!(a, u64::MAX, "parallel arbitration helper panicked");
                    spins += 1;
                    if spins < 64 {
                        std::hint::spin_loop();
                    } else {
                        std::thread::yield_now();
                    }
                }
            }
        }
        // Phase B: visit active links in ascending id order (the
        // reference loop's iteration order), reading the active set live
        // so commits at earlier links are visible to later ones within
        // the same cycle.  A cached phase-A decision is consumed only
        // when the `touched` stamps prove no earlier commit this cycle
        // mutated either endpoint router's arbitration-visible state.
        let committed = {
            // SAFETY: exclusive region — all round acks are in.
            let st = unsafe { &mut *cell.0.get() };
            let mut committed = false;
            let use_snap = round_parts > 1;
            let mut sp = 0usize;
            let mut scan = 0usize;
            while scan < l {
                let word = st.active[scan / 64] & (!0u64 << (scan % 64));
                if word == 0 {
                    scan = (scan / 64 + 1) * 64;
                    continue;
                }
                let o = (scan / 64) * 64 + word.trailing_zeros() as usize;
                scan = o + 1;
                let mut cached = None;
                if use_snap {
                    while sp < st.snap.len() && (st.snap[sp] as usize) < o {
                        sp += 1;
                    }
                    if sp < st.snap.len() && st.snap[sp] as usize == o {
                        sp += 1;
                        let (from, to) = st.net.links[o];
                        if st.touched[from] != cycle && st.touched[to] != cycle {
                            let (_, dec) = par.unwrap();
                            // SAFETY: round complete; slot write ordered
                            // by the ack acquire above.
                            let d = unsafe { *dec[o].0.get() };
                            debug_assert_eq!(
                                d,
                                st.arbitrate(o, cycle),
                                "stale cached arbitration at link {o}"
                            );
                            cached = Some(d);
                        }
                    }
                }
                let (d, pre) = match cached {
                    Some(d) => (d, None),
                    None => {
                        let (d, p) = st.arbitrate_pre(o, cycle);
                        (d, Some(p))
                    }
                };
                match d {
                    Decision::Busy => {
                        // Still serializing: park until the link frees.
                        clear_bit(&mut st.active, o as u32);
                        st.ring_push(st.lstate[o].free_at.min(cycle + st.ring_mask), o as u32);
                    }
                    Decision::Park(next_ready) => {
                        // Nothing can move.  With no candidate at all the
                        // link goes dark until an add or a new source head
                        // re-arms it; otherwise everything is still in
                        // flight — re-arm at the earliest arrival.
                        clear_bit(&mut st.active, o as u32);
                        if next_ready != u64::MAX {
                            st.ring_push(next_ready.min(cycle + st.ring_mask), o as u32);
                        }
                    }
                    Decision::CommitSource | Decision::CommitSlot(_) => {
                        committed = true;
                        match pre {
                            Some(p) => st.commit_pre(o, cycle, d, p, k, counters, probe, in_window),
                            None => st.commit(o, cycle, d, k, counters, probe, in_window),
                        }
                    }
                }
            }
            committed
        };
        // Quiescence / idle-stretch skip.  A cycle with zero commits
        // leaves the active set empty (every visited link parked; wakes
        // only happen on commits), so the state can next change at the
        // earliest ready/free/wake threshold — or the next scheduled
        // injection, when injection is schedule- or trace-driven.  Jump
        // there, or stop when there is none: only permanently stalled
        // packets remain and the report no longer changes.  Legacy coins
        // draw RNG every pre-measure-end cycle, so there the jump stays
        // restricted to the drain phase.
        if !committed && (cycle >= k.measure_end || rng_free) {
            // SAFETY: exclusive region.
            let st = unsafe { &mut *cell.0.get() };
            // A commit-free scan parks every woken link, so the active set
            // is empty and every pending state change is chained through
            // the calendar: an arrival or busy link re-arms its link at
            // (at most) its threshold cycle, and a clamped entry re-parks
            // itself forward on each early visit.  The earliest non-empty
            // bucket is therefore the exact next event — no resident or
            // link scan needed.  What has no calendar chain is
            // permanently stalled (unrouted or credit-deadlocked) and
            // never changes the report again.
            debug_assert!(st.active.iter().all(|&w| w == 0));
            let words = st.active.len();
            let mut next_event = u64::MAX;
            for b in 0..=st.ring_mask {
                if st.ring[b as usize * words..][..words]
                    .iter()
                    .any(|&w| w != 0)
                {
                    let delta = b.wrapping_sub(cycle + 1) & st.ring_mask;
                    next_event = next_event.min(cycle + 1 + delta);
                }
            }
            if cycle < k.measure_end {
                if let Some(s) = sched.as_mut() {
                    // Scheduled arrivals are not jump barriers in
                    // themselves: one that lands in a non-empty source
                    // queue only appends to the tail
                    // (`push_source_packet` wakes the first-hop link
                    // solely on the empty→head transition), so the idle
                    // stretch consumes such arrivals in place — same
                    // per-source streams, same due cycles, same order —
                    // and only ends where an arrival finds its queue
                    // empty and can actually wake something.  Saturated
                    // sweeps spend most of their post-collapse cycles
                    // exactly here.
                    while let Some(due) = s.next_due() {
                        if due >= next_event || due >= k.measure_end {
                            break;
                        }
                        let in_w = due >= k.measure_start;
                        let mut woke = false;
                        while let Some(ev) = s.pop_due(due, &k.sim.pattern, &k.layout, &k.sim.alive)
                        {
                            let src = ev.src as usize;
                            let flow = (src * st.net.n + ev.dst as usize) as u32;
                            if in_w {
                                counters.packets += 1;
                                counters.window_flits += ev.flits as u64;
                                counters.outstanding += 1;
                                probe.note_injected(due, ev.flits as u64);
                            }
                            woke |= st.source_queues[src].is_empty();
                            st.push_source_packet(due, src, ev.flits, flow);
                        }
                        if woke {
                            next_event = due;
                            break;
                        }
                    }
                } else if let Some(t) = &trace_cursor {
                    if let Some(due) = t.next_due() {
                        if due < k.measure_end {
                            next_event = next_event.min(due);
                        }
                    }
                }
            }
            if next_event == u64::MAX {
                break;
            }
            cycle = next_event;
        } else {
            cycle += 1;
        }
    }
}

/// Run one simulation at `offered_flits_per_node_cycle` on the compiled
/// representation.  Bit-identical to
/// [`NetworkSim::run_reference`](crate::NetworkSim::run_reference), in
/// every injection and parallel mode, for every worker count.
pub(crate) fn run_flat(
    sim: &NetworkSim<'_>,
    net: &CompiledNetwork,
    offered_flits_per_node_cycle: f64,
) -> SimReport {
    let cfg = sim.config();
    let n = net.n;
    let num_vcs = net.num_vcs;
    let l = net.links.len();
    let layout = sim.topo.layout().clone();
    let rng = SmallRng::seed_from_u64(point_seed(cfg.seed, offered_flits_per_node_cycle));
    let packets_per_cycle = (offered_flits_per_node_cycle / cfg.average_flits()).clamp(0.0, 1.0);
    // Trace replay schedule; identical construction to the reference loop,
    // so both engines drain the exact same injection sequence.
    let trace_cursor = sim
        .trace
        .as_deref()
        .map(|t| TraceCursor::new(t, offered_flits_per_node_cycle));
    // Batched injection schedule (synthetic traffic, Schedule mode only);
    // same construction as the reference engine, so both consume the
    // identical per-source streams.
    let sched = (sim.trace.is_none() && cfg.injection == InjectionMode::Schedule)
        .then(|| InjectionSchedule::for_run(cfg, offered_flits_per_node_cycle, &sim.alive));

    // Injection and class coins as exact integer compares: `gen_bool(p)`
    // draws a 53-bit unit float and tests `u < p`, which is equivalent to
    // `(bits >> 11) < ceil(p * 2^53)` — both sides of that compare are
    // exactly representable, so one u64 comparison replaces the
    // int-to-float conversion on the hottest RNG path while consuming the
    // identical draw sequence.
    const F53: f64 = 9_007_199_254_740_992.0; // 2^53
    let inject_thr = (packets_per_cycle * F53).ceil() as u64;
    let data_thr = (cfg.data_fraction * F53).ceil() as u64;
    let data_flits = cfg.flits(PacketClass::Data) as u32;
    let ctrl_flits = cfg.flits(PacketClass::Control) as u32;

    // Wake-ups past the ring horizon are clamped inward — an early wake is
    // harmless (the visit just re-parks), a missed one would not be.
    // `max_flits` bounds the largest packet the run can carry; the
    // credit-release wake skip relies on it, so under trace replay the
    // trace's largest message is folded in.
    let mut max_flits = data_flits.max(ctrl_flits) as u64;
    if let Some(t) = sim.trace.as_deref() {
        let largest = t.messages.iter().map(|m| m.flits as u64).max();
        max_flits = max_flits.max(largest.unwrap_or(0));
    }
    let horizon = max_flits + cfg.link_latency + cfg.router_latency + 2;
    let ring_len = (horizon as usize + 1).next_power_of_two().max(16);
    let ring_mask = ring_len as u64 - 1;

    let total_cycles = cfg.warmup_cycles + cfg.measure_cycles + cfg.drain_cycles;
    let measure_start = cfg.warmup_cycles;
    let measure_end = cfg.warmup_cycles + cfg.measure_cycles;

    let k = Knobs {
        sim,
        layout,
        measure_start,
        measure_end,
        total_cycles,
        inject_thr,
        data_thr,
        data_flits,
        ctrl_flits,
        max_flits,
        link_latency: cfg.link_latency,
        router_latency: cfg.router_latency,
        num_links: l,
        force_parallel: cfg.parallel == ParallelMode::Force,
    };
    let mut counters = Counters {
        stats: LatencyStats::new(),
        packets: 0,
        window_flits: 0,
        outstanding: 0,
        packets_ejected: 0,
        flits_ejected: 0,
    };
    let mut probe = EpochProbe::new(cfg, measure_start, measure_end);
    let cell = StCell(UnsafeCell::new(St {
        net,
        num_vcs,
        vc_buffer_flits: cfg.vc_buffer_flits as u64,
        lstate: vec![LinkState::IDLE; l],
        routers: vec![
            RouterState {
                flits: 0,
                active_cycles: 0,
                last_active: u64::MAX,
                buf: RouterBuf {
                    buffered: 0,
                    since: 0,
                    flit_cycles: 0,
                },
            };
            n
        ],
        vc_occ: vec![0; l * num_vcs],
        residents: vec![Vec::new(); n],
        cand_keys: vec![Vec::new(); l],
        cand_ready: vec![Vec::new(); l],
        active: vec![0; l.div_ceil(64)],
        ring: vec![0; ring_len * l.div_ceil(64)],
        ring_mask,
        source_queues: vec![VecDeque::new(); n],
        head_out: vec![NONE; n],
        touched: vec![u64::MAX; n],
        snap: Vec::new(),
    }));

    // Engage helpers only when the mode, network size and pool width all
    // agree; the recorded results are identical either way.
    let pool: Option<&WorkerPool> = match cfg.parallel {
        ParallelMode::Off => None,
        ParallelMode::Auto => {
            if n >= PAR_MIN_ROUTERS {
                let p = sim.pool.unwrap_or_else(|| WorkerPool::global());
                (p.threads() >= 2).then_some(p)
            } else {
                None
            }
        }
        ParallelMode::Force => Some(sim.pool.unwrap_or_else(|| WorkerPool::global())),
    };
    if let Some(pool) = pool {
        let helper_count = pool.threads().clamp(1, PAR_MAX_HELPERS);
        let shared = ParShared::new(helper_count);
        let dec: Vec<DecSlot> = (0..l)
            .map(|_| DecSlot(UnsafeCell::new(Decision::Busy)))
            .collect();
        let helpers: Vec<Box<dyn FnOnce() + Send + '_>> = (0..helper_count)
            .map(|h| {
                let cell = &cell;
                let shared = &shared;
                let dec = &dec[..];
                Box::new(move || helper_loop(h, cell, dec, shared)) as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        pool.assist(helpers, || {
            let _finish = FinishGuard(&shared.finished);
            run_cycles(
                &cell,
                &k,
                rng,
                trace_cursor,
                sched,
                &mut counters,
                &mut probe,
                Some((&shared, &dec)),
            );
        });
    } else {
        run_cycles(
            &cell,
            &k,
            rng,
            trace_cursor,
            sched,
            &mut counters,
            &mut probe,
            None,
        );
    }
    let mut st = cell.0.into_inner();

    // Settle the lazily integrated buffer occupancies up to the end of the
    // measurement window, then close any epochs still open.
    for rs in st.routers.iter_mut() {
        rs.buf.accrue(measure_end, measure_start, measure_end);
    }
    let epochs = probe.finish(&st.routers);
    let measure_cycles = cfg.measure_cycles as f64;
    let injected = counters.window_flits as f64 / (n as f64 * measure_cycles);
    let accepted = counters.flits_ejected as f64 / (n as f64 * measure_cycles);
    let activity = ActivityProfile {
        measured_cycles: cfg.measure_cycles,
        links: net
            .links
            .iter()
            .enumerate()
            .map(|(idx, &(from, to))| LinkActivity {
                from,
                to,
                flits: st.lstate[idx].flits,
                busy_cycles: st.lstate[idx].busy_cycles,
            })
            .collect(),
        routers: (0..n)
            .map(|r| RouterActivity {
                router: r,
                flits_forwarded: st.routers[r].flits,
                active_cycles: st.routers[r].active_cycles,
                buffer_flit_cycles: st.routers[r].buf.flit_cycles,
            })
            .collect(),
    };
    let avg_latency_cycles = counters.stats.mean();
    SimReport {
        offered_flits_per_node_cycle,
        injected_flits_per_node_cycle: injected,
        accepted_flits_per_node_cycle: accepted,
        avg_latency_cycles,
        p95_latency_cycles: counters.stats.percentile(0.95),
        p99_latency_cycles: counters.stats.percentile(0.99),
        avg_latency_ns: cfg.cycles_to_ns(avg_latency_cycles),
        packets_injected: counters.packets,
        packets_ejected: counters.packets_ejected,
        packets_unfinished: counters.outstanding,
        avg_link_utilization: activity.avg_link_utilization(),
        activity,
        epochs,
        latency: counters.stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsmith_route::paths::all_shortest_paths;
    use netsmith_route::{allocate_vcs, mclb_route, MclbConfig};
    use netsmith_topo::expert;
    use netsmith_topo::Layout;

    #[test]
    fn compiled_tables_cover_every_routed_flow() {
        let mesh = expert::mesh(&Layout::noi_4x5());
        let ps = all_shortest_paths(&mesh);
        let table = mclb_route(&ps, &MclbConfig::default());
        let alloc = allocate_vcs(&table, 6, 42).unwrap();
        let net = CompiledNetwork::compile(&mesh, &table, Some(&alloc), &SimConfig::quick());
        assert_eq!(net.num_links(), mesh.num_directed_links());
        assert_eq!(net.num_routed_flows(), table.num_routed_flows());
        // Total hop entries = sum of per-flow hop counts.
        let expected_hops: usize = table.flows().map(|(_, p)| p.len() - 1).sum();
        assert_eq!(net.num_hops(), expected_hops);
        // Every compiled hop refers to a real link, in path order.
        for (flow, path) in table.flows() {
            let fi = flow.src * 20 + flow.dst;
            let off = net.path_offsets[fi] as usize;
            let end = net.path_offsets[fi + 1] as usize;
            assert_eq!(end - off, path.len() - 1);
            for (k, pair) in path_links(path).enumerate() {
                let link = net.hops[off + k];
                assert_ne!(link, NONE);
                assert_eq!(net.links[link as usize], pair);
            }
            assert_eq!(net.first_hop(fi as u32), net.hops[off]);
        }
    }

    #[test]
    fn unrouted_flows_compile_to_empty_ranges() {
        let mesh = expert::mesh(&Layout::noi_4x5());
        let table = RoutingTable::new(20, "empty");
        let net = CompiledNetwork::compile(&mesh, &table, None, &SimConfig::quick());
        assert_eq!(net.num_routed_flows(), 0);
        assert_eq!(net.num_hops(), 0);
        assert_eq!(net.first_hop(0), NONE);
    }

    #[test]
    fn flat_run_matches_reference_on_a_mesh() {
        let mesh = expert::mesh(&Layout::noi_4x5());
        let ps = all_shortest_paths(&mesh);
        let table = mclb_route(&ps, &MclbConfig::default());
        let alloc = allocate_vcs(&table, 6, 42).unwrap();
        let sim = NetworkSim::builder(&mesh, &table)
            .vcs(&alloc)
            .config(SimConfig::quick())
            .build();
        for load in [0.02, 0.3, 0.9] {
            assert_eq!(sim.run(load), sim.run_reference(load), "load {load}");
        }
    }

    #[test]
    fn legacy_coin_mode_matches_reference() {
        let mesh = expert::mesh(&Layout::noi_4x5());
        let ps = all_shortest_paths(&mesh);
        let table = mclb_route(&ps, &MclbConfig::default());
        let alloc = allocate_vcs(&table, 6, 42).unwrap();
        let sim = NetworkSim::builder(&mesh, &table)
            .vcs(&alloc)
            .config(SimConfig {
                injection: InjectionMode::LegacyCoins,
                ..SimConfig::quick()
            })
            .build();
        for load in [0.02, 0.3, 0.9] {
            assert_eq!(sim.run(load), sim.run_reference(load), "load {load}");
        }
    }

    #[test]
    fn forced_parallelism_is_bit_identical_to_sequential() {
        let mesh = expert::mesh(&Layout::noi_4x5());
        let ps = all_shortest_paths(&mesh);
        let table = mclb_route(&ps, &MclbConfig::default());
        let alloc = allocate_vcs(&table, 6, 42).unwrap();
        let base = SimConfig {
            epoch_cycles: 250,
            ..SimConfig::quick()
        };
        let seq = NetworkSim::builder(&mesh, &table)
            .vcs(&alloc)
            .config(SimConfig {
                parallel: ParallelMode::Off,
                ..base.clone()
            })
            .build();
        let pool = WorkerPool::new(2);
        let par = NetworkSim::builder(&mesh, &table)
            .vcs(&alloc)
            .pool(&pool)
            .config(SimConfig {
                parallel: ParallelMode::Force,
                ..base
            })
            .build();
        for load in [0.05, 0.3, 0.9] {
            assert_eq!(par.run(load), seq.run(load), "load {load}");
        }
    }

    #[test]
    fn epoch_probe_is_off_by_default_and_reference_never_fills_it() {
        let mesh = expert::mesh(&Layout::noi_4x5());
        let ps = all_shortest_paths(&mesh);
        let table = mclb_route(&ps, &MclbConfig::default());
        let alloc = allocate_vcs(&table, 6, 42).unwrap();
        let sim = NetworkSim::builder(&mesh, &table)
            .vcs(&alloc)
            .config(SimConfig::quick())
            .build();
        assert!(sim.run(0.2).epochs.is_none());
        assert!(sim.run_reference(0.2).epochs.is_none());
    }

    #[test]
    fn epoch_probe_slices_the_window_and_sums_to_the_report() {
        let mesh = expert::mesh(&Layout::noi_4x5());
        let ps = all_shortest_paths(&mesh);
        let table = mclb_route(&ps, &MclbConfig::default());
        let alloc = allocate_vcs(&table, 6, 42).unwrap();
        let config = SimConfig {
            epoch_cycles: 400, // 1500-cycle window -> 4 epochs, last short
            ..SimConfig::quick()
        };
        let sim = NetworkSim::builder(&mesh, &table)
            .vcs(&alloc)
            .config(config.clone())
            .build();
        let report = sim.run(0.2);
        let series = report.epochs.as_ref().expect("probe enabled");
        assert_eq!(series.epoch_cycles, 400);
        assert_eq!(series.samples.len(), 4);
        let measure_start = config.warmup_cycles;
        let measure_end = config.warmup_cycles + config.measure_cycles;
        for (e, s) in series.samples.iter().enumerate() {
            assert_eq!(s.start_cycle, measure_start + e as u64 * 400);
            assert_eq!(s.end_cycle, (s.start_cycle + 400).min(measure_end));
            assert!(s.mean_latency_cycles >= 0.0);
            assert!(s.p95_latency_cycles >= s.mean_latency_cycles * 0.5);
        }
        // Per-epoch counters partition the window totals exactly.
        let n = 20.0;
        let measure = config.measure_cycles as f64;
        let injected: u64 = series.samples.iter().map(|s| s.injected_flits).sum();
        let accepted: u64 = series.samples.iter().map(|s| s.accepted_flits).sum();
        let ejected: u64 = series.samples.iter().map(|s| s.packets_ejected).sum();
        assert!(
            (injected as f64 / (n * measure) - report.injected_flits_per_node_cycle).abs() < 1e-12
        );
        assert!(
            (accepted as f64 / (n * measure) - report.accepted_flits_per_node_cycle).abs() < 1e-12
        );
        assert_eq!(ejected, report.packets_ejected);
        assert!(injected > 0, "a 20% load must inject in every window");
        // At a sustainable load with nonzero latency some buffers are
        // occupied at least at one epoch boundary.
        assert!(series.samples.iter().any(|s| s.accepted_flits > 0));
    }

    #[test]
    fn epoch_probe_does_not_perturb_the_simulation() {
        let mesh = expert::mesh(&Layout::noi_4x5());
        let ps = all_shortest_paths(&mesh);
        let table = mclb_route(&ps, &MclbConfig::default());
        let alloc = allocate_vcs(&table, 6, 42).unwrap();
        let off = NetworkSim::builder(&mesh, &table)
            .vcs(&alloc)
            .config(SimConfig::quick())
            .build();
        let on = NetworkSim::builder(&mesh, &table)
            .vcs(&alloc)
            .config(SimConfig {
                epoch_cycles: 250,
                ..SimConfig::quick()
            })
            .build();
        for load in [0.05, 0.3, 0.9] {
            let mut probed = on.run(load);
            assert!(probed.epochs.take().is_some());
            assert_eq!(probed, off.run(load), "load {load}");
        }
    }

    #[test]
    fn quiescence_skip_preserves_full_drain_semantics() {
        // A drain window far longer than the traffic needs: the skip path
        // must cut straight to the end without changing any statistic.
        let mesh = expert::mesh(&Layout::noi_4x5());
        let ps = all_shortest_paths(&mesh);
        let table = mclb_route(&ps, &MclbConfig::default());
        let alloc = allocate_vcs(&table, 6, 42).unwrap();
        let config = SimConfig {
            warmup_cycles: 100,
            measure_cycles: 500,
            drain_cycles: 100_000,
            ..SimConfig::default()
        };
        let sim = NetworkSim::builder(&mesh, &table)
            .vcs(&alloc)
            .config(config)
            .build();
        let report = sim.run(0.1);
        assert_eq!(report, sim.run_reference(0.1));
        assert_eq!(report.packets_unfinished, 0);
    }
}
