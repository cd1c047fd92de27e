//! The compiled flat-state simulation engine.
//!
//! [`NetworkSim::run`](crate::NetworkSim::run) lowers the routing table and
//! VC allocation into dense arrays once per `(topology, table, vcs)` and
//! then drives a hot loop built around three levers:
//!
//! * **Batched injection sampling** — Bernoulli traffic comes from
//!   per-source next-injection schedules ([`InjectionSchedule`]):
//!   geometric inter-arrival gaps are skip-sampled once per *arrival*
//!   instead of one coin per source per cycle, so an idle cycle draws zero
//!   RNG.  Because the injection stream (a schedule or a replayed trace)
//!   is then a pure function of the run's inputs — independent of which
//!   cycles the engine visits — a commit-free cycle can jump straight to
//!   the next ready/free/due threshold even inside the measurement window,
//!   which is where sub-saturation sweep points spend most of their
//!   cycles.  The reference engine consumes the identical schedule, so the
//!   two stay bit-for-bit equal.
//! * **Vectorized candidate scan** — each output link keeps its
//!   candidates as two parallel slabs: a packed `(created << 20) | slot`
//!   tie-break key and a `ready_at` cycle.  Arbitration is a branchless
//!   dual min-reduction over the zipped slices (eligible → min key,
//!   in-flight → min ready), which LLVM turns into straight-line
//!   compare/select code; the packed key makes "oldest, lowest slot" a
//!   single integer `min`, reproducing the reference scan's
//!   first-strictly-older tie-break exactly.
//! * **A calendar of parked links** — a link with provably nothing to do
//!   until a known cycle leaves the active set and re-arms through a
//!   power-of-two ring of bitmaps, so each cycle visits only links that
//!   can act.
//!
//! The engine replays the exact event sequence of the scan-based loop
//! ([`NetworkSim::run_reference`](crate::NetworkSim::run_reference)): the
//! same injection stream, the same winner for every output link, the same
//! mid-cycle visibility of earlier links' commits.  Links are therefore
//! arbitrated and committed one at a time in ascending id order, because
//! a commit can change what a later link sees in the same cycle.  Reports
//! are bit-identical; the `compiled_equivalence` proptests assert that
//! across random topologies, patterns, loads and failure masks.
//!
//! [`InjectionSchedule`]: crate::inject::InjectionSchedule

use crate::activity::{ActivityProfile, LinkActivity, RouterActivity};
use crate::config::{PacketClass, SimConfig};
use crate::inject::InjectionSchedule;
use crate::network::{EpochSample, EpochSeries, NetworkSim, SimReport};
use crate::stats::LatencyStats;
use netsmith_route::paths::path_links;
use netsmith_route::{Flow, RoutingTable, VcAllocation};
use netsmith_topo::{Layout, RouterId, Topology};
use netsmith_trace::TraceCursor;
use std::collections::VecDeque;

/// Sentinel for "no link": an unrouted flow, an empty source queue, a
/// resident with no physical output (packets on such flows block forever,
/// exactly as under the reference scan).
const NONE: u32 = u32::MAX;

/// Low bits of a packed candidate key holding the slab slot; the high
/// bits hold the creation cycle, so an integer `min` over keys is the
/// lexicographic `(created, slot)` minimum the arbitration needs.
const SLOT_BITS: u32 = 20;
const SLOT_MASK: u64 = (1 << SLOT_BITS) - 1;

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

/// What one output link does this cycle, as computed by
/// [`St::arbitrate_pre`].
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
    max_flits: u64,
    link_latency: u64,
    router_latency: u64,
    num_links: usize,
}

/// Where a run's packets come from.  Neither source draws RNG per cycle,
/// so the cycle loop may jump any commit-free stretch up to the next due
/// injection.
enum Injection<'t> {
    /// Replay of a recorded trace at the run's offered load.
    Trace(TraceCursor<'t>),
    /// Batched Bernoulli sampling over the run's traffic pattern.
    Schedule(InjectionSchedule),
}

impl Injection<'_> {
    /// The cycle of the next injection, if any remains.
    fn next_due(&self) -> Option<u64> {
        match self {
            Injection::Trace(cursor) => cursor.next_due(),
            Injection::Schedule(s) => s.next_due(),
        }
    }
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

/// The mutable simulation state of one run.
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
}

impl St<'_> {
    /// Park `link` in the calendar bucket for cycle `t` (one bit-OR).
    #[inline]
    fn ring_push(&mut self, t: u64, link: u32) {
        let words = self.active.len();
        let idx = (t & self.ring_mask) as usize;
        self.ring[idx * words + (link / 64) as usize] |= 1u64 << (link % 64);
    }

    /// Make `link` get examined again as soon as examining it could
    /// matter: immediately when the link is idle, otherwise at `free_at`
    /// through the ring — a busy link cannot commit before it frees, and
    /// `free_at` only grows through the link's own commits (which re-arm
    /// it themselves), so deferring the visit is exact and skips every
    /// pointless busy-check in between.  Duplicate wake-ups are harmless:
    /// a visit that finds nothing to do parks the link again.
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

    /// Queue every packet `injection` has due at `cycle`.  Returns whether
    /// one of them became a source-queue head, i.e. whether the
    /// injections could wake a link.
    fn inject_due(
        &mut self,
        k: &Knobs<'_, '_>,
        injection: &mut Injection<'_>,
        cycle: u64,
        counters: &mut Counters,
        probe: &mut EpochProbe,
    ) -> bool {
        let in_window = cycle >= k.measure_start && cycle < k.measure_end;
        let mut woke = false;
        let mut push = |st: &mut Self, src: usize, dst: usize, flits: u32| {
            let flow = (src * st.net.n + dst) as u32;
            if in_window {
                counters.packets += 1;
                counters.window_flits += flits as u64;
                counters.outstanding += 1;
                probe.note_injected(cycle, flits as u64);
            }
            woke |= st.source_queues[src].is_empty();
            st.push_source_packet(cycle, src, flits, flow);
        };
        match injection {
            // Drain every message due this cycle, masking failed
            // endpoints exactly as the reference loop does.
            Injection::Trace(cursor) => {
                while let Some(m) = cursor.pop_due(cycle) {
                    let (src, dst) = (m.src as usize, m.dst as usize);
                    if k.sim.alive[src] && k.sim.alive[dst] {
                        push(self, src, dst, m.flits);
                    }
                }
            }
            // Destination and class are already drawn and validated
            // inside the schedule.
            Injection::Schedule(s) => {
                while let Some(ev) = s.pop_due(cycle, &k.sim.pattern, &k.layout, &k.sim.alive) {
                    push(self, ev.src as usize, ev.dst as usize, ev.flits);
                }
            }
        }
        woke
    }

    /// Decide what output link `o` does this cycle, with exactly the
    /// reference loop's semantics: oldest eligible candidate wins, ties to
    /// the lowest slot, the source-queue head loses ties, and a forward
    /// needs downstream credit for the whole packet.  Also returns the
    /// winner read-out: everything the commit needs about the winning
    /// packet, captured while its cache lines are hot so
    /// [`St::commit_pre`] never re-reads the queue head, resident slab or
    /// path table.  The read-out is meaningful only for commit decisions.
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

    /// Commit a winning decision on link `o` with the winner read-out from
    /// [`St::arbitrate_pre`]: dequeue the winner, account the
    /// serialization, and either eject or forward.  Deliberately not
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

/// The cycle loop.
fn run_cycles(
    st: &mut St<'_>,
    k: &Knobs<'_, '_>,
    mut injection: Injection<'_>,
    counters: &mut Counters,
    probe: &mut EpochProbe,
) {
    let l = k.num_links;
    let mut cycle: u64 = 0;
    while cycle < k.total_cycles {
        let in_window = cycle >= k.measure_start && cycle < k.measure_end;
        probe.close_finished(cycle, &st.routers);
        st.drain_ring(cycle);
        // Traffic generation.  (Buffer occupancy for the router activity
        // profile is integrated lazily at change points — see
        // `RouterBuf::accrue` — instead of the reference loop's per-cycle
        // sampling pass.)
        if cycle < k.measure_end {
            st.inject_due(k, &mut injection, cycle, counters, probe);
        }
        // Visit active links in ascending id order (the reference loop's
        // iteration order), reading the active set live so commits at
        // earlier links are visible to later ones within the same cycle.
        let mut committed = false;
        let mut scan = 0usize;
        while scan < l {
            let word = st.active[scan / 64] & (!0u64 << (scan % 64));
            if word == 0 {
                scan = (scan / 64 + 1) * 64;
                continue;
            }
            let o = (scan / 64) * 64 + word.trailing_zeros() as usize;
            scan = o + 1;
            let (d, pre) = st.arbitrate_pre(o, cycle);
            match d {
                Decision::Busy => {
                    // Still serializing: park until the link frees.
                    clear_bit(&mut st.active, o as u32);
                    st.ring_push(st.lstate[o].free_at.min(cycle + st.ring_mask), o as u32);
                }
                Decision::Park(next_ready) => {
                    // Nothing can move.  With no candidate at all the link
                    // goes dark until an add or a new source head re-arms
                    // it; otherwise everything is still in flight — re-arm
                    // at the earliest arrival.
                    clear_bit(&mut st.active, o as u32);
                    if next_ready != u64::MAX {
                        st.ring_push(next_ready.min(cycle + st.ring_mask), o as u32);
                    }
                }
                Decision::CommitSource | Decision::CommitSlot(_) => {
                    committed = true;
                    st.commit_pre(o, cycle, d, pre, k, counters, probe, in_window);
                }
            }
        }
        if committed {
            cycle += 1;
            continue;
        }
        // Quiescence / idle-stretch skip.  A commit-free scan parks every
        // woken link (wakes only happen on commits), so the active set is
        // empty and every pending state change is chained through the
        // calendar: an arrival or busy link re-arms its link at (at most)
        // its threshold cycle, and a clamped entry re-parks itself forward
        // on each early visit.  The earliest non-empty bucket is therefore
        // the exact next event — no resident or link scan needed.  What
        // has no calendar chain is permanently stalled (unrouted or
        // credit-deadlocked) and never changes the report again.  Jump to
        // that event or the next injection that can wake a link, whichever
        // comes first; stop when there is none.
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
        // Due injections are not jump barriers in themselves: one that
        // lands in a non-empty source queue only appends to the tail
        // (`push_source_packet` wakes the first-hop link solely on the
        // empty→head transition), so the idle stretch consumes such
        // injections in place — same streams, same due cycles, same order
        // — and only ends where one finds its queue empty and can actually
        // wake something.  Saturated sweeps spend most of their
        // post-collapse cycles exactly here.
        while let Some(due) = injection.next_due() {
            if due >= next_event || due >= k.measure_end {
                break;
            }
            if st.inject_due(k, &mut injection, due, counters, probe) {
                next_event = due;
                break;
            }
        }
        if next_event == u64::MAX {
            break;
        }
        cycle = next_event;
    }
}

/// Run one simulation at `offered_flits_per_node_cycle` on the compiled
/// representation.  Bit-identical to
/// [`NetworkSim::run_reference`](crate::NetworkSim::run_reference).
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
    // Same construction as the reference engine, so both drain the exact
    // same injection sequence.
    let injection = match sim.trace.as_deref() {
        Some(t) => Injection::Trace(TraceCursor::new(t, offered_flits_per_node_cycle)),
        None => Injection::Schedule(InjectionSchedule::for_run(
            cfg,
            offered_flits_per_node_cycle,
            &sim.alive,
        )),
    };

    // Wake-ups past the ring horizon are clamped inward — an early wake is
    // harmless (the visit just re-parks), a missed one would not be.
    // `max_flits` bounds the largest packet the run can carry; the
    // credit-release wake skip relies on it, so under trace replay the
    // trace's largest message is folded in.
    let mut max_flits = cfg
        .flits(PacketClass::Data)
        .max(cfg.flits(PacketClass::Control)) as u64;
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
        max_flits,
        link_latency: cfg.link_latency,
        router_latency: cfg.router_latency,
        num_links: l,
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
    let mut st = St {
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
    };
    run_cycles(&mut st, &k, injection, &mut counters, &mut probe);

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
