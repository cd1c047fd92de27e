//! The epoch-driven serving loop.
//!
//! One call to [`serve`] plays a whole lifetime: the [`LoadProcess`]
//! schedules per-epoch offered loads and traffic mixes, the
//! [`FaultTape`] lands permanent faults at epoch boundaries (repaired
//! online by [`RerouteRepair`]; an irreparable fabric serves nothing and
//! the lost epochs count as downtime), and the configured online policy
//! re-decides its operating point each epoch from the *previous* epoch's
//! measured [`ActivityProfile`](netsmith_sim::ActivityProfile) — a
//! closed loop, not an oracle.  Every served epoch is one `run` segment
//! on the compiled simulator with the epoch probe enabled, and the
//! horizon's latency tail is the exact merge of every epoch's histogram.

use crate::load::{LoadProcess, LoadSpec};
use crate::report::{EpochRecord, ServingReport};
use crate::tape::{FaultTape, TapeSpec};
use netsmith_energy::{Dvfs, DvfsLevel, EnergyConfig, EnergyContext, GatedNetwork, LinkSleep};
use netsmith_fault::{Fault, FaultScenario, RepairConfig, RepairPolicy, RerouteRepair};
use netsmith_obs::{Attr, Obs};
use netsmith_power::power_report_from_activity;
use netsmith_route::{RoutingTable, VcAllocation};
use netsmith_sim::{splitmix64, LatencyStats, NetworkSim, SimConfig, SimReport};
use netsmith_topo::traffic::TrafficPattern;
use netsmith_topo::{RouterId, Topology};
use netsmith_trace::Trace;
use serde::{Deserialize, Serialize};

/// Surviving-link utilization at which a LinkSleep horizon stops
/// re-gating and runs one epoch fully awake.  Gated links are invisible
/// to the next measurement, so without this valve the plan can only
/// ratchet tighter as the survivors absorb more traffic.
const WAKE_UTILIZATION: f64 = 0.25;

/// Delivered fraction below which LinkSleep treats the previous epoch as
/// congested and wakes the whole fabric regardless of utilization.
const WAKE_DELIVERED_FLOOR: f64 = 0.985;

/// The online policy a serving run re-decides every epoch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PolicyKind {
    /// Every link powered, nominal clock — the baseline.
    AlwaysOn,
    /// Power-gate links that looked idle in the previous epoch
    /// (threshold on the busier direction's utilization); traffic is
    /// re-routed off the sleeping links, which stay connected and
    /// deadlock-free by construction.
    LinkSleep { idle_threshold: f64 },
    /// Clock/voltage scaling to the previous epoch's utilization.
    Dvfs,
}

impl PolicyKind {
    /// The CSV/report label; matches `fig12_energy`'s policy naming.
    pub fn label(&self) -> &'static str {
        match self {
            PolicyKind::AlwaysOn => "always_on",
            PolicyKind::LinkSleep { .. } => "link_sleep",
            PolicyKind::Dvfs => "dvfs",
        }
    }

    /// The three standard policies compared by `fig16_serving`.
    pub fn standard(idle_threshold: f64) -> Vec<PolicyKind> {
        vec![
            PolicyKind::AlwaysOn,
            PolicyKind::LinkSleep { idle_threshold },
            PolicyKind::Dvfs,
        ]
    }
}

/// Everything a serving horizon needs beyond the prepared network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServingConfig {
    /// Horizon length in epochs.
    pub epochs: u64,
    /// Load-process shape.
    pub load: LoadSpec,
    /// Lifetime fault-process shape.
    pub tape: TapeSpec,
    /// The online policy under test.
    pub policy: PolicyKind,
    /// Synthetic traffic pattern each epoch draws from.
    pub pattern: TrafficPattern,
    /// Per-epoch simulator segment: the warmup/measure/drain windows and
    /// the clock.  `seed`, `data_fraction` and `epoch_cycles` are
    /// overridden per epoch by the loop.
    pub sim: SimConfig,
    /// Technology constants for the energy accounting.
    pub energy: EnergyConfig,
    /// Budget/seed for online re-route repair.
    pub repair: RepairConfig,
    /// Epochs offered less than this count as "low-load" in the report.
    pub low_load_threshold: f64,
    /// Master seed: derives the load process, the per-epoch simulator
    /// seeds, and (together with the tape seed) the whole lifetime.
    pub seed: u64,
}

impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig {
            epochs: 256,
            load: LoadSpec::default(),
            tape: TapeSpec::default(),
            policy: PolicyKind::AlwaysOn,
            pattern: TrafficPattern::UniformRandom,
            sim: SimConfig {
                warmup_cycles: 100,
                measure_cycles: 400,
                drain_cycles: 200,
                ..SimConfig::default()
            },
            energy: EnergyConfig::default(),
            repair: RepairConfig::default(),
            low_load_threshold: 0.12,
            seed: 0x5E7E_2024,
        }
    }
}

/// The prepared network a horizon starts from, plus optional extras.
pub struct ServingInputs<'a> {
    /// The healthy topology (faults degrade a clone of it).
    pub topology: &'a Topology,
    /// Its routing table.
    pub routing: &'a RoutingTable,
    /// Its deadlock-free VC allocation.
    pub vcs: &'a VcAllocation,
    /// Optional trace whose demand shape modulates the load process.
    pub modulation: Option<&'a Trace>,
}

impl<'a> ServingInputs<'a> {
    pub fn new(topology: &'a Topology, routing: &'a RoutingTable, vcs: &'a VcAllocation) -> Self {
        ServingInputs {
            topology,
            routing,
            vcs,
            modulation: None,
        }
    }

    pub fn modulated_by(mut self, trace: &'a Trace) -> Self {
        self.modulation = Some(trace);
        self
    }
}

/// The fabric currently serving traffic: the healthy network at first,
/// then whatever the online repair last produced.
struct Fabric {
    topology: Topology,
    routing: RoutingTable,
    vcs: VcAllocation,
    failed: Vec<RouterId>,
}

/// Play one serving horizon and return its SLA report.
///
/// Deterministic: the report (including every per-epoch record and the
/// merged latency histogram) is a pure function of the inputs and the
/// config, on whichever thread it runs.
pub fn serve(inputs: &ServingInputs<'_>, config: &ServingConfig, obs: &Obs) -> ServingReport {
    let span = obs.span("serve.horizon");
    let process = LoadProcess::new(&config.load, config.epochs, config.seed, inputs.modulation);
    let tape = FaultTape::sample(inputs.topology, &config.tape, config.epochs);
    let epochs_counter = obs.counter("serve.epochs");
    let sleep = match config.policy {
        PolicyKind::LinkSleep { idle_threshold } => LinkSleep {
            idle_threshold,
            ..LinkSleep::default()
        },
        _ => LinkSleep::default(),
    };
    let dvfs = Dvfs::default();

    let mut fabric = Some(Fabric {
        topology: inputs.topology.clone(),
        routing: inputs.routing.clone(),
        vcs: inputs.vcs.clone(),
        failed: Vec::new(),
    });
    let mut accumulated_faults: Vec<Fault> = Vec::new();
    let mut prev_report: Option<SimReport> = None;
    let mut prev_gated: Vec<(RouterId, RouterId)> = Vec::new();

    let mut records = Vec::with_capacity(config.epochs as usize);
    let mut horizon_stats = LatencyStats::new();
    let mut availability_sum = 0.0;
    let mut repairs_ok = 0u64;
    let mut downtime_epochs = 0u64;
    let mut delivered_total = 0u64;
    let mut energy_total_pj = 0.0;
    let mut low_load_epochs = 0u64;
    let mut low_energy_pj = 0.0;
    let mut low_delivered = 0u64;
    let mut gated_pair_epochs = 0u64;

    for e in 0..config.epochs {
        epochs_counter.add(1);
        // -- Lifetime events: faults land at this boundary, repair runs
        // online on the cumulative degradation of the *healthy* network.
        let arrivals: Vec<Fault> = tape.arrivals_at(e).collect();
        let fault_arrived = !arrivals.is_empty();
        if fault_arrived {
            obs.add("serve.faults", arrivals.len() as u64);
            accumulated_faults.extend(arrivals);
            let scenario = FaultScenario::new(accumulated_faults.clone());
            let degraded = scenario.apply(inputs.topology);
            match RerouteRepair.repair(&degraded, &config.repair) {
                Ok(repaired) => {
                    repairs_ok += 1;
                    obs.add("serve.repairs_ok", 1);
                    fabric = Some(Fabric {
                        failed: repaired.failed_routers(),
                        topology: repaired.topology,
                        routing: repaired.routing,
                        vcs: repaired.vcs,
                    });
                }
                Err(_) => {
                    obs.add("serve.repairs_infeasible", 1);
                    fabric = None;
                }
            }
            // The fabric changed (or died): last epoch's activity no
            // longer describes it, so the closed loop restarts cold.
            prev_report = None;
            prev_gated.clear();
        }

        let el = process.epoch(e);
        let Some(fab) = fabric.as_ref() else {
            // Repair was infeasible: the epoch is downtime, not a panic.
            downtime_epochs += 1;
            obs.add("serve.downtime_epochs", 1);
            if el.offered < config.low_load_threshold {
                low_load_epochs += 1;
            }
            records.push(EpochRecord {
                epoch: e,
                offered: el.offered,
                data_fraction: el.data_fraction,
                routable: false,
                delivered_fraction: 0.0,
                delivered_flits: 0,
                total_mw: 0.0,
                energy_pj: 0.0,
                avg_link_utilization: 0.0,
                mean_latency_cycles: 0.0,
                p95_latency_cycles: 0.0,
                gated_pairs: 0,
                freq_scale: 0.0,
                fault_arrived,
            });
            continue;
        };

        // -- Online policy: re-decide from the previous epoch's measured
        // activity (closed loop — epoch 0 and post-repair epochs run at
        // the always-on operating point until a measurement exists).
        let mut epoch_cfg = config.sim.clone();
        epoch_cfg.seed = splitmix64(config.seed ^ (e + 1));
        epoch_cfg.data_fraction = el.data_fraction;

        let mut level = DvfsLevel::nominal();
        let mut gate_plan: Option<GatedNetwork> = None;
        match (config.policy, prev_report.as_ref()) {
            (PolicyKind::Dvfs, Some(prev)) => {
                level = dvfs.select_level(prev.activity.avg_link_utilization());
            }
            (PolicyKind::LinkSleep { .. }, Some(prev)) => {
                // Wake on pressure: links gated last epoch are absent
                // from `prev`'s activity, so a naive re-gate would hold
                // them asleep forever (the survivors absorb the traffic
                // and the sleepers always read idle).  When the surviving
                // links run warm — or delivery slipped — the whole fabric
                // wakes for one epoch, gets measured in full, and only
                // genuinely idle links go back to sleep.
                let pressured = prev.activity.avg_link_utilization() >= WAKE_UTILIZATION
                    || prev.delivered_fraction() < WAKE_DELIVERED_FLOOR;
                if !pressured {
                    let ctx = EnergyContext {
                        topology: &fab.topology,
                        routing: &fab.routing,
                        vcs: &fab.vcs,
                        sim: &epoch_cfg,
                        report: prev,
                        config: &config.energy,
                    };
                    if let Ok(plan) = sleep.gate(&ctx) {
                        if !plan.gated_pairs.is_empty() {
                            gate_plan = Some(plan);
                        }
                    }
                }
            }
            _ => {}
        }
        // Demand-preserving DVFS: the epoch covers a fixed slice of wall
        // time, so a downclocked epoch has proportionally fewer cycles
        // and a proportionally higher per-cycle injection rate — the
        // offered traffic per nanosecond is the same operating point the
        // nominal clock would serve, just on a slower fabric.
        if level.freq_scale < 1.0 {
            let scale = |c: u64| ((c as f64 * level.freq_scale).round() as u64).max(1);
            epoch_cfg.warmup_cycles = scale(epoch_cfg.warmup_cycles);
            epoch_cfg.measure_cycles = scale(epoch_cfg.measure_cycles);
            epoch_cfg.drain_cycles = scale(epoch_cfg.drain_cycles);
            epoch_cfg.clock_ghz *= level.freq_scale;
        }
        epoch_cfg.epoch_cycles = epoch_cfg.measure_cycles.max(1);
        let offered = (el.offered / level.freq_scale).min(1.0);
        let (topo, routing, vcs) = match gate_plan.as_ref() {
            Some(plan) => (&plan.topology, &plan.routing, &plan.vcs),
            None => (&fab.topology, &fab.routing, &fab.vcs),
        };

        // -- One epoch = one run segment on the compiled engine, with the
        // per-epoch probe enabled.
        let report = NetworkSim::builder(topo, routing)
            .vcs(vcs)
            .pattern(config.pattern.clone())
            .failed_routers(&fab.failed)
            .config(epoch_cfg.clone())
            .compile()
            .run(offered);

        // -- Energy accounting over the epoch's wall-clock duration.
        let gated: &[(RouterId, RouterId)] = gate_plan
            .as_ref()
            .map(|p| p.gated_pairs.as_slice())
            .unwrap_or(&[]);
        let power =
            power_report_from_activity(topo, &config.energy.power, &epoch_cfg, &report.activity);
        let mut static_mw = power.static_mw;
        let mut dynamic_mw = power.dynamic_mw;
        // Gated links leak a residual fraction even while asleep (they
        // are absent from the gated topology, so the baseline above does
        // not count them at all).
        let layout = fab.topology.layout();
        for &(i, j) in gated {
            static_mw += (layout.distance_mm(i, j) * config.energy.power.wire_leakage_mw_per_mm
                + config.energy.power.link_port_leakage_mw)
                * config.energy.gated_leakage_fraction;
        }
        // `epoch_cfg` already carries the DVFS-scaled clock and windows,
        // so the wall-clock slice is level-independent and the measured
        // flits/ns are the true downclocked throughput; what remains is
        // the voltage scaling — V² on switching energy, V on leakage.
        let epoch_ns = epoch_cfg.measure_cycles as f64 / epoch_cfg.clock_ghz;
        if config.policy == PolicyKind::Dvfs {
            dynamic_mw *= level.voltage_scale.powi(2);
            static_mw *= level.voltage_scale;
        }
        // Pairs woken at this boundary pay their wake energy, spread over
        // the epoch (1 pJ/ns = 1 mW).
        let woken = prev_gated.iter().filter(|p| !gated.contains(p)).count();
        dynamic_mw += woken as f64 * config.energy.wake_energy_pj / epoch_ns;
        let total_mw = static_mw + dynamic_mw;
        let energy_pj = total_mw * epoch_ns;

        let n = fab.topology.num_routers() as f64;
        let delivered = (report.accepted_flits_per_node_cycle * n * epoch_cfg.measure_cycles as f64)
            .round() as u64;

        horizon_stats.merge(&report.latency);
        availability_sum += report.delivered_fraction();
        delivered_total += delivered;
        energy_total_pj += energy_pj;
        gated_pair_epochs += gated.len() as u64;
        if el.offered < config.low_load_threshold {
            low_load_epochs += 1;
            low_energy_pj += energy_pj;
            low_delivered += delivered;
        }

        records.push(EpochRecord {
            epoch: e,
            offered: el.offered,
            data_fraction: el.data_fraction,
            routable: true,
            delivered_fraction: report.delivered_fraction(),
            delivered_flits: delivered,
            total_mw,
            energy_pj,
            avg_link_utilization: report.activity.avg_link_utilization(),
            mean_latency_cycles: report.avg_latency_cycles,
            p95_latency_cycles: report.p95_latency_cycles,
            gated_pairs: gated.len() as u32,
            freq_scale: level.freq_scale,
            fault_arrived,
        });
        prev_gated = gated.to_vec();
        prev_report = Some(report);
    }

    if obs.enabled() {
        emit_series(obs, config, &tape, &records);
    }
    span.close();

    let per_flit = |pj: f64, flits: u64| if flits == 0 { 0.0 } else { pj / flits as f64 };
    ServingReport {
        policy: config.policy.label().to_string(),
        epochs: config.epochs,
        faults_injected: tape.len() as u64,
        repairs_ok,
        downtime_epochs,
        availability: if config.epochs == 0 {
            0.0
        } else {
            availability_sum / config.epochs as f64
        },
        delivered_flits: delivered_total,
        energy_pj: energy_total_pj,
        energy_per_flit_pj: per_flit(energy_total_pj, delivered_total),
        low_load_epochs,
        low_load_energy_per_flit_pj: per_flit(low_energy_pj, low_delivered),
        p95_latency_cycles: horizon_stats.percentile(0.95),
        p99_latency_cycles: horizon_stats.percentile(0.99),
        mean_latency_cycles: horizon_stats.mean(),
        latency: horizon_stats,
        gated_pair_epochs,
        records,
    }
}

/// Publish the per-epoch series through the recorder.
fn emit_series(obs: &Obs, config: &ServingConfig, tape: &FaultTape, records: &[EpochRecord]) {
    let rows = records
        .iter()
        .map(|r| {
            vec![
                r.epoch as f64,
                r.offered,
                r.data_fraction,
                if r.routable { 1.0 } else { 0.0 },
                r.delivered_fraction,
                r.delivered_flits as f64,
                r.total_mw,
                r.energy_pj,
                r.avg_link_utilization,
                r.mean_latency_cycles,
                r.p95_latency_cycles,
                r.gated_pairs as f64,
                r.freq_scale,
                if r.fault_arrived { 1.0 } else { 0.0 },
            ]
        })
        .collect();
    obs.series(
        "serve.horizon",
        vec![
            Attr::new("policy", config.policy.label()),
            Attr::new("tape", tape.label()),
        ],
        &[
            "epoch",
            "offered",
            "data_fraction",
            "routable",
            "delivered_fraction",
            "delivered_flits",
            "total_mw",
            "energy_pj",
            "avg_link_utilization",
            "mean_latency_cycles",
            "p95_latency_cycles",
            "gated_pairs",
            "freq_scale",
            "fault_arrived",
        ],
        rows,
    );
}
