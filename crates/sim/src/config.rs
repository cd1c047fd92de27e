//! Simulator configuration.

use netsmith_topo::LinkClass;
use serde::{Deserialize, Serialize};

/// Packet classes used by the synthetic evaluation: 8-byte control packets
/// and 72-byte data packets, injected with equal likelihood (paper
/// Section IV), on an 8-byte link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PacketClass {
    Control,
    Data,
}

/// Simulator parameters (defaults follow Table IV and Section IV of the
/// paper).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Link width in bytes (8B in the paper).
    pub link_width_bytes: usize,
    /// Control packet size in bytes (8B).
    pub control_bytes: usize,
    /// Data packet size in bytes (72B).
    pub data_bytes: usize,
    /// Probability that an injected packet is a data packet (0.5 for the
    /// coherence-style synthetic traffic of Figure 6a).
    pub data_fraction: f64,
    /// Router pipeline latency in cycles (2 in Table IV).
    pub router_latency: u64,
    /// Link traversal latency in cycles (1).
    pub link_latency: u64,
    /// Total number of virtual channels (6 for synthetic evaluation).
    pub num_vcs: usize,
    /// Per-VC input buffer capacity in flits.
    pub vc_buffer_flits: usize,
    /// Cycles of warm-up before statistics are collected.
    pub warmup_cycles: u64,
    /// Cycles of measurement.
    pub measure_cycles: u64,
    /// Cycles of drain after measurement (packets injected during the
    /// measurement window are tracked to completion or until the drain
    /// budget expires).
    pub drain_cycles: u64,
    /// RNG seed.
    pub seed: u64,
    /// NoI clock in GHz (3.6 / 3.0 / 2.7 for small / medium / large).
    pub clock_ghz: f64,
    /// Epoch probe interval in cycles: when non-zero, the compiled engine
    /// slices the measurement window into epochs of this length and
    /// reports a per-epoch time-series (throughput, latency, buffer
    /// occupancy) in [`SimReport::epochs`].  Zero (the default) disables
    /// the probe; results are unaffected either way.
    ///
    /// [`SimReport::epochs`]: crate::SimReport::epochs
    pub epoch_cycles: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            link_width_bytes: 8,
            control_bytes: 8,
            data_bytes: 72,
            data_fraction: 0.5,
            router_latency: 2,
            link_latency: 1,
            num_vcs: 6,
            vc_buffer_flits: 16,
            warmup_cycles: 2_000,
            measure_cycles: 10_000,
            drain_cycles: 4_000,
            seed: 0xBEEF,
            clock_ghz: 3.0,
            epoch_cycles: 0,
        }
    }
}

impl SimConfig {
    /// A reduced-cycle configuration for unit tests.
    pub fn quick() -> Self {
        SimConfig {
            warmup_cycles: 300,
            measure_cycles: 1_500,
            drain_cycles: 600,
            ..Default::default()
        }
    }

    /// Configuration whose clock matches a link-length class (the paper
    /// clocks small/medium/large NoIs at 3.6/3.0/2.7 GHz).
    pub fn for_class(class: LinkClass) -> Self {
        SimConfig {
            clock_ghz: class.clock_ghz(),
            ..Default::default()
        }
    }

    /// Number of flits in a packet of the given class.
    pub fn flits(&self, class: PacketClass) -> usize {
        let bytes = match class {
            PacketClass::Control => self.control_bytes,
            PacketClass::Data => self.data_bytes,
        };
        bytes.div_ceil(self.link_width_bytes).max(1)
    }

    /// Average packet size in flits under the configured class mix.
    pub fn average_flits(&self) -> f64 {
        self.data_fraction * self.flits(PacketClass::Data) as f64
            + (1.0 - self.data_fraction) * self.flits(PacketClass::Control) as f64
    }

    /// Convert a latency in NoI cycles to nanoseconds using the configured
    /// clock.
    pub fn cycles_to_ns(&self, cycles: f64) -> f64 {
        cycles / self.clock_ghz
    }

    /// Convert an injection rate in flits/node/cycle to packets/node/ns.
    pub fn flit_rate_to_packets_per_ns(&self, flits_per_cycle: f64) -> f64 {
        flits_per_cycle / self.average_flits() * self.clock_ghz
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_sizes_match_paper() {
        let c = SimConfig::default();
        assert_eq!(c.flits(PacketClass::Control), 1);
        assert_eq!(c.flits(PacketClass::Data), 9);
        assert_eq!(c.average_flits(), 5.0);
    }

    #[test]
    fn class_clocks_follow_kite() {
        assert_eq!(SimConfig::for_class(LinkClass::Small).clock_ghz, 3.6);
        assert_eq!(SimConfig::for_class(LinkClass::Medium).clock_ghz, 3.0);
        assert_eq!(SimConfig::for_class(LinkClass::Large).clock_ghz, 2.7);
    }

    #[test]
    fn unit_conversions() {
        let c = SimConfig::for_class(LinkClass::Medium);
        assert!((c.cycles_to_ns(30.0) - 10.0).abs() < 1e-9);
        // 1 flit/cycle with 5-flit average packets at 3 GHz = 0.6 packets/ns.
        assert!((c.flit_rate_to_packets_per_ns(1.0) - 0.6).abs() < 1e-9);
    }
}
