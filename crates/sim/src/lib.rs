//! # netsmith-sim
//!
//! A cycle-driven network-on-interposer simulator used to evaluate
//! topologies and routing schemes the way the paper evaluates them with
//! gem5/HeteroGarnet (Garnet standalone synthetic traffic): average packet
//! latency as the injection rate sweeps up to and past saturation.
//!
//! ## Fidelity and substitutions
//!
//! The paper simulates flit-level wormhole routers.  This crate models the
//! network at packet granularity with **virtual cut-through** switching:
//!
//! * every directed link carries one flit per cycle, so a packet of `F`
//!   flits occupies a link for `F` cycles (serialization latency is
//!   modelled exactly);
//! * routers have per-virtual-channel input buffers with finite capacity
//!   and credit-style backpressure (a packet only advances when the
//!   downstream VC has room for all of its flits);
//! * each packet travels on the virtual channel its flow was assigned by
//!   the deadlock-free VC allocation of `netsmith-route`, so the per-VC
//!   channel dependency graphs stay acyclic and the simulated network is
//!   deadlock-free by construction, exactly like the escape-VC discipline
//!   the paper uses;
//! * per-output-port arbitration is oldest-first (approximating the
//!   iterative separable allocators of Garnet).
//!
//! Virtual cut-through reaches slightly *higher* saturation than an
//! input-queued wormhole router (the paper itself notes the gap between
//! analytical expectation and the measured input-queued throughput, citing
//! Karol et al.); since every topology/routing pair is simulated with the
//! same switching model, the comparisons the paper makes — who saturates
//! first, by roughly what factor — are preserved.

#![forbid(unsafe_code)]

pub mod activity;
pub mod compile;
pub mod config;
pub mod inject;
pub mod network;
pub mod stats;
pub mod sweep;

pub use activity::{ActivityProfile, LinkActivity, RouterActivity};
pub use compile::CompiledNetwork;
pub use config::{PacketClass, SimConfig};
pub use inject::{InjectionEvent, InjectionSchedule};
pub use netsmith_trace::{Trace, TraceCursor};
pub use network::{
    point_seed, splitmix64, EpochSample, EpochSeries, NetworkSim, NetworkSimBuilder, SimReport,
};
pub use stats::LatencyStats;
pub use sweep::{saturation_throughput, LatencyCurve, Sweep, SweepOptions, SweepPoint};
