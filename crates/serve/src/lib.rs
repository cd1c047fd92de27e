//! # netsmith-serve — lifetime serving simulation
//!
//! The energy ([`netsmith_energy`]) and resilience ([`netsmith_fault`])
//! subsystems evaluate stationary snapshots; this crate composes them
//! into a **long-horizon serving scenario**: a seeded time-varying
//! [`LoadProcess`] (diurnal sinusoid × ON/OFF bursts × optional
//! trace-derived modulation), a lifetime [`FaultTape`] of
//! Poisson-arriving permanent faults repaired online at epoch
//! boundaries, and an online [`PolicyKind`] (always-on / link-sleep /
//! DVFS) that re-decides its operating point every epoch from the
//! *previous* epoch's measured activity — a closed loop.
//!
//! [`serve`] plays the horizon — each epoch one `run` segment on the
//! compiled simulator — and returns a [`ServingReport`] with SLA-level
//! metrics: availability (routable × delivered fraction per epoch),
//! energy per delivered flit over the whole horizon, **horizon-exact**
//! p95/p99 latency (per-epoch [`netsmith_sim::LatencyStats`] histograms
//! merged, not averaged), downtime epochs, and a per-epoch series
//! published through [`netsmith_obs`].
//!
//! Everything is deterministic: the report is a pure function of the
//! prepared network, the config, and the seeds — bit-identical on
//! whichever thread or pool worker plays it and exactly replayable, which
//! the proptests pin.
//!
//! ```
//! use netsmith_route::paths::all_shortest_paths;
//! use netsmith_route::{allocate_vcs, mclb_route, MclbConfig};
//! use netsmith_serve::{serve, PolicyKind, ServingConfig, ServingInputs};
//! use netsmith_topo::{expert, Layout};
//!
//! let layout = Layout::noi_4x5();
//! let topo = expert::folded_torus(&layout);
//! let table = mclb_route(&all_shortest_paths(&topo), &MclbConfig::default());
//! let vcs = allocate_vcs(&table, 6, 11).unwrap();
//! let config = ServingConfig {
//!     epochs: 16,
//!     policy: PolicyKind::LinkSleep { idle_threshold: 0.12 },
//!     ..ServingConfig::default()
//! };
//! let report = serve(
//!     &ServingInputs::new(&topo, &table, &vcs),
//!     &config,
//!     &netsmith_obs::Obs::noop(),
//! );
//! assert_eq!(report.epochs, 16);
//! assert!(report.availability > 0.0);
//! ```

pub mod load;
pub mod report;
pub mod run;
pub mod tape;

pub use load::{EpochLoad, LoadProcess, LoadSpec};
pub use report::{EpochRecord, ServingReport};
pub use run::{serve, PolicyKind, ServingConfig, ServingInputs};
pub use tape::{FaultEvent, FaultTape, TapeSpec};
