//! # semcluster-faults
//!
//! Deterministic, seed-scheduled fault injection for the semcluster
//! engine. The paper's evaluation assumes a fault-free file server;
//! this crate supplies the adversary: transient page read/write errors
//! with per-disk rates, latency spikes, persistently degraded ("hot")
//! disks, log-device stalls, and crash points expressible as "at event
//! #k" / "at commit #k" / "mid-flush".
//!
//! ## Determinism contract
//!
//! Every injection decision is a pure hash of `(seed, stream,
//! counter)` — see [`FaultPlan`] — and never touches the engine's main
//! RNG stream. Consequences:
//!
//! * same seed + same [`FaultConfig`] → the same fault schedule,
//!   byte-identical reports/metrics/traces at any `--jobs N`;
//! * with every rate at zero ([`FaultConfig::is_inert`]) the layer
//!   draws nothing and charges nothing, so the engine's output is
//!   byte-identical to a build without the layer (the committed golden
//!   run proves this in CI).
//!
//! Backoff and stall delays are charged in *simulated* time by the
//! engine, so fault handling shows up in response-time attribution
//! exactly like any other wait.

#![warn(missing_docs)]

mod config;
mod fsfault;
mod netchaos;
mod plan;

pub use config::{CrashPoint, DegradationPolicy, FaultConfig, RetryPolicy};
pub use fsfault::{FaultedDir, FsCrashReport, FsError, FsFaultConfig, FsFile, FsStats, TornWrite};
pub use netchaos::{NetAction, NetChaosConfig, NetChaosPlan};
pub use plan::{splitmix64, FaultPlan, FaultState, IoError, IoOp};
