//! # semcluster
//!
//! A full reproduction of **Chang & Katz, "Exploiting Inheritance and
//! Structure Semantics for Effective Clustering and Buffering in an
//! Object-Oriented DBMS"** (SIGMOD 1989 / UCB-CSD 88-473): the Version
//! Data Model, a run-time clustering engine, a context-sensitive buffer
//! manager, transaction logging, and the discrete-event simulation that
//! evaluates them under parameterised CAD workloads.
//!
//! The crate integrates the substrate crates into a closed queueing
//! network (Figure 4.1 of the paper): interactive users with think times,
//! a file server with CPU, buffer pool, cluster manager and log manager,
//! and a bank of FCFS disks.
//!
//! ```no_run
//! use semcluster::{run_simulation, SimConfig};
//! use semcluster_clustering::ClusteringPolicy;
//! use semcluster_workload::StructureDensity;
//!
//! let cfg = SimConfig::default()
//!     .with_workload(StructureDensity::High10, 100.0)
//!     .with_clustering(ClusteringPolicy::NoLimit);
//! let report = run_simulation(cfg);
//! println!("mean response: {:.3}s", report.mean_response_s);
//! ```

#![warn(missing_docs)]

mod config;
mod crash;
mod durable;
mod engine;
mod error;
mod metrics;
mod presets;
mod runner;
pub mod serve;
mod sweep;

pub use config::SimConfig;
pub use crash::{
    run_crash_matrix, CrashMatrixConfig, CrashMatrixReport, CrashOutcome, CrashPointResult,
};
pub use durable::{DurableMirror, FileCrashArtifacts, MirrorStats};
pub use engine::{run_simulation, run_simulation_observed, Engine, ObsConfig, RunObservations};
pub use error::EngineError;
pub use metrics::{FaultStats, IoBreakdown, ResponseBreakdown, RunReport, SpanBreakdown};
pub use presets::{
    buffering_study_base, clustering_study_base, figure_5_11_combos, workload_from_label,
};
pub use runner::{replication_config, run_replicated, run_replicated_observed, ReplicatedResult};
pub use semcluster_faults::{CrashPoint, FaultConfig};
pub use sweep::{
    default_parallelism, SweepError, SweepItem, SweepJob, SweepOutcome, SweepRunner, SweepSummary,
};
