//! # semcluster-bench
//!
//! The exhibit runner: every table and figure of the paper's
//! evaluation, the ablations and the extension exhibits are entries of
//! one static registry ([`exhibits::PAPER_SET`] + [`exhibits::EXTRAS`])
//! driven by one binary, `figures`:
//!
//! * `figures list` — print the registry;
//! * `figures <name>…` — run the named exhibits in the order given;
//! * `figures all` — run the paper set (Figures 3.2–6.2, Tables 4.1 and
//!   5.1) in the paper's order, in one process.
//!
//! The shared sweep logic lives in [`experiments`]. Every sweep runs on
//! the deterministic parallel executor ([`semcluster::SweepRunner`]):
//! independent configurations fan out across `--jobs N` worker threads
//! and are assembled in submission order, so stdout is byte-identical at
//! any thread count. Only the sweep summary (wall-clock, speedup) goes
//! to stderr. Host time is not measured here — the wall-clock ledger is
//! `benchmark/`.
//!
//! Flags (after the subcommand): `--jobs N` — worker threads per sweep
//! (default: the host's available parallelism); `--verbose` — print the
//! response-time breakdown (cpu / reads / flushes / search / log / lock
//! wait) for every configuration, in submission order.
//!
//! Environment knobs (all optional):
//!
//! * `SEMCLUSTER_REPS` — replications per configuration (default 3).
//! * `SEMCLUSTER_FAST` — set to any value for a quick smoke pass
//!   (smaller database, fewer transactions, 1 replication).

#![warn(missing_docs)]

pub mod exhibits;
pub mod experiments;

use semcluster::{RunReport, SimConfig};

/// Sweep options shared by all exhibits.
#[derive(Debug, Clone, Copy)]
pub struct FigureOpts {
    /// Replications per configuration.
    pub reps: u32,
    /// Database size override in bytes.
    pub database_bytes: u64,
    /// Measured transactions per run.
    pub measured_txns: u64,
    /// Warmup transactions per run.
    pub warmup_txns: u64,
    /// Base seed.
    pub seed: u64,
    /// Print the per-component response breakdown of every run.
    pub verbose: bool,
    /// Sweep worker threads (0 = available parallelism).
    pub jobs: usize,
}

impl FigureOpts {
    /// Resolve the run scale from the environment (`SEMCLUSTER_FAST`,
    /// `SEMCLUSTER_REPS`); `verbose` and `jobs` start at their defaults
    /// and are set from the command line by the caller.
    pub fn from_env() -> Self {
        let fast = std::env::var_os("SEMCLUSTER_FAST").is_some();
        let reps = std::env::var("SEMCLUSTER_REPS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(if fast { 1 } else { 3 });
        let (database_bytes, measured_txns, warmup_txns) = if fast {
            (4 * 1024 * 1024, 500, 150)
        } else {
            (32 * 1024 * 1024, 2000, 400)
        };
        FigureOpts {
            reps,
            database_bytes,
            measured_txns,
            warmup_txns,
            seed: 42,
            verbose: false,
            jobs: 0,
        }
    }

    /// Apply the options to a configuration.
    pub fn apply(&self, mut cfg: SimConfig) -> SimConfig {
        cfg.database_bytes = self.database_bytes;
        cfg.measured_txns = self.measured_txns;
        cfg.warmup_txns = self.warmup_txns;
        cfg.seed = self.seed;
        // Keep the paper's ~1 % buffer:database ratio under FAST scaling.
        if self.database_bytes < 16 * 1024 * 1024 {
            cfg.buffer_pages = 32;
        }
        cfg
    }
}

/// Print one run's response-time attribution (used under `--verbose`).
pub fn print_breakdown(report: &RunReport) {
    let b = report.breakdown;
    println!(
        "  [{}] response {:.1} ms = cpu {:.1} + read {:.1} + flush {:.1} \
         + search {:.1} + log {:.1} + lock {:.1}",
        report.config_label,
        b.response_total_s() * 1e3,
        b.cpu_s * 1e3,
        b.data_read_s * 1e3,
        b.dirty_flush_s * 1e3,
        b.cluster_search_s * 1e3,
        b.log_s * 1e3,
        b.lock_wait_s * 1e3,
    );
}
