//! Simulation configuration — every parameter of Table 4.1 plus the
//! engine-level knobs (CPU path lengths, disk timing, scale).
//!
//! Two scales are built in:
//!
//! * [`SimConfig::paper_scale`] — the paper's static parameters verbatim
//!   (500 MB database, 4 KB pages, 10 users, 10 disks, 4 s think time,
//!   1000 buffers). Heavy: hundreds of thousands of objects.
//! * [`SimConfig::default`] — a **proportionally scaled** laptop
//!   configuration (32 MB database, 100 buffers ≈ the same 1 % of the
//!   database as the paper's 1000-of-125k-pages) used by the figure
//!   regeneration binaries. Response-time *ratios* between policies are
//!   preserved; absolute values are not comparable to the paper's
//!   (unlabelled) axes anyway.

use semcluster_buffer::{AccessHint, PrefetchScope, ReplacementPolicy};
use semcluster_clustering::{ClusteringPolicy, HintPolicy, SplitPolicy};
use semcluster_faults::FaultConfig;
use semcluster_sim::SimDuration;
use semcluster_storage::DiskParams;
use semcluster_wal::LogConfig;
use semcluster_workload::{StructureDensity, WorkloadSpec};

/// Full configuration of one simulation run.
#[derive(Debug, Clone)]
pub struct SimConfig {
    // ------------------------------------------------ static (Table 4.1)
    /// (A) Database size in bytes.
    pub database_bytes: u64,
    /// (B) Page size in bytes.
    pub page_bytes: u32,
    /// (C) Number of interactive users.
    pub users: u32,
    /// (D) Number of disks.
    pub disks: u32,
    /// (E) Mean think time between transactions.
    pub think_time: SimDuration,

    // ----------------------------------------------- control (Table 4.1)
    /// (F, G) Workload: structure density and read/write ratio.
    pub workload: WorkloadSpec,
    /// (H) Clustering policy.
    pub clustering: ClusteringPolicy,
    /// (I) Page-splitting policy.
    pub split: SplitPolicy,
    /// (J) User-hint policy.
    pub hints: HintPolicy,
    /// (K) Buffer replacement policy.
    pub replacement: ReplacementPolicy,
    /// (L) Buffer pool size in pages.
    pub buffer_pages: usize,
    /// (M) Prefetch policy.
    pub prefetch: PrefetchScope,

    // ------------------------------------------------------ engine knobs
    /// The access pattern sessions declare when hints are enabled.
    pub session_hint: AccessHint,
    /// Disk timing model.
    pub disk: DiskParams,
    /// Log-manager configuration.
    pub log: LogConfig,
    /// CPU service per logical page access.
    pub cpu_per_access: SimDuration,
    /// Override of the context-sensitive priority boost, in access ticks
    /// (None = the pool default of half the capacity).
    pub context_boost_ticks: Option<u64>,
    /// Optional phased workload (e.g. the MOSAICO run): overrides the
    /// static workload's read/write mix per transaction while keeping its
    /// density-driven database. See `semcluster_workload::PhaseSchedule`.
    pub phases: Option<semcluster_workload::PhaseSchedule>,
    /// Keep the ground-truth token lists (acked, unacked, aborted) a
    /// crash verdict needs ([`crate::Engine::run_and_crash_at`]).
    pub retain_log: bool,
    /// Transactions discarded as warmup before measurement starts.
    pub warmup_txns: u64,
    /// Transactions measured after warmup.
    pub measured_txns: u64,
    /// Fault-injection configuration. The default is inert: no faults,
    /// and the engine's output is byte-identical to a fault-free build.
    pub faults: FaultConfig,
    /// Master seed; every stochastic choice in the run derives from it.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            database_bytes: 32 * 1024 * 1024,
            page_bytes: 4096,
            users: 10,
            disks: 10,
            think_time: SimDuration::from_secs(4),
            workload: WorkloadSpec::new(StructureDensity::Low3, 5.0),
            clustering: ClusteringPolicy::NoLimit,
            split: SplitPolicy::NoSplit,
            hints: HintPolicy::NoHints,
            replacement: ReplacementPolicy::Lru,
            buffer_pages: 100,
            prefetch: PrefetchScope::None,
            session_hint: AccessHint::ByConfiguration,
            disk: DiskParams::default(),
            log: LogConfig::default(),
            cpu_per_access: SimDuration::from_millis(2),
            context_boost_ticks: None,
            phases: None,
            retain_log: false,
            warmup_txns: 400,
            measured_txns: 2000,
            faults: FaultConfig::default(),
            seed: 42,
        }
    }
}

impl SimConfig {
    /// The paper's Table 4.1 static parameters, unscaled. Expect long
    /// build times and hundreds of megabytes of resident state.
    pub fn paper_scale() -> Self {
        SimConfig {
            database_bytes: 500 * 1024 * 1024,
            buffer_pages: 1000,
            ..SimConfig::default()
        }
    }

    /// Number of pages the database occupies.
    pub fn database_pages(&self) -> u64 {
        self.database_bytes / self.page_bytes as u64
    }

    /// Approximate number of objects the synthetic database will hold
    /// (database bytes / mean object footprint).
    pub fn target_objects(&self) -> u64 {
        self.database_bytes / Self::MEAN_OBJECT_BYTES
    }

    /// Mean synthetic object footprint (body + attribute slots) used for
    /// sizing.
    pub const MEAN_OBJECT_BYTES: u64 = 320;

    /// Short human-readable label of the control-parameter setting.
    pub fn label(&self) -> String {
        format!(
            "{} {} {} {} {} buf{} {}",
            self.workload.label(),
            self.clustering,
            self.split,
            self.hints,
            self.replacement,
            self.buffer_pages,
            self.prefetch,
        )
    }

    // ------------------------------------------------- builder-style API

    /// Set the workload.
    pub fn with_workload(mut self, density: StructureDensity, rw: f64) -> Self {
        self.workload = WorkloadSpec::new(density, rw);
        self
    }

    /// Set the clustering policy.
    pub fn with_clustering(mut self, p: ClusteringPolicy) -> Self {
        self.clustering = p;
        self
    }

    /// Set the split policy.
    pub fn with_split(mut self, p: SplitPolicy) -> Self {
        self.split = p;
        self
    }

    /// Set the replacement policy.
    pub fn with_replacement(mut self, p: ReplacementPolicy) -> Self {
        self.replacement = p;
        self
    }

    /// Set the prefetch scope.
    pub fn with_prefetch(mut self, p: PrefetchScope) -> Self {
        self.prefetch = p;
        self
    }

    /// Set the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_preserves_paper_buffer_ratio() {
        let cfg = SimConfig::default();
        let ratio = cfg.buffer_pages as f64 / cfg.database_pages() as f64;
        let paper = SimConfig::paper_scale();
        let paper_ratio = paper.buffer_pages as f64 / paper.database_pages() as f64;
        // Within 2× of the paper's ~0.8 %.
        assert!(
            ratio / paper_ratio < 2.0 && paper_ratio / ratio < 2.0,
            "scaled ratio {ratio} vs paper {paper_ratio}"
        );
    }

    #[test]
    fn paper_scale_matches_table_4_1() {
        let cfg = SimConfig::paper_scale();
        assert_eq!(cfg.database_bytes, 500 * 1024 * 1024);
        assert_eq!(cfg.page_bytes, 4096);
        assert_eq!(cfg.users, 10);
        assert_eq!(cfg.disks, 10);
        assert_eq!(cfg.think_time, SimDuration::from_secs(4));
        assert_eq!(cfg.buffer_pages, 1000);
    }

    #[test]
    fn builder_chain() {
        let cfg = SimConfig::default()
            .with_workload(StructureDensity::High10, 100.0)
            .with_clustering(ClusteringPolicy::IoLimit(2))
            .with_replacement(ReplacementPolicy::ContextSensitive)
            .with_prefetch(PrefetchScope::WithinDatabase)
            .with_seed(7);
        assert_eq!(cfg.workload.label(), "hi10-100");
        assert_eq!(cfg.clustering, ClusteringPolicy::IoLimit(2));
        assert_eq!(cfg.seed, 7);
        assert!(cfg.label().contains("2_IO_limit"));
    }
}
