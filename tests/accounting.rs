//! Cross-crate accounting invariants: the engine's I/O breakdown must be
//! consistent with what the buffer manager and the log manager did, for
//! every policy combination.

use semcluster::{run_simulation, run_simulation_observed, ObsConfig, SimConfig};
use semcluster_buffer::{PrefetchScope, ReplacementPolicy};
use semcluster_clustering::{ClusteringPolicy, SplitPolicy};
use semcluster_workload::{StructureDensity, WorkloadSpec};

fn base() -> SimConfig {
    SimConfig {
        database_bytes: 2 * 1024 * 1024,
        buffer_pages: 24,
        warmup_txns: 80,
        measured_txns: 400,
        ..SimConfig::default()
    }
}

#[test]
fn demand_plus_search_reads_equal_buffer_misses() {
    for clustering in [
        ClusteringPolicy::NoCluster,
        ClusteringPolicy::WithinBuffer,
        ClusteringPolicy::IoLimit(2),
        ClusteringPolicy::NoLimit,
        ClusteringPolicy::Adaptive,
    ] {
        for prefetch in [PrefetchScope::None, PrefetchScope::WithinDatabase] {
            let mut cfg = base();
            cfg.clustering = clustering;
            cfg.prefetch = prefetch;
            cfg.workload = WorkloadSpec::new(StructureDensity::Med5, 5.0);
            let (r, obs) = run_simulation_observed(cfg, ObsConfig::default());
            let misses = obs.metrics.counter("buffer.miss");
            assert_eq!(
                r.io.data_reads + r.io.cluster_search_ios,
                misses,
                "{clustering} {prefetch}: reads {} + search {} != misses {misses}",
                r.io.data_reads,
                r.io.cluster_search_ios,
            );
        }
    }
}

#[test]
fn every_logged_write_commit_forces_at_most_once() {
    let (r, obs) = run_simulation_observed(base(), ObsConfig::default());
    let forces = obs.metrics.counter("wal.flush.commit");
    assert!(forces > 0, "write commits force the log tail");
    assert!(
        forces <= r.commits,
        "{forces} forces for {} commits",
        r.commits
    );
}

#[test]
fn prefetch_ios_appear_only_with_database_scope() {
    let mut cfg = base();
    cfg.prefetch = PrefetchScope::WithinBuffer;
    let within = run_simulation(cfg.clone());
    assert_eq!(within.io.prefetch_ios, 0, "within-buffer never does I/O");
    cfg.prefetch = PrefetchScope::WithinDatabase;
    cfg.replacement = ReplacementPolicy::ContextSensitive;
    let db_scope = run_simulation(cfg);
    assert!(db_scope.io.prefetch_ios > 0);
}

#[test]
fn splits_charge_split_ios() {
    let mut cfg = base();
    cfg.split = SplitPolicy::Linear;
    cfg.clustering = ClusteringPolicy::NoLimit;
    cfg.workload = WorkloadSpec::new(StructureDensity::High10, 2.0);
    cfg.measured_txns = 800;
    let r = run_simulation(cfg);
    assert_eq!(
        r.splits, r.io.split_ios,
        "one charged flush per split: {} splits vs {} I/Os",
        r.splits, r.io.split_ios
    );
}

#[test]
fn read_write_counts_partition_transactions() {
    let r = run_simulation(base());
    assert_eq!(r.reads + r.writes, r.txns);
    // rw=5 default: reads ≈ 5/6 of transactions.
    let frac = r.reads as f64 / r.txns as f64;
    assert!((0.70..0.95).contains(&frac), "read fraction {frac}");
}
