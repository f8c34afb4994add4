//! Workspace-spanning end-to-end tests: the full engine (vdm + storage +
//! buffer + clustering + wal + workload + sim) run under the paper's key
//! configurations, asserting the evaluation's qualitative shapes.

use semcluster::{run_replicated, run_simulation, SimConfig};
use semcluster_buffer::{PrefetchScope, ReplacementPolicy};
use semcluster_clustering::{ClusteringPolicy, SplitPolicy};
use semcluster_workload::{StructureDensity, WorkloadSpec};

fn small() -> SimConfig {
    SimConfig {
        database_bytes: 4 * 1024 * 1024,
        buffer_pages: 32,
        warmup_txns: 150,
        measured_txns: 700,
        ..SimConfig::default()
    }
}

#[test]
fn headline_clustering_gain_at_high_density_high_rw() {
    // Figure 5.1's headline: run-time clustering improves response time by
    // ~200% (≈3×) at high density + high read/write ratio.
    let base = small().with_workload(StructureDensity::High10, 100.0);
    let clustered = run_replicated(&base.clone().with_clustering(ClusteringPolicy::NoLimit), 2);
    let scattered = run_replicated(&base.with_clustering(ClusteringPolicy::NoCluster), 2);
    let gain = scattered.response.mean / clustered.response.mean;
    assert!(
        gain > 1.8,
        "clustering gain at hi10-100 only {gain:.2}× (want ≳2×)"
    );
}

#[test]
fn clustering_always_helps_at_rw_5_and_above() {
    // §5.1.1(a): run-time clustering (with I/O budget) always improves
    // response time for the reported workloads.
    for density in StructureDensity::ALL {
        for rw in [5.0, 100.0] {
            let mut base = small();
            base.workload = WorkloadSpec::new(density, rw);
            let clustered =
                run_simulation(base.clone().with_clustering(ClusteringPolicy::IoLimit(10)));
            let scattered = run_simulation(base.with_clustering(ClusteringPolicy::NoCluster));
            assert!(
                clustered.mean_response_s < scattered.mean_response_s * 1.05,
                "{density} rw={rw}: clustered {:.3} vs scattered {:.3}",
                clustered.mean_response_s,
                scattered.mean_response_s
            );
        }
    }
}

#[test]
fn within_buffer_degrades_toward_no_cluster_at_high_density() {
    // §5.1.1(c): clustering within the buffer pool degrades to the
    // No_Clustering case when structure density is high.
    let base = small().with_workload(StructureDensity::High10, 100.0);
    let within = run_replicated(
        &base.clone().with_clustering(ClusteringPolicy::WithinBuffer),
        2,
    );
    let none = run_replicated(
        &base.clone().with_clustering(ClusteringPolicy::NoCluster),
        2,
    );
    let unlimited = run_replicated(&base.with_clustering(ClusteringPolicy::NoLimit), 2);
    // Within-buffer sits far closer to no-clustering than to unlimited.
    let to_none = (within.response.mean - none.response.mean).abs();
    let to_unlimited = (within.response.mean - unlimited.response.mean).abs();
    assert!(
        to_none < to_unlimited,
        "within-buffer {:.3} vs none {:.3} vs unlimited {:.3}",
        within.response.mean,
        none.response.mean,
        unlimited.response.mean
    );
}

#[test]
fn io_limited_search_is_competitive_with_unbounded() {
    // §5.1.1(b): a small I/O limit performs better than or comparable to
    // no limit — "a low limit on I/O appears to be acceptable".
    let mut base = small();
    base.workload = WorkloadSpec::new(StructureDensity::Low3, 5.0);
    let limited = run_replicated(
        &base.clone().with_clustering(ClusteringPolicy::IoLimit(2)),
        2,
    );
    let unlimited = run_replicated(&base.with_clustering(ClusteringPolicy::NoLimit), 2);
    assert!(
        limited.response.mean <= unlimited.response.mean * 1.10,
        "2-IO-limit {:.4} should be ≤ ~unbounded {:.4}",
        limited.response.mean,
        unlimited.response.mean
    );
}

#[test]
fn smart_buffering_beats_naive_buffering() {
    // §5.2(a)+(c): context-sensitive + prefetch-within-DB best, LRU with
    // no prefetch worst.
    let mut base = small();
    base.workload = WorkloadSpec::new(StructureDensity::High10, 100.0);
    base.clustering = ClusteringPolicy::NoLimit;
    base.split = SplitPolicy::Linear;
    let smart = run_replicated(
        &base
            .clone()
            .with_replacement(ReplacementPolicy::ContextSensitive)
            .with_prefetch(PrefetchScope::WithinDatabase),
        2,
    );
    let naive = run_replicated(
        &base
            .with_replacement(ReplacementPolicy::Lru)
            .with_prefetch(PrefetchScope::None),
        2,
    );
    let gain = naive.response.mean / smart.response.mean;
    assert!(gain > 1.2, "smart-buffering gain only {gain:.2}×");
}

#[test]
fn prefetch_within_database_never_hurts_response() {
    // Figures 5.12–5.14: prefetch-within-database has the best response
    // under every replacement policy (its I/Os are asynchronous).
    for replacement in [
        ReplacementPolicy::ContextSensitive,
        ReplacementPolicy::Lru,
        ReplacementPolicy::Random,
    ] {
        let mut base = small();
        base.workload = WorkloadSpec::new(StructureDensity::Med5, 100.0);
        base.clustering = ClusteringPolicy::NoLimit;
        base.replacement = replacement;
        let with = run_simulation(base.clone().with_prefetch(PrefetchScope::WithinDatabase));
        let without = run_simulation(base.with_prefetch(PrefetchScope::None));
        assert!(
            with.mean_response_s <= without.mean_response_s * 1.05,
            "{replacement}: prefetch {:.4} vs none {:.4}",
            with.mean_response_s,
            without.mean_response_s
        );
    }
}

#[test]
fn split_policy_choice_has_minor_effect() {
    // §6: "different page splitting algorithms have little influence on
    // response time".
    let mut base = small();
    base.workload = WorkloadSpec::new(StructureDensity::Med5, 5.0);
    base.clustering = ClusteringPolicy::NoLimit;
    let responses: Vec<f64> = [
        SplitPolicy::NoSplit,
        SplitPolicy::Linear,
        SplitPolicy::Optimal,
    ]
    .into_iter()
    .map(|p| run_replicated(&base.clone().with_split(p), 2).response.mean)
    .collect();
    let max = responses.iter().cloned().fold(f64::MIN, f64::max);
    let min = responses.iter().cloned().fold(f64::MAX, f64::min);
    assert!(
        max / min < 1.5,
        "split policies diverge too much: {responses:?}"
    );
}

#[test]
fn full_stack_determinism() {
    let cfg = small()
        .with_workload(StructureDensity::Med5, 10.0)
        .with_clustering(ClusteringPolicy::IoLimit(2))
        .with_replacement(ReplacementPolicy::ContextSensitive)
        .with_prefetch(PrefetchScope::WithinDatabase)
        .with_split(SplitPolicy::Linear);
    let a = run_simulation(cfg.clone());
    let b = run_simulation(cfg);
    assert_eq!(a.mean_response_s, b.mean_response_s);
    assert_eq!(a.io, b.io);
    assert_eq!(a.commits, b.commits);
    assert_eq!(a.splits, b.splits);
    assert_eq!(a.recluster_moves, b.recluster_moves);
}

#[test]
fn paper_scale_configuration_is_wired() {
    // Do not *run* the 500 MB configuration in tests; just verify it
    // exposes the paper's Table 4.1 values.
    let cfg = SimConfig::paper_scale();
    assert_eq!(cfg.database_bytes, 500 * 1024 * 1024);
    assert_eq!(cfg.buffer_pages, 1000);
    assert_eq!(cfg.users, 10);
    assert_eq!(cfg.disks, 10);
}
