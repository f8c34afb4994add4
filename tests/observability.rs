//! Observability integration: determinism of traces and snapshots,
//! behavioural inertness of sinks, registry↔report reconciliation, and
//! the exact response-time attribution invariant.

use semcluster::{
    run_simulation, run_simulation_observed, ObsConfig, RunReport, SimConfig, SpanBreakdown,
};
use semcluster_buffer::{PrefetchScope, ReplacementPolicy};
use semcluster_clustering::{ClusteringPolicy, SplitPolicy};
use semcluster_obs::{JsonlSink, MetricsSnapshot, SharedBuf};
use semcluster_workload::{StructureDensity, WorkloadSpec};

fn base() -> SimConfig {
    SimConfig {
        database_bytes: 2 * 1024 * 1024,
        buffer_pages: 24,
        warmup_txns: 80,
        measured_txns: 300,
        ..SimConfig::default()
    }
}

/// A config that exercises every event source: clustering search,
/// splits, prefetch, context-sensitive replacement.
fn busy() -> SimConfig {
    let mut cfg = base();
    cfg.clustering = ClusteringPolicy::NoLimit;
    cfg.split = SplitPolicy::Linear;
    cfg.prefetch = PrefetchScope::WithinDatabase;
    cfg.replacement = ReplacementPolicy::ContextSensitive;
    cfg.workload = WorkloadSpec::new(StructureDensity::Med5, 2.0);
    cfg
}

fn traced_run(cfg: SimConfig) -> (RunReport, MetricsSnapshot, Vec<u8>) {
    let buf = SharedBuf::default();
    let sink = JsonlSink::new(buf.clone());
    let (report, obs) = run_simulation_observed(cfg, ObsConfig::with_sink(Box::new(sink)));
    let bytes = buf.bytes();
    (report, obs.metrics, bytes)
}

/// After a full engine run, `IoBreakdown::total()` must equal the sum of
/// the per-category fields. The exhaustive destructuring (no `..`) makes
/// this a compile-time tripwire: adding a category without updating
/// `total()` fails this test.
#[test]
fn io_breakdown_total_is_sum_of_categories() {
    let r = run_simulation(busy());
    let semcluster::IoBreakdown {
        data_reads,
        dirty_writebacks,
        log_ios,
        cluster_search_ios,
        prefetch_ios,
        split_ios,
    } = r.io;
    assert_eq!(
        r.io.total(),
        data_reads + dirty_writebacks + log_ios + cluster_search_ios + prefetch_ios + split_ios
    );
    assert!(r.io.total() > 0, "a busy run does physical I/O");
}

/// The metrics registry is the engine's only count of each event, and
/// `RunReport::io` is read back from it (`Engine::report()`): the names
/// a traced snapshot carries and the report's fields must agree exactly
/// over the measured interval, so a renamed or re-mapped counter shows
/// here.
#[test]
fn registry_counters_reconcile_with_report_io() {
    let (report, snapshot, _) = traced_run(busy());
    let c = |name: &str| snapshot.counter(name);
    assert_eq!(c("io.read.demand"), report.io.data_reads);
    assert_eq!(c("buffer.evict.dirty"), report.io.dirty_writebacks);
    assert_eq!(
        c("cluster.search.candidate_io"),
        report.io.cluster_search_ios
    );
    assert_eq!(c("prefetch.io"), report.io.prefetch_ios);
    assert_eq!(c("split.io"), report.io.split_ios);
    assert_eq!(
        c("wal.flush.before_image") + c("wal.flush.full") + c("wal.flush.commit"),
        report.io.log_ios
    );
    let requests = c("buffer.hit") + c("buffer.miss");
    assert_eq!(report.hit_ratio, c("buffer.hit") as f64 / requests as f64);
    // Every miss is read, either on demand or for the clustering search.
    assert_eq!(
        c("buffer.miss"),
        report.io.data_reads + report.io.cluster_search_ios
    );
    assert_eq!(c("lock.wait"), report.lock_waits);
    assert_eq!(c("cluster.split"), report.splits);
    assert_eq!(c("cluster.recluster.move"), report.recluster_moves);
}

/// Two runs of the same seed and configuration must emit byte-identical
/// JSONL traces and identical registry snapshots.
#[test]
fn same_seed_runs_are_byte_identical() {
    let (ra, sa, ta) = traced_run(busy());
    let (rb, sb, tb) = traced_run(busy());
    assert!(!ta.is_empty(), "trace captured events");
    assert_eq!(ta, tb, "same-seed traces must be byte-identical");
    assert_eq!(sa.to_json(), sb.to_json());
    assert_eq!(ra.mean_response_s, rb.mean_response_s);
    assert_eq!(ra.io, rb.io);
}

/// Different seeds must *not* produce the same trace (the determinism
/// above is per-seed, not degenerate).
#[test]
fn different_seed_runs_diverge() {
    let (_, _, ta) = traced_run(busy());
    let mut cfg = busy();
    cfg.seed = 1989;
    let (_, _, tb) = traced_run(cfg);
    assert_ne!(ta, tb);
}

/// Attaching a trace sink is a pure observation: every reported number
/// is identical to the untraced run.
#[test]
fn tracing_does_not_change_results() {
    let plain = run_simulation(busy());
    let (traced, _, trace) = traced_run(busy());
    assert!(!trace.is_empty());
    assert_eq!(plain.mean_response_s, traced.mean_response_s);
    assert_eq!(plain.p95_response_s, traced.p95_response_s);
    assert_eq!(plain.response_us_total, traced.response_us_total);
    assert_eq!(plain.span_totals, traced.span_totals);
    assert_eq!(plain.io, traced.io);
    assert_eq!(plain.txns, traced.txns);
    assert_eq!(plain.lock_waits, traced.lock_waits);
}

/// The per-transaction attribution is exact: the component totals sum to
/// the total measured response time, microsecond for microsecond.
#[test]
fn span_components_sum_to_response_time() {
    for cfg in [base(), busy()] {
        let r = run_simulation(cfg);
        let SpanBreakdown {
            cpu_us,
            data_read_us,
            dirty_flush_us,
            cluster_search_us,
            log_us,
            lock_wait_us,
        } = r.span_totals;
        assert_eq!(
            cpu_us + data_read_us + dirty_flush_us + cluster_search_us + log_us + lock_wait_us,
            r.response_us_total,
            "attribution must be exact"
        );
        assert!(r.response_us_total > 0);
        // The derived mean breakdown reconstructs the mean response.
        let err = (r.breakdown.response_total_s() - r.mean_response_s).abs();
        assert!(err < 1e-6, "breakdown drifts from mean response by {err}");
    }
}

/// Every trace line is a single JSON object with an integer simulated
/// timestamp and a known event type.
#[test]
fn trace_is_wellformed_jsonl() {
    let (report, _, bytes) = traced_run(busy());
    let text = String::from_utf8(bytes).expect("trace is UTF-8");
    let mut commits = 0u64;
    for line in text.lines() {
        assert!(line.starts_with("{\"t\":") && line.ends_with('}'), "{line}");
        let _t: u64 = line["{\"t\":".len()..]
            .split(',')
            .next()
            .unwrap()
            .parse()
            .expect("integer timestamp");
        assert!(line.contains("\"ev\":\""), "{line}");
        if line.contains("\"ev\":\"txn_commit\"") {
            commits += 1;
        }
    }
    // Every warmup + measured transaction commits exactly once.
    let cfg = busy();
    assert_eq!(commits, cfg.warmup_txns + cfg.measured_txns);
    let _ = report;
}
