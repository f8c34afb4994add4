//! Determinism contract of the parallel sweep executor (DESIGN.md §10):
//! a sweep's observable output — ordered reports, folded estimates,
//! merged metrics, per-run traces — is a pure function of the submitted
//! jobs, never of the worker-thread count or completion order; and one
//! panicking run surfaces as an error on its own slot without poisoning
//! the rest of the sweep.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use semcluster::{
    replication_config, run_replicated, ObsConfig, ReplicatedResult, SimConfig, SweepJob,
    SweepOutcome, SweepRunner,
};
use semcluster_buffer::{PrefetchScope, ReplacementPolicy};
use semcluster_clustering::{ClusteringPolicy, SplitPolicy};
use semcluster_obs::{JsonlSink, SyncBuf};
use semcluster_workload::{StructureDensity, WorkloadSpec};

fn tiny(seed: u64) -> SimConfig {
    SimConfig {
        database_bytes: 2 * 1024 * 1024,
        buffer_pages: 24,
        warmup_txns: 40,
        measured_txns: 120,
        seed,
        ..SimConfig::default()
    }
}

/// A mixed bag of jobs: different policies, workloads and replication
/// counts, so scheduling differences would have somewhere to show.
fn mixed_jobs() -> Vec<SweepJob> {
    let mut clustered = tiny(7);
    clustered.clustering = ClusteringPolicy::NoLimit;
    clustered.split = SplitPolicy::Linear;
    let mut buffered = tiny(8);
    buffered.replacement = ReplacementPolicy::ContextSensitive;
    buffered.prefetch = PrefetchScope::WithinBuffer;
    let mut writey = tiny(9);
    writey.workload = WorkloadSpec::new(StructureDensity::High10, 100.0);
    vec![
        SweepJob::new("plain", tiny(6), 3),
        SweepJob::new("clustered", clustered, 2),
        SweepJob::new("buffered", buffered, 1),
        SweepJob::new("write-heavy", writey, 2),
    ]
}

fn assert_outcomes_identical(serial: &SweepOutcome, parallel: &SweepOutcome) {
    assert_eq!(serial.items.len(), parallel.items.len());
    for (a, b) in serial.items.iter().zip(&parallel.items) {
        assert_eq!(a.index, b.index);
        assert_eq!(a.label, b.label);
        let (ra, rb) = (a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
        assert_eq!(
            ra.response.mean.to_bits(),
            rb.response.mean.to_bits(),
            "{}: folded estimate must be bit-identical",
            a.label
        );
        assert_eq!(ra.response.ci95.to_bits(), rb.response.ci95.to_bits());
        assert_eq!(ra.log_ios.mean.to_bits(), rb.log_ios.mean.to_bits());
        assert_eq!(ra.hit_ratio.mean.to_bits(), rb.hit_ratio.mean.to_bits());
        assert_eq!(ra.reports.len(), rb.reports.len());
        for (pa, pb) in ra.reports.iter().zip(&rb.reports) {
            assert_eq!(pa.mean_response_s.to_bits(), pb.mean_response_s.to_bits());
            assert_eq!(pa.io, pb.io);
            assert_eq!(pa.log_ios, pb.log_ios);
            assert_eq!(pa.span_totals, pb.span_totals);
        }
        assert_eq!(a.obs.metrics, b.obs.metrics, "{}: per-run metrics", a.label);
    }
    assert_eq!(serial.obs.metrics, parallel.obs.metrics, "merged metrics");
    assert_eq!(
        serial.obs.metrics.to_json(),
        parallel.obs.metrics.to_json(),
        "merged metrics must serialize to identical bytes"
    );
}

#[test]
fn sweep_is_thread_count_invariant() {
    let serial = SweepRunner::new(1).run(mixed_jobs());
    for threads in [2, 4, 8] {
        let parallel = SweepRunner::new(threads).run(mixed_jobs());
        assert_outcomes_identical(&serial, &parallel);
        assert_eq!(parallel.summary.threads, threads.min(mixed_jobs().len()));
    }
    assert_eq!(serial.summary.runs, 4);
    assert_eq!(serial.summary.failed, 0);
}

#[test]
fn traces_are_thread_count_invariant() {
    // Capture every replication's event trace, keyed by (job, rep),
    // via the runner's sink factory; the bytes must not depend on the
    // worker-thread count.
    let traced = |threads: usize| -> BTreeMap<(usize, u32), Vec<u8>> {
        let bufs = Arc::new(Mutex::new(BTreeMap::<(usize, u32), SyncBuf>::new()));
        let registry = Arc::clone(&bufs);
        let runner = SweepRunner::new(threads).with_obs(move |index, rep| {
            let buf = SyncBuf::default();
            registry.lock().unwrap().insert((index, rep), buf.clone());
            ObsConfig::with_sink(Box::new(JsonlSink::new(buf)))
        });
        let outcome = runner.run(mixed_jobs());
        assert_eq!(outcome.summary.failed, 0);
        // Each sink is dropped (and flushed) before its replication's
        // slot completes, so the buffers are final once `run` returns.
        let bufs = bufs.lock().unwrap();
        bufs.iter().map(|(k, v)| (*k, v.bytes())).collect()
    };
    let serial = traced(1);
    let parallel = traced(4);
    assert_eq!(serial.len(), 3 + 2 + 1 + 2, "one trace per replication");
    assert_eq!(serial, parallel);
    for bytes in serial.values() {
        assert!(!bytes.is_empty());
    }
}

#[test]
fn panicking_job_is_isolated() {
    // reps = 0 violates the runner's replication invariant and panics
    // inside the worker; the sweep must carry on and report it in place.
    let mut jobs = mixed_jobs();
    jobs.insert(1, SweepJob::new("poison", tiny(1), 0));
    let outcome = SweepRunner::new(4).run(jobs);
    assert_eq!(outcome.summary.runs, 5);
    assert_eq!(outcome.summary.failed, 1);
    let err = outcome.items[1].result.as_ref().unwrap_err();
    assert_eq!(err.index, 1);
    assert_eq!(err.label, "poison");
    assert!(err.message.contains("at least one replication"));
    // Every other slot completed, bit-identical to a clean sweep.
    let clean = SweepRunner::new(1).run(mixed_jobs());
    for (slot, clean_item) in [0usize, 2, 3, 4].into_iter().zip(&clean.items) {
        let got = outcome.items[slot].result.as_ref().unwrap();
        let want = clean_item.result.as_ref().unwrap();
        assert_eq!(
            got.response.mean.to_bits(),
            want.response.mean.to_bits(),
            "slot {slot} must be unaffected by the poisoned neighbour"
        );
    }
    // into_results refuses the whole sweep, naming the failed run.
    let errors = outcome.errors();
    assert_eq!(errors.len(), 1);
    assert!(outcome.into_results().is_err());
}

#[test]
fn replication_fanout_matches_serial_runner() {
    // The CLI's parallel `--reps` path: one single-replication job per
    // replication under the shared seed schedule must reproduce the
    // serial runner's reports and folded estimates exactly.
    let cfg = tiny(42);
    let serial = run_replicated(&cfg, 4);
    let jobs = (0..4)
        .map(|r| SweepJob::new(format!("rep{r}"), replication_config(&cfg, r), 1))
        .collect();
    let results = SweepRunner::new(4).run(jobs).into_results().unwrap();
    let folded =
        ReplicatedResult::from_reports(results.into_iter().flat_map(|r| r.reports).collect());
    assert_eq!(
        serial.response.mean.to_bits(),
        folded.response.mean.to_bits()
    );
    assert_eq!(
        serial.response.ci95.to_bits(),
        folded.response.ci95.to_bits()
    );
    assert_eq!(serial.log_ios.mean.to_bits(), folded.log_ios.mean.to_bits());
    assert_eq!(
        serial.hit_ratio.mean.to_bits(),
        folded.hit_ratio.mean.to_bits()
    );
    for (a, b) in serial.reports.iter().zip(&folded.reports) {
        assert_eq!(a.mean_response_s.to_bits(), b.mean_response_s.to_bits());
        assert_eq!(a.io, b.io);
    }
}
