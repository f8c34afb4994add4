//! Fault-injection contract (DESIGN.md §11): faults are a pure
//! function of (seed, fault config) — byte-identical at any worker
//! thread count; a zero-rate config is byte-inert; retry exhaustion
//! aborts the owning transaction without killing the run; graceful
//! degradation engages and recovers; and the crash-recovery matrix
//! finds zero ACID violations at every commit boundary and at sampled
//! intra-transaction and torn-log points.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use semcluster::{
    run_crash_matrix, run_simulation_observed, CrashMatrixConfig, Engine, FaultConfig, ObsConfig,
    SimConfig, SweepJob, SweepRunner,
};
use semcluster_clustering::ClusteringPolicy;
use semcluster_faults::DegradationPolicy;
use semcluster_obs::{JsonlSink, SyncBuf};

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

fn faulty_jobs() -> Vec<SweepJob> {
    let with = |seed: u64, preset: &str| SimConfig {
        faults: FaultConfig::preset(preset).expect("known preset"),
        ..tiny(seed)
    };
    let mut clustered = with(31, "smoke");
    clustered.clustering = ClusteringPolicy::NoLimit;
    vec![
        SweepJob::new("smoke", with(30, "smoke"), 2),
        SweepJob::new("smoke-clustered", clustered, 1),
        SweepJob::new("degraded", with(32, "degraded"), 1),
        SweepJob::new("stress", with(33, "stress"), 2),
    ]
}

#[test]
fn fault_injection_is_thread_count_invariant() {
    // Reports, merged metrics AND raw event traces (which carry the
    // io_fault / io_retry / log_stall events) must be byte-identical
    // whether the sweep ran on one thread or four.
    let traced = |threads: usize| {
        let bufs = Arc::new(Mutex::new(BTreeMap::<(usize, u32), SyncBuf>::new()));
        let registry = Arc::clone(&bufs);
        let runner = SweepRunner::new(threads).with_obs(move |index, rep| {
            let buf = SyncBuf::default();
            registry.lock().unwrap().insert((index, rep), buf.clone());
            ObsConfig::with_sink(Box::new(JsonlSink::new(buf)))
        });
        let outcome = runner.run(faulty_jobs());
        assert_eq!(outcome.summary.failed, 0);
        let traces: BTreeMap<(usize, u32), Vec<u8>> = bufs
            .lock()
            .unwrap()
            .iter()
            .map(|(k, v)| (*k, v.bytes()))
            .collect();
        (outcome, traces)
    };
    let (serial, serial_traces) = traced(1);
    let (parallel, parallel_traces) = traced(4);
    assert_eq!(serial.obs.metrics, parallel.obs.metrics, "merged metrics");
    for (a, b) in serial.items.iter().zip(&parallel.items) {
        let (ra, rb) = (a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
        for (pa, pb) in ra.reports.iter().zip(&rb.reports) {
            assert_eq!(pa.mean_response_s.to_bits(), pb.mean_response_s.to_bits());
            assert_eq!(pa.io, pb.io);
            assert_eq!(pa.faults, pb.faults, "{}: fault counters", a.label);
            assert_eq!(pa.abort_reasons, pb.abort_reasons);
        }
    }
    assert_eq!(serial_traces, parallel_traces, "fault traces byte-differ");
    // The faulty runs actually injected something and traced it.
    let all_bytes: Vec<u8> = serial_traces.values().flatten().copied().collect();
    let text = String::from_utf8(all_bytes).unwrap();
    assert!(text.contains("\"ev\":\"io_fault\""), "no io_fault traced");
    assert!(text.contains("\"ev\":\"io_retry\""), "no io_retry traced");
}

#[test]
fn zero_rate_faults_are_inert() {
    // An explicit all-zero fault config must not perturb the engine:
    // same seed, same bytes as the default (fault-free) configuration,
    // and the report must say faults were disabled. (CI additionally
    // pins this against the pre-fault-layer golden file.)
    let base = tiny(77);
    let explicit = SimConfig {
        faults: FaultConfig::preset("none").expect("none is a preset"),
        ..tiny(77)
    };
    assert!(explicit.faults.is_inert());
    let run = |cfg: SimConfig| {
        let buf = SyncBuf::default();
        let obs = ObsConfig::with_sink(Box::new(JsonlSink::new(buf.clone())));
        let (report, obs) = run_simulation_observed(cfg, obs);
        (report, obs.metrics, buf.bytes())
    };
    let (ra, sa, ta) = run(base);
    let (rb, sb, tb) = run(explicit);
    assert_eq!(ra.mean_response_s.to_bits(), rb.mean_response_s.to_bits());
    assert_eq!(ra.io, rb.io);
    assert_eq!(sa, sb, "metrics snapshots differ");
    assert_eq!(ta, tb, "traces differ");
    assert!(!ra.faults_enabled);
    assert_eq!(ra.faults, Default::default(), "inert run drew a fault");
    assert!(ra.abort_reasons.is_empty());
    // And no fault counter ever appears in the registry.
    assert!(!sa.to_json().contains("fault."));
}

/// Brutal error rates with two attempts per I/O: many page I/Os fail
/// outright and abort their transactions.
fn exhausting(seed: u64) -> SimConfig {
    SimConfig {
        faults: FaultConfig {
            read_error_rate: 0.30,
            write_error_rate: 0.20,
            retry: semcluster_faults::RetryPolicy {
                max_attempts: 2,
                backoff_us: 1_000,
                backoff_mult: 2,
            },
            ..FaultConfig::default()
        },
        ..tiny(seed)
    }
}

#[test]
fn retry_exhaustion_aborts_transactions_but_the_run_completes() {
    // The run still finishes, reporting the aborts instead of panicking.
    let (report, obs) = run_simulation_observed(exhausting(101), ObsConfig::default());
    let snapshot = obs.metrics;
    assert!(report.faults_enabled);
    assert!(
        report.faults.txn_aborts > 0,
        "a 9% per-I/O abort rate must abort something: {:?}",
        report.faults
    );
    assert!(!report.abort_reasons.is_empty());
    assert!(
        report
            .abort_reasons
            .iter()
            .any(|r| r.contains("failed after 2 attempts")),
        "{:?}",
        report.abort_reasons
    );
    assert!(report.faults.read_errors > 0);
    assert!(report.faults.retries > 0);
    // Aborted transactions are excluded from response statistics but
    // the run still measured the surviving ones.
    assert!(report.txns > 0);
    let json = snapshot.to_json();
    assert!(json.contains("fault.txn.abort"));
    assert!(json.contains("fault.io.read_error"));
}

#[test]
fn stepping_through_aborts_reports_what_an_uninterrupted_run_does() {
    // An abort ends its transaction where the failed I/O stopped the
    // operation clock; stepping must land on the same instants.
    let cfg = exhausting(101);
    let target = cfg.warmup_txns + cfg.measured_txns;
    let (whole, whole_obs) = run_simulation_observed(cfg.clone(), ObsConfig::default());
    let mut engine = Engine::new(cfg);
    let mut boundaries = 0;
    while engine.step_transaction() {
        boundaries += 1;
        assert_eq!(engine.completed_txns(), boundaries);
    }
    assert_eq!(boundaries, target);
    let (stepped, stepped_obs) = engine.run_observed();
    assert!(stepped.faults.txn_aborts > 0, "{:?}", stepped.faults);
    assert_eq!(stepped.to_json(), whole.to_json());
    assert_eq!(stepped_obs.metrics.to_json(), whole_obs.metrics.to_json());
}

#[test]
fn graceful_degradation_engages_and_recovers() {
    // A clustering config with a tiny cluster-search budget: the
    // sliding window blows the budget, placement degrades to append
    // (trace + counters say so), then the hysteresis exit fires once
    // the window drains.
    let mut cfg = tiny(55);
    cfg.clustering = ClusteringPolicy::NoLimit;
    cfg.faults = FaultConfig {
        degradation: DegradationPolicy {
            window_txns: 8,
            search_budget_us: 2_000,
            exit_pct: 50,
        },
        ..FaultConfig::default()
    };
    let buf = SyncBuf::default();
    let obs = ObsConfig::with_sink(Box::new(JsonlSink::new(buf.clone())));
    let (report, obs) = run_simulation_observed(cfg, obs);
    let snapshot = obs.metrics;
    assert!(
        report.faults.degrade_enters > 0,
        "budget was never exceeded: {:?}",
        report.faults
    );
    assert!(
        report.faults.degrade_exits > 0,
        "hysteresis never recovered: {:?}",
        report.faults
    );
    let json = snapshot.to_json();
    assert!(json.contains("fault.degrade.enter"));
    assert!(json.contains("fault.degrade.exit"));
    let trace = String::from_utf8(buf.bytes()).unwrap();
    assert!(trace.contains("\"ev\":\"degrade\""));
}

#[test]
fn crash_matrix_smoke_is_acid_clean() {
    // The CI gate in test form: every commit boundary plus >= 50
    // sampled intra-transaction points plus torn-log points, each
    // crashed, recovered and verified. Zero acknowledged commits lost,
    // zero loser effects surviving.
    let mc = CrashMatrixConfig::smoke();
    assert!(mc.event_samples >= 50, "smoke must sample >= 50 events");
    let report = run_crash_matrix(&mc);
    assert_eq!(report.violation_count(), 0, "{}", report.render());
    assert!(report.total_commits > 0);
    assert_eq!(
        report
            .points
            .iter()
            .filter(|p| matches!(p.point, semcluster::CrashPoint::Commit(_)))
            .count() as u64,
        report.total_commits,
        "every commit boundary must be crashed"
    );
    assert!(
        report
            .points
            .iter()
            .filter(|p| matches!(p.point, semcluster::CrashPoint::Event(_)))
            .count()
            >= 50.min(report.total_events as usize),
        "at least 50 intra-transaction samples"
    );
    // Torn-log points tore the WAL tail somewhere, and recovery
    // truncated it.
    assert!(
        report
            .points
            .iter()
            .any(|p| matches!(p.point, semcluster::CrashPoint::MidFlush(_)) && p.wal_truncated > 0),
        "no mid-flush crash ever tore the WAL tail"
    );
}

#[test]
fn matrix_is_thread_count_invariant() {
    let mut mc = CrashMatrixConfig::smoke();
    mc.cfg.database_bytes = 512 * 1024;
    mc.cfg.buffer_pages = 8;
    mc.cfg.warmup_txns = 4;
    mc.cfg.measured_txns = 10;
    mc.event_samples = 8;
    mc.mid_flush_samples = 4;
    mc.skip_physical_sync = true;
    mc.jobs = 1;
    let serial = run_crash_matrix(&mc);
    mc.jobs = 4;
    let parallel = run_crash_matrix(&mc);
    assert_eq!(serial.render(), parallel.render());
    assert_eq!(serial.violation_count(), 0, "{}", serial.render());
}
