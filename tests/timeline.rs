//! Timeline sampling, placement records and Chrome trace export:
//! behavioural inertness of the observers, determinism of the sampled
//! timeline under thread counts and zero-rate fault configs, placement
//! records that are consistent and reconcile with the report, and
//! structural validity of the Chrome trace on a real run, whose args
//! are the JSONL trace's fields.

use semcluster::{
    run_simulation, run_simulation_observed, FaultConfig, ObsConfig, RunReport, SimConfig,
    SweepJob, SweepRunner,
};
use semcluster_buffer::{PrefetchScope, ReplacementPolicy};
use semcluster_clustering::{ClusteringPolicy, SplitPolicy};
use semcluster_obs::{
    shared, AuditKind, ChromeTraceSink, JsonlSink, SharedSink, SplitVerdict, SyncBuf, TraceEvent,
};
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

fn assert_reports_equal(plain: &RunReport, observed: &RunReport) {
    assert_eq!(plain.mean_response_s, observed.mean_response_s);
    assert_eq!(plain.p95_response_s, observed.p95_response_s);
    assert_eq!(plain.span_totals, observed.span_totals);
    assert_eq!(plain.io, observed.io);
    assert_eq!(plain.txns, observed.txns);
    assert_eq!(plain.lock_waits, observed.lock_waits);
    assert_eq!(plain.splits, observed.splits);
    assert_eq!(plain.recluster_moves, observed.recluster_moves);
}

/// Run `busy()` with a sink keeping every event, typed.
fn busy_events() -> (RunReport, Vec<TraceEvent>) {
    let events: SharedSink<Vec<TraceEvent>> = shared(Vec::new());
    let (report, _) =
        run_simulation_observed(busy(), ObsConfig::with_sink(Box::new(events.clone())));
    let events = events.take();
    (report, events)
}

/// Timeline sampling and a trace sink that keeps the placement records
/// are pure observation: every reported number is identical to the
/// unobserved run.
#[test]
fn timeline_and_audit_are_inert() {
    let plain = run_simulation(busy());
    let events: SharedSink<Vec<TraceEvent>> = shared(Vec::new());
    let (observed, obs) = run_simulation_observed(
        busy(),
        ObsConfig::with_sink(Box::new(events.clone())).timeline(500_000),
    );
    assert_reports_equal(&plain, &observed);
    let timeline = obs.timeline.expect("timeline sampling was on");
    assert!(!timeline.is_empty(), "a 300-txn run crosses sample points");
    let placements = events
        .borrow()
        .iter()
        .filter(|e| matches!(e, TraceEvent::Placement { .. }))
        .count();
    assert!(placements > 0, "a clustered run places objects");
}

/// The all-zero `none` fault preset is the inert default: the sampled
/// timeline is byte-identical with and without it.
#[test]
fn zero_rate_faults_leave_timeline_byte_identical() {
    let none = FaultConfig::preset("none").expect("none preset exists");
    assert_eq!(none, FaultConfig::default());
    let with_preset = SimConfig {
        faults: none,
        ..busy()
    };
    let obs = || ObsConfig::default().timeline(500_000);
    let (ra, oa) = run_simulation_observed(busy(), obs());
    let (rb, ob) = run_simulation_observed(with_preset, obs());
    assert_reports_equal(&ra, &rb);
    assert_eq!(
        oa.timeline.expect("sampled").to_json(),
        ob.timeline.expect("sampled").to_json()
    );
}

/// Sweep-level timelines are byte-identical at any worker-thread count.
#[test]
fn sweep_timeline_json_matches_across_jobs() {
    let jobs = || {
        vec![
            SweepJob::new("a", busy(), 2),
            SweepJob::new("b", SimConfig { seed: 77, ..busy() }, 2),
        ]
    };
    let sampled = |threads| {
        SweepRunner::new(threads).with_obs(|_, _| ObsConfig::default().timeline(1_000_000))
    };
    let serial = sampled(1).run(jobs());
    let parallel = sampled(4).run(jobs());
    assert_eq!(
        serial.obs.timeline.expect("sampled").to_json(),
        parallel.obs.timeline.expect("sampled").to_json()
    );
}

/// Timeline points carry physically sensible values: monotone
/// timestamps on interval boundaries, per-interval deltas bounded by
/// the run totals, and a locality fraction within [0, 1].
#[test]
fn timeline_points_are_sensible() {
    let (report, obs) = run_simulation_observed(busy(), ObsConfig::default().timeline(500_000));
    let timeline = obs.timeline.expect("sampled");
    let mut hits = 0u64;
    let mut commits = 0u64;
    let mut prev = 0u64;
    for (t_us, p) in timeline.points() {
        assert!(t_us > prev && t_us % 500_000 == 0, "aligned boundaries");
        prev = t_us;
        assert_eq!(p.runs, 1, "single run contributes one sample per point");
        assert!(p.loc_on_page <= p.loc_refs, "locality is a fraction");
        hits += p.hits;
        commits += p.commits;
    }
    // The timeline counts from t=0 (warmup included); the last partial
    // interval is never sampled, so commit deltas stay below the run's
    // full transaction count.
    assert!(hits > 0, "sampled interval saw buffer hits");
    assert!(commits <= report.txns + busy().warmup_txns);
    assert!(commits > 0, "sampled interval saw commits");
}

/// Every placement record describes a real decision: records come in
/// decision order, a create lands where its search chose unless it
/// appended or split, a recluster has a target and a gain, and the
/// search is charged no more I/Os than it examined candidates. (The
/// last-N retention `explain-placement` keeps is checked by its own
/// test in `crates/cli/src/commands.rs`.)
#[test]
fn placement_audits_are_bounded_and_consistent() {
    let (_, events) = busy_events();
    let mut prev = 0u64;
    let mut seen = [0u32; 2];
    for event in &events {
        let TraceEvent::Placement {
            at,
            kind,
            from,
            ref candidates,
            chosen,
            landed,
            score_milli,
            split,
            search_ios,
            ..
        } = *event
        else {
            continue;
        };
        assert!(at.as_micros() >= prev, "records in decision order");
        prev = at.as_micros();
        match kind {
            AuditKind::Create => {
                seen[0] += 1;
                assert_eq!(from, None, "a create comes off no page");
                // The landed page is the chosen page unless the search
                // appended or a split redirected the object.
                if let Some(chosen) = chosen {
                    if !matches!(split, SplitVerdict::Executed { .. }) {
                        assert_eq!(landed, chosen);
                    }
                }
            }
            AuditKind::Recluster => {
                seen[1] += 1;
                assert!(from.is_some(), "a recluster names its source page");
                assert!(chosen.is_some(), "recluster always has a target");
                assert!(score_milli > 0, "recluster only moves on gain");
            }
        }
        // Only non-resident examined pages cost I/O, so the charge is
        // bounded by (not equal to) the candidate count.
        assert!(search_ios as usize <= candidates.len());
        let json = event.to_json();
        assert!(json.starts_with("{\"t\":") && json.ends_with('}'));
    }
    assert!(seen[0] > 0 && seen[1] > 0, "both kinds recorded: {seen:?}");
}

/// One record per placement decision, and the records reconcile with
/// the report: over the measured window (the placement records after
/// the retirement that ends the warm-up) the executed splits are the
/// report's splits and the reclusters that left their page are its
/// recluster moves.
#[test]
fn placement_records_reconcile_with_the_ledger() {
    let (report, events) = busy_events();
    let warmup = busy().warmup_txns;
    let mut retired = 0u64;
    let (mut splits, mut moves) = (0u64, 0u64);
    for event in &events {
        match *event {
            TraceEvent::TxnCommit { .. } | TraceEvent::TxnAbort { .. } => retired += 1,
            TraceEvent::Placement {
                from,
                landed,
                split,
                ..
            } if retired >= warmup => {
                splits += u64::from(matches!(split, SplitVerdict::Executed { .. }));
                moves += u64::from(from.is_some_and(|from| from != landed));
            }
            _ => {}
        }
    }
    assert!(
        report.splits > 0 && report.recluster_moves > 0,
        "{report:?}"
    );
    assert_eq!(splits, report.splits);
    assert_eq!(moves, report.recluster_moves);
}

/// A Chrome trace of a real run is a structurally valid JSON array:
/// balanced braces, the six process-name records (transactions,
/// data-disks, log-device, engine, profiler, serve-requests),
/// begin/end span parity
/// per user lane, and durations on every complete event.
#[test]
fn chrome_trace_of_real_run_is_wellformed() {
    let buf = SyncBuf::new();
    let (report, _) = run_simulation_observed(
        busy(),
        ObsConfig::with_sink(Box::new(ChromeTraceSink::new(buf.clone()))),
    );
    let text = String::from_utf8(buf.bytes()).expect("trace is UTF-8");
    assert!(text.starts_with("[\n"));
    assert!(text.ends_with("{}\n]\n"), "array closed exactly once");
    assert_eq!(text.matches('{').count(), text.matches('}').count());
    assert_eq!(text.matches("\"process_name\"").count(), 6);
    // Every transaction span opens and closes (commit or abort).
    let begins = text.matches("\"ph\":\"B\"").count();
    let ends = text.matches("\"ph\":\"E\"").count();
    assert_eq!(begins, ends);
    assert_eq!(
        begins as u64,
        report.txns + busy().warmup_txns,
        "one span per transaction"
    );
    // Complete events always carry a duration.
    for line in text.lines().filter(|l| l.contains("\"ph\":\"X\"")) {
        assert!(line.contains("\"dur\":"), "{line}");
    }
}

/// The `args` object of one Chrome record line.
fn args_of(record: &str) -> &str {
    let record = record.strip_suffix(',').unwrap_or(record);
    &record[record.find(r#""args":"#).expect("record has args") + 7..record.len() - 1]
}

/// A flat JSON object keeping only its numeric fields.
fn numeric_fields(obj: &str) -> String {
    let kept: Vec<&str> = obj[1..obj.len() - 1]
        .split(',')
        .filter(|f| {
            f.split(':')
                .nth(1)
                .is_some_and(|v| v.starts_with(|c: char| c.is_ascii_digit()))
        })
        .collect();
    format!("{{{}}}", kept.join(","))
}

/// One seed run once per sink: every Chrome record's args are the
/// matching JSONL line less `t` (a profiler counter's, its numeric
/// fields only), on a faulted, splitting, prefetching, profiled run.
#[test]
fn chrome_args_are_the_jsonl_fields() {
    let mut cfg = busy();
    cfg.faults = FaultConfig::preset("stress").expect("stress preset exists");
    let (jsonl, chrome) = (SyncBuf::new(), SyncBuf::new());
    let sinks: [Box<dyn semcluster_obs::TraceSink>; 2] = [
        Box::new(JsonlSink::new(jsonl.clone())),
        Box::new(ChromeTraceSink::new(chrome.clone())),
    ];
    for sink in sinks {
        run_simulation_observed(cfg.clone(), ObsConfig::with_sink(sink).profile());
    }
    let jsonl = String::from_utf8(jsonl.bytes()).expect("trace is UTF-8");
    let chrome = String::from_utf8(chrome.bytes()).expect("trace is UTF-8");
    // "[", six lane names, then one record per event and "{}", "]".
    let records: Vec<&str> = chrome.lines().skip(7).collect();
    assert_eq!(records.len(), jsonl.lines().count() + 2);
    let mut kinds = std::collections::BTreeSet::new();
    for (line, record) in jsonl.lines().zip(records) {
        let fields = format!("{{{}", &line[line.find(',').expect("t, then ev") + 1..]);
        let expected = if record.contains(r#""ph":"C""#) {
            numeric_fields(&fields)
        } else {
            fields
        };
        assert_eq!(args_of(record), expected, "{record}");
        kinds.insert(line.split('"').nth(5).expect("ev value").to_owned());
    }
    for kind in [
        "txn_abort",
        "io_fault",
        "io_retry",
        "log_flush",
        "placement",
        "prefetch_io",
        "profile_phase",
    ] {
        assert!(kinds.contains(kind), "no {kind} in {kinds:?}");
    }
    assert!(
        jsonl.contains(r#""split":"executed""#),
        "the run splits a page"
    );
}
