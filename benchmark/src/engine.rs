//! The four `engine_*` workloads: one thread drives `Engine` a
//! transaction at a time, timing every `step_transaction`.

use crate::host;
use crate::metrics::{MetricSet, RunResult, END_TO_END, PER_LAYER};
use crate::probes;
use crate::stats::{median_of as med, p50_p99_us};
use crate::trace::{Span, TraceFile};
use crate::workloads::{repeat_rounds, EngineSpec, RunArgs, Workload, MIN_ROUNDS};
use semcluster::{
    workload_from_label, CrashOutcome, CrashPoint, DurableMirror, Engine, ObsConfig, RunReport,
    SimConfig,
};
use semcluster_clustering::ClusteringPolicy;
use semcluster_faults::FsFaultConfig;
use semcluster_obs::ProfileReport;
use semcluster_storage::{
    encode_wal_record, recover_dir, WalOp, DISK_PAGE_BYTES, PAGES_FILE, WAL_FILE,
};
use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

const WARMUP_TXNS: u64 = 400;

fn config(spec: &EngineSpec, args: &RunArgs) -> SimConfig {
    SimConfig {
        database_bytes: spec.database_mib << 20,
        buffer_pages: spec.buffer_pages,
        workload: workload_from_label(spec.label).expect("workload label is a preset"),
        clustering: ClusteringPolicy::NoLimit,
        split: spec.split,
        replacement: spec.replacement,
        prefetch: spec.prefetch,
        retain_log: spec.durable,
        warmup_txns: WARMUP_TXNS,
        measured_txns: args.scaled(spec.txns),
        seed: args.seed,
        ..SimConfig::default()
    }
}

/// What the file store did during the first round of a run, with the
/// checkpoint taken out, and what recovery made of it.
#[derive(Default)]
struct DurableRound {
    fs_writes: u64,
    fsyncs: u64,
    bytes_synced: u64,
    commits_ok: u64,
    commits_failed: u64,
    disk_bytes: u64,
    recover_ns: u64,
    recover_redo: u64,
    violations: Vec<String>,
}

/// One fresh engine driven through the workload's fixed input.
struct Round {
    build_s: f64,
    setup_s: f64,
    drive_ns: u64,
    txns: u64,
    /// Transactions the step loop saw complete (must equal `txns`).
    steps_timed: u64,
    cpu_ms: u64,
    report: RunReport,
    /// Median and 99th percentile of the wall time of one
    /// `step_transaction`, in microseconds.
    step_p50_us: f64,
    step_p99_us: f64,
    /// Wall nanoseconds of every `step_transaction`, in order; kept by
    /// profiled rounds only, for the trace file.
    steps: Vec<u32>,
    profile: Option<ProfileReport>,
    durable: Option<DurableRound>,
}

impl Round {
    fn txn_per_s(&self) -> f64 {
        self.txns as f64 / (self.drive_ns as f64 / 1e9)
    }
}

/// Length and FNV-1a digest of each store file, read in chunks so that
/// comparing two states of the store does not hold either in memory.
fn store_digest(dir: &Path) -> Vec<(u64, u64)> {
    [PAGES_FILE, WAL_FILE]
        .iter()
        .map(|name| {
            let mut len = 0u64;
            let mut hash = 0xcbf2_9ce4_8422_2325u64;
            if let Ok(mut file) = std::fs::File::open(dir.join(name)) {
                let mut chunk = vec![0u8; 1 << 20];
                while let Ok(n) = file.read(&mut chunk) {
                    if n == 0 {
                        break;
                    }
                    len += n as u64;
                    for &byte in &chunk[..n] {
                        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
                    }
                }
            }
            (len, hash)
        })
        .collect()
}

fn scratch_dir(name: &str, round: usize) -> PathBuf {
    host::out_dir()
        .join("scratch")
        .join(format!("{name}-{}-{round}", std::process::id()))
}

fn step_percentiles_us(steps: &[u32]) -> (f64, f64) {
    let mut ns: Vec<u64> = steps.iter().map(|&ns| u64::from(ns)).collect();
    p50_p99_us(&mut ns)
}

/// Time every transaction of `engine`; the end of one step is the start
/// of the next, so the steps tile the drive span with no gap.
fn drive(engine: &mut Engine, steps: &mut Vec<u32>) -> u64 {
    let start = Instant::now();
    let mut last = start;
    while engine.step_transaction() {
        let now = Instant::now();
        steps.push((now - last).as_nanos().min(u128::from(u32::MAX)) as u32);
        last = now;
    }
    (last - start).as_nanos() as u64
}

/// Crash the mirrored store, recover it twice and hold the result
/// against the engine's ground truth.
fn crash_and_verify(dir: &Path, outcome: &CrashOutcome) -> Result<DurableRound, String> {
    let files = outcome.file.as_ref().ok_or("mirror left no artifacts")?;
    let fs = files.report.stats;
    let ckpt_writes = files.checkpoint_syscalls - files.checkpoint_fsyncs;
    // The checkpoint wrote one page image per write but its last, the
    // CheckpointEnd record.
    let ckpt_bytes = (ckpt_writes - 1) * u64::from(DISK_PAGE_BYTES)
        + encode_wal_record(1, 0, &WalOp::CheckpointEnd).len() as u64;
    let mut durable = DurableRound {
        fs_writes: fs.writes - ckpt_writes,
        fsyncs: fs.fsyncs - files.checkpoint_fsyncs,
        bytes_synced: fs.bytes_synced.saturating_sub(ckpt_bytes),
        commits_ok: files.stats.commits_ok,
        commits_failed: files.stats.commits_failed,
        violations: outcome.verify_acid(),
        ..DurableRound::default()
    };
    durable.violations.extend(files.errors.iter().cloned());

    let recover_start = Instant::now();
    let rec1 = recover_dir(dir).map_err(|e| format!("recovery: {e}"))?;
    durable.recover_ns = recover_start.elapsed().as_nanos() as u64;
    durable.recover_redo = rec1.redone;
    let after_first = store_digest(dir);
    durable.disk_bytes = after_first.iter().map(|(len, _)| len).sum();
    let rec2 = recover_dir(dir).map_err(|e| format!("second recovery: {e}"))?;
    let bytes_stable = after_first == store_digest(dir);
    durable
        .violations
        .extend(outcome.verify_file(&rec1, &rec2, bytes_stable));
    Ok(durable)
}

fn run_round(
    name: &str,
    spec: &EngineSpec,
    args: &RunArgs,
    round: usize,
    profiled: bool,
) -> Result<Round, String> {
    let cfg = config(spec, args);
    let txns = cfg.warmup_txns + cfg.measured_txns;
    let mut steps = Vec::with_capacity(txns as usize);
    let setup_start = Instant::now();
    let obs = if profiled {
        ObsConfig::default().profile()
    } else {
        ObsConfig::default()
    };
    let mut engine = Engine::with_obs(cfg, obs);
    let build_s = setup_start.elapsed().as_secs_f64();

    let store_dir = spec.durable.then(|| scratch_dir(name, round));
    if let Some(dir) = &store_dir {
        let _ = std::fs::remove_dir_all(dir);
        // No injected faults. Every fsync the store asks for is issued
        // to the fault layer and counted, but the physical `sync_all` is
        // left out: this sandbox's disk moves between a ~90 µs and a
        // ~250 µs fsync for minutes at a time, which would make every
        // number of this workload the disk's. What a physical fsync
        // costs is measured by the storage probes instead.
        let quiet_disk = FsFaultConfig {
            skip_physical_sync: true,
            ..FsFaultConfig::default()
        };
        let mirror =
            DurableMirror::create(dir, quiet_disk).map_err(|e| format!("mirror create: {e}"))?;
        engine
            .attach_mirror(mirror)
            .map_err(|e| format!("mirror checkpoint: {e}"))?;
    }
    let setup_s = setup_start.elapsed().as_secs_f64();

    let cpu0 = host::process_cpu_ms();
    let drive_ns = drive(&mut engine, &mut steps);
    let cpu_ms = host::process_cpu_ms() - cpu0;

    // Every round of a run replays the same input, so the store is
    // crashed, recovered and verified on the first one only; the others
    // finish, report and drop their files.
    let (report, profile, durable) = match &store_dir {
        Some(dir) if round == 0 => {
            let outcome = engine.run_and_crash_at(CrashPoint::End);
            let durable = crash_and_verify(dir, &outcome)?;
            (outcome.report, None, Some(durable))
        }
        _ => {
            let (report, obs) = engine.run_observed();
            (report, obs.profile, None)
        }
    };
    if let Some(dir) = &store_dir {
        // A store that failed its checks is kept for the post-mortem.
        let failed_checks = durable.as_ref().is_some_and(|d| !d.violations.is_empty());
        if !failed_checks {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    let (step_p50_us, step_p99_us) = step_percentiles_us(&steps);
    Ok(Round {
        build_s,
        setup_s,
        drive_ns,
        txns,
        cpu_ms,
        steps_timed: steps.len() as u64,
        report,
        step_p50_us,
        step_p99_us,
        steps: if profiled { steps } else { Vec::new() },
        profile,
        durable,
    })
}

/// Repeat rounds until their timed phases add up to `seconds`.
fn run_rounds(
    w: &Workload,
    spec: &EngineSpec,
    args: &RunArgs,
    seconds: f64,
    min_rounds: usize,
    profiled: bool,
    rounds: &mut Vec<Round>,
) -> Result<(), String> {
    repeat_rounds(
        rounds,
        seconds,
        min_rounds,
        |r| r.drive_ns as f64 / 1e9,
        |round| run_round(w.name, spec, args, round, profiled),
    )
}

/// Output checks over every round of a run; returns what failed.
fn check(rounds: &[Round], expect_measured: u64) -> (Vec<String>, u64) {
    let mut problems = Vec::new();
    let mut failed = 0;
    let first_report = rounds.first().map(|r| r.report.to_json());
    for (i, r) in rounds.iter().enumerate() {
        if Some(r.report.to_json()) != first_report {
            problems.push(format!(
                "round {i}: report differs from round 0 on the same input"
            ));
        }
        if r.report.txns != expect_measured {
            problems.push(format!(
                "round {i}: report counts {} measured txns, expected {expect_measured}",
                r.report.txns
            ));
        }
        if r.steps_timed != r.txns {
            problems.push(format!(
                "round {i}: {} steps for {} txns",
                r.steps_timed, r.txns
            ));
        }
        failed += r.report.faults.txn_aborts;
        if let Some(d) = &r.durable {
            failed += d.commits_failed + d.violations.len() as u64;
            problems.extend(d.violations.iter().map(|v| format!("round {i}: {v}")));
        }
    }
    (problems, failed)
}

/// `--trace 0`: the end-to-end numbers, tracing and profiling off.
pub fn run_timed(w: &Workload, spec: &EngineSpec, args: &RunArgs) -> Result<RunResult, String> {
    let mut rounds = Vec::new();
    run_rounds(w, spec, args, args.seconds, MIN_ROUNDS, false, &mut rounds)?;
    let (problems, failed) = check(&rounds, args.scaled(spec.txns));
    let txns: u64 = rounds.iter().map(|r| r.txns).sum();
    let mut m = MetricSet::new(END_TO_END);
    m.set("txn_per_s", med(&rounds, Round::txn_per_s));
    m.set("p50_us", med(&rounds, |r| r.step_p50_us));
    m.set("p99_us", med(&rounds, |r| r.step_p99_us));
    m.set("setup_s", med(&rounds, |r| r.setup_s));
    m.set("peak_rss_mb", host::peak_rss_mib());
    Ok(RunResult {
        correct: problems.is_empty(),
        problems,
        attempted: txns,
        failed,
        metrics: m,
    })
}

/// Calls and wall milliseconds of one profiled phase, summed over every
/// stack it appears in (a buffer lookup nested under placement counts
/// as a buffer lookup).
fn phase(profile: &ProfileReport, name: &str) -> (u64, f64) {
    profile
        .phases()
        .filter(|(path, _)| path.rsplit(';').next() == Some(name))
        .fold((0, 0.0), |(calls, ms), (_, s)| {
            (calls + s.calls, ms + s.wall_ns as f64 / 1e6)
        })
}

/// `--trace 1`: untraced rounds for the overhead baseline, profiled
/// rounds for the per-layer numbers, then the kernel probes.
pub fn run_traced(w: &Workload, spec: &EngineSpec, args: &RunArgs) -> Result<RunResult, String> {
    let mut all = Vec::new();
    run_rounds(w, spec, args, args.seconds / 2.0, 1, false, &mut all)?;
    let plain_rounds = all.len();
    run_rounds(w, spec, args, args.seconds / 2.0, 1, true, &mut all)?;
    let (plain, traced) = all.split_at(plain_rounds);

    let mut m = MetricSet::new(PER_LAYER);
    m.set(
        "obs.trace_overhead_frac",
        1.0 - med(traced, Round::txn_per_s) / med(plain, Round::txn_per_s),
    );

    let last = traced.last().expect("at least one traced round");
    let txns = last.txns as f64;
    // Layer self times of the last traced round; with the remainder they
    // add up to its drive span.
    let mut layers: Vec<(String, u64)> = Vec::new();
    if let Some(p) = &last.profile {
        for (metric_calls, metric_ms, phase_name) in [
            ("sim.event_pop_calls", "sim.event_pop_wall_ms", "event_pop"),
            (
                "buffer.lookup_calls",
                "buffer.lookup_wall_ms",
                "buffer_lookup",
            ),
            (
                "buffer.prefetch_calls",
                "buffer.prefetch_wall_ms",
                "prefetch",
            ),
            (
                "clustering.placement_calls",
                "clustering.placement_wall_ms",
                "placement_score",
            ),
            ("lock.acquire_calls", "lock.acquire_wall_ms", "lock_acquire"),
            ("wal.append_calls", "wal.append_wall_ms", "wal_append"),
            ("wal.flush_calls", "wal.flush_wall_ms", "wal_flush"),
        ] {
            let (calls, ms) = phase(p, phase_name);
            m.set(metric_calls, calls as f64);
            m.set(metric_ms, ms);
        }
        let (_, run_self_ms) = phase(p, "run");
        m.set("core.engine.self_wall_ms", run_self_ms);
        m.set(
            "core.engine.events_per_txn",
            phase(p, "event_pop").0 as f64 / txns,
        );
        let alloc: u64 = p.phases().map(|(_, s)| s.alloc_bytes).sum();
        m.set("core.engine.alloc_bytes_per_txn", alloc as f64 / txns);
        let mut by_phase = std::collections::BTreeMap::<String, u64>::new();
        for (path, s) in p.phases() {
            let leaf = path.rsplit(';').next().unwrap_or(path);
            *by_phase.entry(leaf.to_string()).or_default() += s.wall_ns;
        }
        layers.extend(by_phase);
    }
    let attributed: u64 = layers.iter().map(|(_, ns)| ns).sum();
    let unattributed_ns = last.drive_ns as i64 - attributed as i64;
    m.set("obs.unattributed_ms", unattributed_ns as f64 / 1e6);

    let plain_cpu_ms: u64 = plain.iter().map(|r| r.cpu_ms).sum();
    let plain_txns: u64 = plain.iter().map(|r| r.txns).sum();
    m.set(
        "process.cpu_ms_per_ktxn",
        plain_cpu_ms as f64 / (plain_txns as f64 / 1e3),
    );
    m.set("core.engine.build_s", med(&all, |r| r.build_s));
    m.set(
        "core.engine.drive_s",
        med(&all, |r| r.drive_ns as f64 / 1e9),
    );
    m.set("core.engine.step_p99_us", med(traced, |r| r.step_p99_us));
    let report = &last.report;
    m.set("core.engine.sim_response_ms", report.mean_response_s * 1e3);
    m.set("core.engine.aborts", report.faults.txn_aborts as f64);
    m.set("buffer.hit_ratio", report.hit_ratio);
    m.set("buffer.data_reads", report.io.data_reads as f64);
    m.set("buffer.prefetch_ios", report.io.prefetch_ios as f64);
    m.set("clustering.search_ios", report.io.cluster_search_ios as f64);
    m.set("clustering.splits", report.splits as f64);
    m.set("clustering.recluster_moves", report.recluster_moves as f64);
    m.set("lock.waits", report.lock_waits as f64);
    m.set("wal.log_ios", report.log_ios as f64);

    // The first round of the invocation is the one that was crashed and
    // recovered; the mirror's set-up share is on every round.
    if let Some(d) = all.iter().find_map(|r| r.durable.as_ref()) {
        let commits = d.commits_ok.max(1) as f64;
        m.set("storage.checkpoint_s", med(&all, |r| r.setup_s - r.build_s));
        m.set("storage.fs_writes", d.fs_writes as f64);
        m.set("storage.fsyncs", d.fsyncs as f64);
        m.set("storage.bytes_synced", d.bytes_synced as f64);
        m.set("storage.fsyncs_per_commit", d.fsyncs as f64 / commits);
        m.set(
            "storage.synced_bytes_per_commit",
            d.bytes_synced as f64 / commits,
        );
        m.set(
            "storage.disk_bytes_per_db_byte",
            d.disk_bytes as f64 / (spec.database_mib << 20) as f64,
        );
        m.set("storage.recover_ms", d.recover_ns as f64 / 1e6);
        m.set("storage.recover_redo", d.recover_redo as f64);
    }

    let (mut problems, failed) = check(&all, args.scaled(spec.txns));

    probes::run(&mut m, spec.buffer_pages, spec.replacement);

    // Spans of the last traced round, on a clock that starts with it.
    let setup_ns = (last.setup_s * 1e9) as u64;
    let build_ns = (last.build_s * 1e9) as u64;
    let drive_end = setup_ns + last.drive_ns;
    let mut spans = vec![
        Span::new("round", 0, drive_end, None, 0),
        Span::new("core.engine.build", 0, build_ns, Some(0), 0),
        Span::new("core.engine.drive", setup_ns, drive_end, Some(0), 0),
    ];
    if spec.durable {
        spans.push(Span::new(
            "storage.checkpoint",
            build_ns,
            setup_ns,
            Some(0),
            0,
        ));
    }
    let mut at = setup_ns;
    for (i, &ns) in last.steps.iter().enumerate() {
        let end = at + u64::from(ns);
        spans.push(Span::new(
            "core.engine.step_transaction",
            at,
            end,
            Some(2),
            i as u64 + 1,
        ));
        at = end;
    }
    let trace = TraceFile {
        workload: w.name,
        seed: args.seed,
        wall_ns: last.drive_ns,
        spans,
        layers,
        unattributed_ns,
    };
    problems.extend(trace.save(&host::out_dir()).err());
    let attempted: u64 = all.iter().map(|r| r.txns).sum();
    m.set("client.failed_frac", failed as f64 / attempted as f64);
    Ok(RunResult {
        correct: problems.is_empty(),
        problems,
        attempted,
        failed,
        metrics: m,
    })
}
