//! The CLI subcommands.

use crate::args::Args;
use crate::error::CliError;
use semcluster::{
    replication_config, run_crash_matrix, run_simulation, run_simulation_observed,
    workload_from_label, CrashMatrixConfig, CrashPoint, DurableMirror, FaultConfig, MatrixBackend,
    ObsConfig, ReplicatedResult, RunReport, SimConfig, SweepJob, SweepRunner, SweepSummary,
};
use semcluster_analysis::Table;
use semcluster_buffer::{PrefetchScope, ReplacementPolicy};
use semcluster_clustering::{
    broken_arc_weight, static_recluster, ClusteringPolicy, SplitPolicy, WeightModel,
};
use semcluster_obs::{ChromeTraceSink, FoldedMetric, JsonlSink, ProfileReport, SplitVerdict};
use semcluster_sim::SimRng;
use semcluster_storage::StorageManager;
use semcluster_vdm::{RelKind, SyntheticDbSpec};
use semcluster_workload::{analyze, generate_trace, oct_tools};

/// Top-level usage text.
pub const USAGE: &str = "semclusterctl — the semcluster OODBMS simulator

USAGE:
  semclusterctl simulate [--preset|--workload low3-5|med5-10|hi10-100|…]
                         [--clustering none|buffer|2io|10io|nolimit|adaptive]
                         [--replacement lru|random|ctx]
                         [--prefetch none|buffer|db]
                         [--split none|linear|np]
                         [--buffer-pages N] [--paper-scale]
                         [--reps N] [--jobs N] [--seed N] [--json]
                         [--backend sim|file] [--data-dir DIR]
                         [--faults none|smoke|degraded|stress]
                         [--trace out.jsonl] [--chrome-trace out.json]
                         [--timeline out.json] [--timeline-interval-us N]
                         [--metrics json|table]
                         [--profile] [--folded out.folded]
                         [--folded-metric wall_ns|sim_us|alloc_bytes|allocs|calls]
  semclusterctl explain  [same config flags as simulate] [--json]
  semclusterctl explain-placement [same config flags as simulate]
                         [--last N] [--json]
  semclusterctl trace    [--invocations N] [--seed N]
  semclusterctl inspect  [--workload med5-10] [--mbytes N] [--seed N]
  semclusterctl reorg    [--modules N] [--seed N]
  semclusterctl golden   [--bless]
                         [--suite smoke|faults|timeline|profile|chaos|stats]
                         [--path FILE] [--jobs N]
  semclusterctl bench-report [--out FILE] [--jobs N]
                         [--suite smoke|full] [--folded FILE]
                         [--folded-metric wall_ns|sim_us|alloc_bytes|allocs|calls]
  semclusterctl serve    [--addr HOST:PORT] [--mode concurrent|oracle]
                         [--workers N] [--queue-cap N] [--deadline-ms N]
                         [--max-inflight N] [--group-window-us N]
                         [--objects N] [--timeline FILE]
                         [--timeline-interval-ms N]
                         [--metrics-addr HOST:PORT] [--slo-window N]
                         [--chrome-trace FILE] [--trace-requests N]
                         [--drain-linger-ms N]
                         [oracle mode: same config flags as simulate]
  semclusterctl load     --addr HOST:PORT [--connections N] [--sessions N]
                         [--txns N] [--ops N] [--write-pct N] [--objects N]
                         [--deadline-ms N] [--seed N] [--chaos none|chaos]
                         [--pipeline N] [--shutdown]
  semclusterctl top      --addr HOST:PORT [--interval-ms N] [--count N]
                         [--raw]
  semclusterctl obs diff BASELINE.json CURRENT.json [--threshold PCT]
  semclusterctl crash-matrix [--preset smoke|deep] [--samples N]
                         [--backend sim|file|both] [--scratch-dir DIR]
                         [--jobs N] [--json]
  semclusterctl help

  simulate --trace streams every engine event (txn begin/commit, page
  reads/flushes, prefetch, log flushes, lock waits, splits) as JSON
  Lines stamped in simulated time; same seed → byte-identical trace.
  simulate --chrome-trace writes the same events in Chrome Trace Event
  format instead — open the file in chrome://tracing or Perfetto.
  simulate --timeline samples buffer hit ratio, per-disk queue depth,
  log-buffer occupancy, abort rate and the clustering-locality score at
  a fixed simulated-time interval (default 1 s) into a JSON timeline.
  simulate --metrics prints the counter/gauge/histogram registry
  snapshot for the measured interval. simulate --profile runs with the
  deterministic phase profiler on: per-phase call counts, simulated
  time, and bytes allocated land as a JSON object on stdout (stable
  at any --jobs count), the wall-clock table goes to stderr, and
  --folded writes flamegraph-ready folded stacks (pick the value with
  --folded-metric; default wall_ns). explain attributes mean response
  time into CPU / demand-read / dirty-flush / cluster-search / log /
  lock-wait components. explain-placement replays a run with placement
  auditing on and prints the last N (re)cluster decisions: candidate
  pages with per-candidate affinity/gain, the chosen vs landed page,
  the split verdict and the I/Os the search charged.

  simulate --jobs N runs the replications on N worker threads (0 or
  omitted = all cores); output is byte-identical at any thread count.
  simulate --faults injects deterministic disk/log faults from a named
  preset: transient read/write errors with retry + backoff, latency
  spikes, hot disks, and log stalls; same seed → same faults at any
  thread count.
  golden runs a fixed sweep and byte-compares it against the committed
  golden file (exit 1 on drift, with a unified diff of the first
  mismatch); golden --bless regenerates the file after an intentional
  behaviour change. --suite faults runs the fault-injection sweep
  against goldens/faults_smoke.json instead of the fault-free smoke
  sweep; --suite timeline runs the timeline-sampled sweep against
  goldens/timeline_smoke.json; --suite profile runs the profiled sweep
  against goldens/profile_smoke.json, pinning per-phase call and
  allocation counts — including that every arena-backed hot-path leaf
  (page-locality fold, placement scoring, buffer lookup, event-queue
  pop) stays allocation-free.
  simulate --paper-scale starts from the paper's unscaled Table 4.1
  configuration (500 MB database, 1000 buffer pages, ≈1.6 M objects)
  instead of the proportionally scaled default; other flags still
  apply on top.
  bench-report runs the fixed smoke sweep and writes a schema-stable
  BENCH_<n>.json perf snapshot (simulated-time stats only; wall clock
  goes to stderr), including a per-phase profile section; --suite full
  appends the two paper-scale jobs CI's full-scale perf wall runs, and
  --folded writes the sweep-wide folded stacks. obs diff
  compares two such snapshots run-by-run and exits 1 if any run's mean
  response regressed beyond --threshold (default 5 %), attributing each
  regression to the phases with the largest simulated-time and
  allocation deltas.
  serve boots the engine behind a length-prefixed TCP wire protocol and
  prints `listening on ADDR` once bound. --mode concurrent (default)
  drives one shared engine core from a worker pool with strict 2PL and
  WAL group commit; every request carries a deadline, the execution
  queue is bounded, and admission control sheds load with hysteresis.
  --mode oracle serializes every client through a single simulator
  thread, so one client's REPORT is byte-identical to `simulate`.
  SIGTERM/SIGINT (or a client SHUTDOWN frame) drains in-flight work,
  then the server crashes its own WAL, replays recovery, and verifies
  every acknowledged transaction survived — exiting 7 if any did not.
  load is the matching load generator: N connection threads multiplex
  logical sessions, pipeline transactions, and optionally inject
  client-side network chaos (dropped/stalled/half-closed connections,
  slow-loris trickle, corrupt frames) from a keyed-hash plan; the
  summary JSON reports sessions/sec, latency percentiles, and typed
  rejection counts. golden --suite chaos pins those chaos schedules.
  serve --metrics-addr additionally serves a read-only Prometheus text
  exposition of the live telemetry registry (per-opcode request
  counters, typed-error counters, gauges, per-phase latency histograms,
  rolling SLO summary) over HTTP; it keeps answering through drain. A
  STATS frame on the main port returns the same snapshot as versioned
  JSON, even while draining or overloaded; --drain-linger-ms keeps idle
  connections open for such probes once a drain begins (default 0 =
  close them immediately). Every served transaction's
  service time is attributed server-side into admission-wait /
  lock-wait / engine-exec / commit-wait / reply-write spans that sum to
  the total exactly; serve --chrome-trace writes the retained
  per-request spans as a `serve-requests` lane for chrome://tracing.
  top polls STATS at a fixed interval and renders a one-line-per-tick
  terminal view (throughput, queue depth, rolling p50/p99, error rate);
  --raw prints the snapshot JSON verbatim instead. golden --suite stats
  pins the telemetry renders (synthetic replay + live oracle probe).
  crash-matrix crashes a small workload at every commit boundary plus
  sampled intra-transaction and torn-log points, replays recovery at
  each, and verifies ACID invariants (exit 1 on any violation).
  crash-matrix --backend file shadows every run with the durable
  file-backed page store, adds crash-at-syscall and fsync-failure
  points, and verifies ACID by recovering the real files from disk
  (twice — recovery must be an idempotent byte-level no-op); failing
  points preserve their store under --scratch-dir (default
  target/crash-scratch). simulate --backend file runs one replication
  against the same durable store under --data-dir (default
  target/simulate-data), pulls the plug at the end, and verifies the
  recovered files.
  exit codes: 1 failure, 2 bad flags, 3 missing input file, 4 unknown
  input schema (the latter two from obs diff's bench snapshots),
  5 network unavailable, 6 wire-protocol violation, 7 ACID violation
  (the latter three from serve/load).
";

/// Parse the clustering policy flag.
pub fn parse_clustering(v: &str) -> Result<ClusteringPolicy, String> {
    Ok(match v {
        "none" => ClusteringPolicy::NoCluster,
        "buffer" => ClusteringPolicy::WithinBuffer,
        "2io" => ClusteringPolicy::IoLimit(2),
        "10io" => ClusteringPolicy::IoLimit(10),
        "nolimit" => ClusteringPolicy::NoLimit,
        "adaptive" => ClusteringPolicy::Adaptive,
        other => {
            if let Some(k) = other.strip_suffix("io").and_then(|k| k.parse().ok()) {
                ClusteringPolicy::IoLimit(k)
            } else {
                return Err(format!("unknown clustering policy {other:?}"));
            }
        }
    })
}

/// Parse the replacement policy flag.
pub fn parse_replacement(v: &str) -> Result<ReplacementPolicy, String> {
    Ok(match v {
        "lru" => ReplacementPolicy::Lru,
        "random" => ReplacementPolicy::Random,
        "ctx" | "context" | "context-sensitive" => ReplacementPolicy::ContextSensitive,
        other => return Err(format!("unknown replacement policy {other:?}")),
    })
}

/// Parse the prefetch flag.
pub fn parse_prefetch(v: &str) -> Result<PrefetchScope, String> {
    Ok(match v {
        "none" => PrefetchScope::None,
        "buffer" => PrefetchScope::WithinBuffer,
        "db" | "database" => PrefetchScope::WithinDatabase,
        other => return Err(format!("unknown prefetch scope {other:?}")),
    })
}

/// Parse the split flag.
pub fn parse_split(v: &str) -> Result<SplitPolicy, String> {
    Ok(match v {
        "none" => SplitPolicy::NoSplit,
        "linear" => SplitPolicy::Linear,
        "np" | "optimal" => SplitPolicy::Optimal,
        other => return Err(format!("unknown split policy {other:?}")),
    })
}

/// Build a `SimConfig` from flags.
pub fn config_from_args(args: &Args) -> Result<SimConfig, String> {
    // `--paper-scale` starts from the unscaled Table 4.1 configuration
    // (500 MB database, 1000 buffer pages) instead of the proportionally
    // scaled default; every other flag still applies on top.
    let mut cfg = if args.flag("paper-scale") {
        SimConfig::paper_scale()
    } else {
        SimConfig::default()
    };
    // `--preset` is an alias for `--workload`.
    if let Some(label) = args.get("workload").or_else(|| args.get("preset")) {
        cfg.workload =
            workload_from_label(label).ok_or_else(|| format!("unknown workload {label:?}"))?;
    }
    if let Some(v) = args.get("clustering") {
        cfg.clustering = parse_clustering(v)?;
    }
    if let Some(v) = args.get("replacement") {
        cfg.replacement = parse_replacement(v)?;
    }
    if let Some(v) = args.get("prefetch") {
        cfg.prefetch = parse_prefetch(v)?;
    }
    if let Some(v) = args.get("split") {
        cfg.split = parse_split(v)?;
    }
    if let Some(v) = args.get("faults") {
        cfg.faults = FaultConfig::preset(v).ok_or_else(|| {
            format!(
                "unknown fault preset {v:?} (expected one of {})",
                FaultConfig::PRESETS.join(", ")
            )
        })?;
    }
    cfg.buffer_pages = args.get_parsed("buffer-pages", cfg.buffer_pages)?;
    cfg.seed = args.get_parsed("seed", cfg.seed)?;
    cfg.measured_txns = args.get_parsed("txns", cfg.measured_txns)?;
    Ok(cfg)
}

/// Render a run report as a minimal JSON object. Delegates to the
/// canonical [`RunReport::to_json`] serialization in the core crate —
/// the same bytes the wire-protocol server's REPORT response carries,
/// so CLI report lines, goldens and served reports can never drift
/// apart.
pub fn report_to_json(report: &RunReport) -> String {
    report.to_json()
}

/// Run `reps` replications of `cfg` on `jobs` worker threads (0 = all
/// cores) and fold them as [`run_replicated`] would. Each replication
/// becomes one single-replication sweep job under the shared seed
/// schedule ([`replication_config`]), so the fold sees exactly the
/// report sequence of a serial run — the thread count never shows in
/// the output.
///
/// [`run_replicated`]: semcluster::run_replicated
fn run_replications_parallel(
    cfg: &SimConfig,
    reps: u32,
    jobs: usize,
) -> Result<ReplicatedResult, String> {
    if reps == 0 {
        return Err("--reps: need at least one replication".into());
    }
    let sweep_jobs = (0..reps)
        .map(|r| SweepJob::new(format!("rep{r}"), replication_config(cfg, r), 1))
        .collect();
    let results = SweepRunner::new(jobs)
        .run(sweep_jobs)
        .into_results()
        .map_err(|e| e.to_string())?;
    let reports = results
        .into_iter()
        .flat_map(|r| r.reports.into_iter())
        .collect();
    Ok(ReplicatedResult::from_reports(reports))
}

/// `simulate` subcommand.
pub fn cmd_simulate(args: &Args) -> Result<String, String> {
    let cfg = config_from_args(args)?;
    match args.get("backend") {
        None | Some("sim") => {}
        Some("file") => return simulate_file_backend(args, cfg),
        Some(other) => return Err(format!("--backend: expected sim or file, got {other:?}")),
    }
    if args.get("trace").is_some()
        || args.get("chrome-trace").is_some()
        || args.get("timeline").is_some()
        || args.get("metrics").is_some()
        || args.flag("profile")
        // Routed through the instrumented path even though they are
        // invalid without --profile, so the user gets the error rather
        // than a silently ignored flag.
        || args.get("folded").is_some()
        || args.get("folded-metric").is_some()
    {
        return simulate_instrumented(args, cfg);
    }
    let reps: u32 = args.get_parsed("reps", 1)?;
    let jobs: usize = args.get_parsed("jobs", 0)?;
    let result = run_replications_parallel(&cfg, reps, jobs)?;
    if args.flag("json") {
        let mut out = String::from("[");
        for (i, report) in result.reports.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&report_to_json(report));
        }
        out.push(']');
        return Ok(out);
    }
    let r = &result.reports[0];
    let mut table = Table::new(vec!["metric", "value"]);
    table.row(vec!["configuration".to_string(), r.config_label.clone()]);
    table.row(vec![
        "mean response".to_string(),
        format!(
            "{:.1} ms ± {:.1} (95% CI over {} reps)",
            result.response.mean * 1e3,
            result.response.ci95 * 1e3,
            reps
        ),
    ]);
    table.row(vec![
        "p50 / p95 response".to_string(),
        format!(
            "{:.1} / {:.1} ms",
            r.p50_response_s * 1e3,
            r.p95_response_s * 1e3
        ),
    ]);
    table.row(vec![
        "buffer hit ratio".to_string(),
        format!("{:.1} %", result.hit_ratio.mean * 100.0),
    ]);
    table.row(vec![
        "I/Os (read/log/search/prefetch)".to_string(),
        format!(
            "{} / {} / {} / {}",
            r.io.data_reads, r.log_ios, r.io.cluster_search_ios, r.io.prefetch_ios
        ),
    ]);
    table.row(vec![
        "splits / recluster moves / lock waits".to_string(),
        format!("{} / {} / {}", r.splits, r.recluster_moves, r.lock_waits),
    ]);
    table.row(vec![
        "disk / cpu utilisation".to_string(),
        format!(
            "{:.1} % / {:.1} %",
            r.disk_utilization * 100.0,
            r.cpu_utilization * 100.0
        ),
    ]);
    Ok(table.render())
}

/// `simulate --backend file`: one replication shadowed by the durable
/// file-backed store under `--data-dir` (default `target/simulate-data`),
/// then the plug is pulled and the run's durability is verified by
/// recovering the real files from disk — twice, since recovery must be
/// idempotent. The recovered `pages.db`/`wal.log` are left in place for
/// inspection.
fn simulate_file_backend(args: &Args, mut cfg: SimConfig) -> Result<String, String> {
    if args.get_parsed("reps", 1u32)? != 1 {
        return Err("--backend file: runs a single replication (drop --reps)".into());
    }
    cfg.retain_log = true;
    let dir = std::path::PathBuf::from(args.get("data-dir").unwrap_or("target/simulate-data"));
    std::fs::create_dir_all(&dir)
        .map_err(|e| format!("--data-dir {}: cannot create directory: {e}", dir.display()))?;
    for name in [semcluster_storage::PAGES_FILE, semcluster_storage::WAL_FILE] {
        let stale = dir.join(name);
        if stale.exists() {
            std::fs::remove_file(&stale)
                .map_err(|e| format!("--data-dir: cannot clear stale {}: {e}", stale.display()))?;
        }
    }
    let seed = cfg.seed;
    let mut engine = semcluster::Engine::new(cfg);
    let mirror = DurableMirror::create(
        &dir,
        semcluster_faults::FsFaultConfig {
            seed,
            ..Default::default()
        },
    )
    .map_err(|e| {
        format!(
            "file backend: cannot create store in {}: {e}",
            dir.display()
        )
    })?;
    engine.attach_mirror(mirror).map_err(|e| {
        format!(
            "file backend: checkpoint into {} failed: {e}",
            dir.display()
        )
    })?;
    let outcome = engine.run_and_crash_at(CrashPoint::End);
    let artifacts = outcome
        .file
        .as_ref()
        .expect("mirror attached, so the outcome carries file artifacts");

    let rec1 = semcluster_storage::recover_dir(&dir)
        .map_err(|e| format!("file backend: recovery in {} failed: {e}", dir.display()))?;
    let snapshot = |n: &str| std::fs::read(dir.join(n)).ok();
    let snap1 = (
        snapshot(semcluster_storage::PAGES_FILE),
        snapshot(semcluster_storage::WAL_FILE),
    );
    let rec2 = semcluster_storage::recover_dir(&dir).map_err(|e| {
        format!(
            "file backend: second recovery in {} failed: {e}",
            dir.display()
        )
    })?;
    let stable = snap1
        == (
            snapshot(semcluster_storage::PAGES_FILE),
            snapshot(semcluster_storage::WAL_FILE),
        );
    let violations = outcome.verify_file(&rec1, &rec2, stable);
    if !violations.is_empty() {
        return Err(format!(
            "file backend: ACID violations after recovery from {}:\n  {}",
            dir.display(),
            violations.join("\n  ")
        ));
    }

    let r = &outcome.report;
    let fs = artifacts.report.stats;
    let mut table = Table::new(vec!["metric", "value"]);
    table.row(vec!["configuration".to_string(), r.config_label.clone()]);
    table.row(vec![
        "backend".to_string(),
        format!("file ({})", dir.display()),
    ]);
    table.row(vec![
        "mean response".to_string(),
        format!("{:.1} ms", r.mean_response_s * 1e3),
    ]);
    table.row(vec![
        "durable traffic".to_string(),
        format!(
            "{} wal ops / {} steals / {} commits",
            artifacts.stats.ops_logged, artifacts.stats.steals, artifacts.stats.commits_ok
        ),
    ]);
    table.row(vec![
        "filesystem".to_string(),
        format!(
            "{} writes / {} fsyncs / {} bytes synced",
            fs.writes, fs.fsyncs, fs.bytes_synced
        ),
    ]);
    table.row(vec![
        "recovery".to_string(),
        format!(
            "{} winners / {} losers / {} redo / {} undo / {} pages repaired",
            rec1.winners.len(),
            rec1.losers.len(),
            rec1.redone,
            rec1.undone,
            rec1.repaired_pages.len()
        ),
    ]);
    table.row(vec![
        "acked commits verified durable".to_string(),
        format!("{}", outcome.acked.len()),
    ]);
    Ok(table.render())
}

/// One instrumented run: optional JSONL or Chrome trace to a file,
/// optional sampled timeline, optional metrics-registry snapshot (JSON
/// or ASCII table).
fn simulate_instrumented(args: &Args, cfg: SimConfig) -> Result<String, String> {
    let trace_path = args.get("trace");
    let chrome_path = args.get("chrome-trace");
    if trace_path.is_some() && chrome_path.is_some() {
        return Err("--trace and --chrome-trace are mutually exclusive; pick one format".into());
    }
    let create = |flag: &str, path: &str| {
        std::fs::File::create(path)
            .map(std::io::BufWriter::new)
            .map_err(|e| format!("--{flag} {path}: cannot create file: {e}"))
    };
    let mut obs = match (trace_path, chrome_path) {
        (Some(path), None) => {
            ObsConfig::with_sink(Box::new(JsonlSink::new(create("trace", path)?)))
        }
        (None, Some(path)) => ObsConfig::with_sink(Box::new(ChromeTraceSink::new(create(
            "chrome-trace",
            path,
        )?))),
        _ => ObsConfig::default(),
    };
    let timeline_path = args.get("timeline");
    let interval_us: u64 = args.get_parsed("timeline-interval-us", 1_000_000)?;
    if interval_us == 0 {
        return Err("--timeline-interval-us: must be positive".into());
    }
    if timeline_path.is_some() {
        obs = obs.timeline(interval_us);
    }
    let profiled = args.flag("profile");
    let folded_path = args.get("folded");
    let folded_metric = match args.get("folded-metric") {
        None => FoldedMetric::WallNs,
        Some(m) => FoldedMetric::parse(m).ok_or_else(|| {
            format!("--folded-metric: expected wall_ns, sim_us, alloc_bytes, allocs or calls, got {m:?}")
        })?,
    };
    if (folded_path.is_some() || args.get("folded-metric").is_some()) && !profiled {
        return Err("--folded/--folded-metric need --profile".into());
    }
    if profiled {
        obs = obs.profile();
    }
    let (report, observed) = run_simulation_observed(cfg, obs);
    let snapshot = &observed.metrics;
    let profile = observed.profile.as_ref();
    let mut out = String::new();
    match args.get("metrics") {
        Some("json") => {
            // Report + registry snapshot in one parseable object, so the
            // per-category counters can be reconciled against the I/O
            // breakdown they mirror. The profile section holds only
            // deterministic counters (wall clock stays on stderr).
            out.push_str("{\"report\":");
            out.push_str(&report_to_json(&report));
            if let Some(profile) = profile {
                out.push_str(",\"profile\":");
                out.push_str(&profile.to_json());
            }
            out.push_str(",\"metrics\":");
            out.push_str(&snapshot.to_json());
            out.push_str("}\n");
        }
        Some("table") => {
            out.push_str(&snapshot.to_ascii_table());
        }
        Some(other) => return Err(format!("--metrics: expected json or table, got {other:?}")),
        None => {
            out.push_str(&report_to_json(&report));
            out.push('\n');
            if let Some(profile) = profile {
                out.push_str(&profile.to_json());
                out.push('\n');
            }
        }
    }
    if let Some(profile) = profile {
        // The per-phase wall-clock table is host-machine material and
        // must never reach the deterministic stdout stream.
        eprint!("{}", profile.render_table());
        if let Some(path) = folded_path {
            std::fs::write(path, profile.folded(folded_metric))
                .map_err(|e| format!("--folded {path}: cannot write file: {e}"))?;
            if args.get("metrics") != Some("json") {
                out.push_str(&format!("folded stacks written to {path}\n"));
            }
        }
    }
    if let Some(path) = timeline_path {
        let timeline = observed
            .timeline
            .as_ref()
            .expect("timeline sampling was enabled above");
        let mut body = timeline.to_json();
        body.push('\n');
        std::fs::write(path, body)
            .map_err(|e| format!("--timeline {path}: cannot write file: {e}"))?;
        if args.get("metrics") != Some("json") {
            out.push_str(&format!(
                "timeline written to {path} ({} samples)\n",
                timeline.len()
            ));
        }
    }
    if args.get("metrics") != Some("json") {
        if let Some(path) = trace_path {
            out.push_str(&format!("trace written to {path}\n"));
        }
        if let Some(path) = chrome_path {
            out.push_str(&format!(
                "chrome trace written to {path} — open in chrome://tracing or https://ui.perfetto.dev\n"
            ));
        }
    }
    Ok(out)
}

/// `explain` subcommand: attribute mean response time per component.
pub fn cmd_explain(args: &Args) -> Result<String, String> {
    let cfg = config_from_args(args)?;
    let report = run_simulation(cfg);
    let b = report.breakdown;
    let total = b.response_total_s();
    if args.flag("json") {
        return Ok(format!(
            concat!(
                "{{\"config\":{config:?},\"txns\":{txns},",
                "\"mean_response_s\":{total:.6},\"cpu_s\":{cpu:.6},",
                "\"data_read_s\":{dr:.6},\"dirty_flush_s\":{df:.6},",
                "\"cluster_search_s\":{cs:.6},\"log_s\":{log:.6},",
                "\"lock_wait_s\":{lw:.6},\"think_s\":{think:.6}}}\n"
            ),
            config = report.config_label,
            txns = report.txns,
            total = total,
            cpu = b.cpu_s,
            dr = b.data_read_s,
            df = b.dirty_flush_s,
            cs = b.cluster_search_s,
            log = b.log_s,
            lw = b.lock_wait_s,
            think = b.think_s,
        ));
    }
    let share = |v: f64| {
        if total > 0.0 {
            format!("{:.1} %", v / total * 100.0)
        } else {
            "-".to_string()
        }
    };
    let mut table = Table::new(vec!["component", "mean per txn", "share"]);
    let rows: [(&str, f64); 6] = [
        ("cpu", b.cpu_s),
        ("demand reads", b.data_read_s),
        ("dirty flushes", b.dirty_flush_s),
        ("cluster search", b.cluster_search_s),
        ("log", b.log_s),
        ("lock wait", b.lock_wait_s),
    ];
    for (name, v) in rows {
        table.row(vec![
            name.to_string(),
            format!("{:.2} ms", v * 1e3),
            share(v),
        ]);
    }
    table.row(vec![
        "total response".to_string(),
        format!("{:.2} ms", total * 1e3),
        "100.0 %".to_string(),
    ]);
    table.row(vec![
        "think (not in response)".to_string(),
        format!("{:.0} ms", b.think_s * 1e3),
        "-".to_string(),
    ]);
    let mut out = format!("response-time attribution — {}\n", report.config_label);
    out.push_str(&table.render());
    Ok(out)
}

/// `explain-placement` subcommand: replay a run with placement auditing
/// enabled and show the last N clustering decisions the engine made —
/// which candidate pages the placement search examined, their
/// affinity/gain scores, which page won, whether a split was weighed,
/// and what the search cost in I/Os.
pub fn cmd_explain_placement(args: &Args) -> Result<String, String> {
    let cfg = config_from_args(args)?;
    let last: usize = args.get_parsed("last", 12)?;
    if last == 0 {
        return Err("--last: need at least one record".into());
    }
    let (report, observed) = run_simulation_observed(cfg, ObsConfig::default().audit(last));
    let audits = observed.audits;
    if args.flag("json") {
        let mut out = String::new();
        for a in &audits {
            out.push_str(&a.to_json());
            out.push('\n');
        }
        return Ok(out);
    }
    if audits.is_empty() {
        return Ok(format!(
            "no placement decisions recorded — {} (is clustering `none`?)\n",
            report.config_label
        ));
    }
    let mut table = Table::new(vec![
        "t (ms)",
        "kind",
        "object",
        "cands",
        "chosen→landed",
        "score",
        "split",
        "ios",
    ]);
    for a in &audits {
        let chosen = match a.chosen {
            Some(p) => format!("{}→{}", p.0, a.landed.0),
            None => format!("append→{}", a.landed.0),
        };
        let split = match a.split {
            SplitVerdict::NotConsidered => "-".to_string(),
            SplitVerdict::Declined => "declined".to_string(),
            SplitVerdict::Executed { new_page } => format!("new p{}", new_page.0),
        };
        table.row(vec![
            format!("{:.1}", a.at.as_micros() as f64 / 1e3),
            a.kind.as_str().to_string(),
            a.object.to_string(),
            a.candidates.len().to_string(),
            chosen,
            format!("{:.3}", a.score_milli as f64 / 1e3),
            split,
            a.search_ios.to_string(),
        ]);
    }
    let mut out = format!(
        "last {} placement decisions — {}\n",
        audits.len(),
        report.config_label
    );
    out.push_str(&table.render());
    Ok(out)
}

/// `trace` subcommand.
pub fn cmd_trace(args: &Args) -> Result<String, String> {
    let invocations: usize = args.get_parsed("invocations", 50)?;
    let seed: u64 = args.get_parsed("seed", 1989)?;
    let mut rng = SimRng::seed_from_u64(seed);
    let tools = oct_tools();
    let trace = generate_trace(&tools, invocations, &mut rng);
    let stats = analyze(&trace);
    let mut table = Table::new(vec!["tool", "R/W", "I/O per s", "low/med/high density"]);
    for s in &stats {
        let rw = if s.rw_ratio().is_finite() {
            format!("{:.2}", s.rw_ratio())
        } else {
            "inf".into()
        };
        table.row(vec![
            s.tool.clone(),
            rw,
            format!("{:.1}", s.io_rate()),
            format!(
                "{:.0}/{:.0}/{:.0} %",
                s.density_shares[0] * 100.0,
                s.density_shares[1] * 100.0,
                s.density_shares[2] * 100.0
            ),
        ]);
    }
    Ok(table.render())
}

/// `inspect` subcommand: synthesize a database and report its shape and
/// layout quality under clustered vs scattered placement.
pub fn cmd_inspect(args: &Args) -> Result<String, String> {
    let mbytes: u64 = args.get_parsed("mbytes", 8)?;
    let seed: u64 = args.get_parsed("seed", 42)?;
    let label = args.get("workload").unwrap_or("med5-10");
    let workload =
        workload_from_label(label).ok_or_else(|| format!("unknown workload {label:?}"))?;
    let (fanout, depth) = match workload.density {
        semcluster_workload::StructureDensity::Low3 => ((1, 3), 6),
        semcluster_workload::StructureDensity::Med5 => ((4, 9), 3),
        semcluster_workload::StructureDensity::High10 => ((10, 15), 2),
    };
    let target = mbytes * 1024 * 1024 / 320;
    let mean_fanout = (fanout.0 + fanout.1) as f64 / 2.0;
    let mut tree = 1.0;
    let mut level = 1.0;
    for _ in 0..depth {
        level *= mean_fanout;
        tree += level;
    }
    let modules = ((target as f64 / (tree * 2.4)).round() as usize).max(1);
    let (db, stats) = SyntheticDbSpec {
        modules,
        depth,
        fanout,
        seed,
        ..SyntheticDbSpec::default()
    }
    .build();
    let mut by_kind = [0u64; 4];
    for (kind, _, _) in db.graph().edges() {
        by_kind[kind.index()] += 1;
    }
    let model = WeightModel::no_hints();
    let mut scattered = StorageManager::new(4096);
    for obj in db.objects() {
        scattered
            .append(obj.id, obj.size_bytes())
            .map_err(|e| e.to_string())?;
    }
    let (clustered, report) = static_recluster(&db, &scattered, &model, 0.3);
    let mut table = Table::new(vec!["property", "value"]);
    table.row(vec!["objects".to_string(), stats.objects.to_string()]);
    table.row(vec![
        "configuration edges".to_string(),
        by_kind[RelKind::Configuration.index()].to_string(),
    ]);
    table.row(vec![
        "version edges".to_string(),
        by_kind[RelKind::VersionHistory.index()].to_string(),
    ]);
    table.row(vec![
        "correspondence edges".to_string(),
        by_kind[RelKind::Correspondence.index()].to_string(),
    ]);
    table.row(vec![
        "inheritance edges".to_string(),
        by_kind[RelKind::Inheritance.index()].to_string(),
    ]);
    table.row(vec![
        "pages (scattered / clustered)".to_string(),
        format!("{} / {}", scattered.page_count(), clustered.page_count()),
    ]);
    table.row(vec![
        "broken arc weight (scattered / clustered)".to_string(),
        format!("{:.0} / {:.0}", report.broken_before, report.broken_after),
    ]);
    table.row(vec![
        "layout improvement".to_string(),
        format!("{:.0} %", report.improvement() * 100.0),
    ]);
    Ok(table.render())
}

/// `reorg` subcommand: offline reorganisation demo.
pub fn cmd_reorg(args: &Args) -> Result<String, String> {
    let modules: usize = args.get_parsed("modules", 20)?;
    let seed: u64 = args.get_parsed("seed", 7)?;
    let (db, _) = SyntheticDbSpec {
        modules,
        depth: 3,
        fanout: (2, 4),
        seed,
        ..SyntheticDbSpec::default()
    }
    .build();
    let model = WeightModel::no_hints();
    let mut store = StorageManager::new(4096);
    let n = db.object_count();
    for k in 0..n {
        let idx = (k * 613) % n;
        let obj = db.get(semcluster_vdm::ObjectId(idx as u32)).unwrap();
        store
            .append(obj.id, obj.size_bytes())
            .map_err(|e| e.to_string())?;
    }
    let before = broken_arc_weight(&db, &store, &model);
    let (fresh, report) = static_recluster(&db, &store, &model, 0.3);
    let after = broken_arc_weight(&db, &fresh, &model);
    Ok(format!(
        "reorganised {} objects onto {} pages\nbroken arc weight: {:.0} → {:.0} ({:.0}% repaired)\n",
        report.objects,
        report.pages,
        before,
        after,
        report.improvement() * 100.0
    ))
}

/// Default location of the committed golden file, relative to the
/// repository root (where CI invokes the CLI).
pub const GOLDEN_PATH: &str = "goldens/smoke.json";

/// Committed golden of the fault-injection sweep (`golden --suite
/// faults`).
pub const FAULTS_GOLDEN_PATH: &str = "goldens/faults_smoke.json";

/// The fixed smoke sweep behind `golden`: small, fast configurations
/// chosen to cross the clustering / splitting / replacement / prefetch
/// axes, with hard-coded seeds so the output is a pure function of the
/// engine. Changing this list invalidates the committed golden file —
/// re-bless after any intentional change.
pub fn golden_jobs() -> Vec<SweepJob> {
    let tiny = |label: &str, seed: u64| SimConfig {
        workload: workload_from_label(label).expect("known workload label"),
        database_bytes: 2 * 1024 * 1024,
        buffer_pages: 24,
        warmup_txns: 40,
        measured_txns: 120,
        seed,
        ..SimConfig::default()
    };
    let mut jobs = Vec::new();
    let mut add = |name: &str, cfg: SimConfig| jobs.push(SweepJob::new(name.to_string(), cfg, 2));
    add(
        "baseline",
        SimConfig {
            clustering: ClusteringPolicy::NoCluster,
            split: SplitPolicy::NoSplit,
            ..tiny("med5-10", 1100)
        },
    );
    add(
        "clustered",
        SimConfig {
            clustering: ClusteringPolicy::NoLimit,
            split: SplitPolicy::Linear,
            ..tiny("med5-10", 1200)
        },
    );
    add(
        "ctx-buffered",
        SimConfig {
            clustering: ClusteringPolicy::NoLimit,
            replacement: ReplacementPolicy::ContextSensitive,
            prefetch: PrefetchScope::WithinBuffer,
            ..tiny("med5-10", 1300)
        },
    );
    add(
        "adaptive-prefetch",
        SimConfig {
            clustering: ClusteringPolicy::Adaptive,
            prefetch: PrefetchScope::WithinDatabase,
            split: SplitPolicy::Optimal,
            ..tiny("low3-5", 1400)
        },
    );
    add(
        "io-limited",
        SimConfig {
            clustering: ClusteringPolicy::IoLimit(2),
            ..tiny("low3-5", 1500)
        },
    );
    add(
        "write-heavy-random",
        SimConfig {
            replacement: ReplacementPolicy::Random,
            ..tiny("hi10-100", 1600)
        },
    );
    jobs
}

/// The fixed fault-injection sweep behind `golden --suite faults`: the
/// same tiny scale as [`golden_jobs`], but each configuration runs
/// under a named fault preset so retries, spikes, log stalls, hot
/// disks and graceful degradation all leave deterministic fingerprints
/// in the golden. Re-bless after any intentional engine or fault-plan
/// change.
pub fn faults_golden_jobs() -> Vec<SweepJob> {
    let tiny = |label: &str, seed: u64, preset: &str| SimConfig {
        workload: workload_from_label(label).expect("known workload label"),
        database_bytes: 2 * 1024 * 1024,
        buffer_pages: 24,
        warmup_txns: 40,
        measured_txns: 120,
        seed,
        faults: FaultConfig::preset(preset).expect("known fault preset"),
        ..SimConfig::default()
    };
    let mut jobs = Vec::new();
    let mut add = |name: &str, cfg: SimConfig| jobs.push(SweepJob::new(name.to_string(), cfg, 2));
    add(
        "faults-smoke",
        SimConfig {
            clustering: ClusteringPolicy::NoLimit,
            split: SplitPolicy::Linear,
            ..tiny("med5-10", 2100, "smoke")
        },
    );
    add(
        "faults-degraded",
        SimConfig {
            clustering: ClusteringPolicy::NoLimit,
            prefetch: PrefetchScope::WithinDatabase,
            ..tiny("med5-10", 2200, "degraded")
        },
    );
    add(
        "faults-stress",
        SimConfig {
            clustering: ClusteringPolicy::Adaptive,
            ..tiny("hi10-100", 2300, "stress")
        },
    );
    jobs
}

/// Render the smoke sweep deterministically: one JSON line per
/// replication report (tagged with job label and replication index, in
/// submission order) and a final line with the merged metrics-registry
/// snapshot. Byte-identical at any `--jobs` count; the returned
/// [`SweepSummary`] is host wall-clock material (stderr only).
fn golden_render(jobs: Vec<SweepJob>, threads: usize) -> Result<(String, SweepSummary), String> {
    let (body, summary, _) = sweep_render(jobs, threads, false)?;
    Ok((body, summary))
}

/// Shared renderer behind [`golden_render`] and `bench-report`. With
/// `profile` set the sweep runs under the phase profiler and each job's
/// report lines are followed by one flat line per profiled stack —
/// deterministic counters only, so the profile section is as
/// thread-count-independent as the reports themselves. The third
/// return is the sweep-wide merged profile (None without `profile`),
/// which `bench-report --folded` exports as flamegraph input.
fn sweep_render(
    jobs: Vec<SweepJob>,
    threads: usize,
    profile: bool,
) -> Result<(String, SweepSummary, Option<ProfileReport>), String> {
    let mut runner = SweepRunner::new(threads);
    if profile {
        runner = runner.with_profile();
    }
    let outcome = runner.run(jobs);
    let mut out = String::new();
    for item in &outcome.items {
        let result = item
            .result
            .as_ref()
            .map_err(|e| format!("golden sweep: {e}"))?;
        for (rep, report) in result.reports.iter().enumerate() {
            out.push_str(&format!(
                "{{\"job\":{:?},\"rep\":{},\"report\":{}}}\n",
                item.label,
                rep,
                report_to_json(report)
            ));
        }
        if profile {
            let report = item
                .profile
                .as_ref()
                .ok_or_else(|| format!("sweep: job {} produced no profile", item.label))?;
            out.push_str(&profile_lines(&item.label, report));
        }
    }
    out.push_str(&format!("{{\"metrics\":{}}}\n", outcome.metrics.to_json()));
    Ok((out, outcome.summary, outcome.profile))
}

/// One flat JSON line per profiled stack, tagged with the job label.
/// Flat on purpose: the same `json_str_field`/`json_num_field` helpers
/// that read report lines can read these, and `obs diff` can join the
/// two sections of a snapshot by job label.
fn profile_lines(label: &str, profile: &ProfileReport) -> String {
    let mut out = String::new();
    for (path, s) in profile.phases() {
        out.push_str(&format!(
            concat!(
                "{{\"job\":{label:?},\"phase\":{path:?},\"calls\":{calls},",
                "\"sim_us\":{sim},\"alloc_bytes\":{bytes},\"allocs\":{allocs}}}\n"
            ),
            label = label,
            path = path,
            calls = s.calls,
            sim = s.sim_us,
            bytes = s.alloc_bytes,
            allocs = s.allocs,
        ));
    }
    out
}

/// Committed golden of the timeline-sampled sweep (`golden --suite
/// timeline`).
pub const TIMELINE_GOLDEN_PATH: &str = "goldens/timeline_smoke.json";

/// Timeline-sampling interval used by the timeline golden suite and by
/// `simulate --timeline` when `--timeline-interval-us` is not given:
/// one simulated second.
pub const DEFAULT_TIMELINE_INTERVAL_US: u64 = 1_000_000;

/// The fixed timeline sweep behind `golden --suite timeline`: three
/// tiny configurations (unclustered baseline, fully clustered with
/// context-sensitive buffering, and a fault-injected run) sampled every
/// simulated second. Re-bless after any intentional engine or sampler
/// change.
pub fn timeline_golden_jobs() -> Vec<SweepJob> {
    let tiny = |label: &str, seed: u64| SimConfig {
        workload: workload_from_label(label).expect("known workload label"),
        database_bytes: 2 * 1024 * 1024,
        buffer_pages: 24,
        warmup_txns: 40,
        measured_txns: 120,
        seed,
        ..SimConfig::default()
    };
    vec![
        SweepJob::new(
            "tl-baseline",
            SimConfig {
                clustering: ClusteringPolicy::NoCluster,
                split: SplitPolicy::NoSplit,
                ..tiny("med5-10", 3100)
            },
            2,
        ),
        SweepJob::new(
            "tl-clustered",
            SimConfig {
                clustering: ClusteringPolicy::NoLimit,
                replacement: ReplacementPolicy::ContextSensitive,
                prefetch: PrefetchScope::WithinBuffer,
                split: SplitPolicy::Linear,
                ..tiny("med5-10", 3200)
            },
            2,
        ),
        SweepJob::new(
            "tl-faults",
            SimConfig {
                clustering: ClusteringPolicy::NoLimit,
                faults: FaultConfig::preset("smoke").expect("known fault preset"),
                ..tiny("hi10-100", 3300)
            },
            2,
        ),
    ]
}

/// Render the timeline sweep deterministically: one JSON line per job
/// (its replications' timelines merged) and a final line with all jobs
/// merged. Sample boundaries are interval multiples and the merge is
/// order-independent, so the output is byte-identical at any `--jobs`
/// count.
fn timeline_golden_render(threads: usize) -> Result<String, String> {
    let outcome = SweepRunner::new(threads)
        .with_timeline(DEFAULT_TIMELINE_INTERVAL_US)
        .run(timeline_golden_jobs());
    let mut out = String::new();
    for item in &outcome.items {
        item.result
            .as_ref()
            .map_err(|e| format!("timeline sweep: {e}"))?;
        let timeline = item
            .timeline
            .as_ref()
            .ok_or_else(|| format!("timeline sweep: job {} produced no timeline", item.label))?;
        out.push_str(&format!(
            "{{\"job\":{:?},\"timeline\":{}}}\n",
            item.label,
            timeline.to_json()
        ));
    }
    let merged = outcome
        .timeline
        .ok_or("timeline sweep: no merged timeline")?;
    out.push_str(&format!("{{\"merged\":{}}}\n", merged.to_json()));
    Ok(out)
}

/// Committed golden of the profiled sweep (`golden --suite profile`).
pub const PROFILE_GOLDEN_PATH: &str = "goldens/profile_smoke.json";

/// Leaf phases whose allocation counters the profile golden pins to
/// zero. A stack is pinned when its last `;`-separated segment names
/// one of these, so both `run;buffer_lookup` and the nested
/// `run;placement_score;buffer_lookup` are covered. These are the
/// engine's per-event inner loops — the page-locality fold, placement
/// candidate scoring, buffer-pool frame lookup and the event-queue pop
/// — where a stray allocation multiplies across every simulated event
/// of a sweep. (`timeline_sample` itself is deliberately not pinned:
/// each retained sample stores a queue-delay vector by design.)
pub const ZERO_ALLOC_PIN_LEAVES: &[&str] = &[
    "page_locality",
    "placement_score",
    "buffer_lookup",
    "event_pop",
];

/// Whether a profiler stack path ends in one of the pinned leaf phases.
pub fn is_zero_alloc_pinned(path: &str) -> bool {
    let leaf = path.rsplit(';').next().unwrap_or(path);
    ZERO_ALLOC_PIN_LEAVES.contains(&leaf)
}

/// The fixed profiled sweep behind `golden --suite profile`: three tiny
/// configurations chosen to exercise every instrumented phase —
/// placement scoring (clustering + splits), prefetch, context-sensitive
/// eviction, WAL append/flush, lock waits and the timeline sampler's
/// page-locality fold. Re-bless after any intentional engine or
/// profiler change.
pub fn profile_golden_jobs() -> Vec<SweepJob> {
    let tiny = |label: &str, seed: u64| SimConfig {
        workload: workload_from_label(label).expect("known workload label"),
        database_bytes: 2 * 1024 * 1024,
        buffer_pages: 24,
        warmup_txns: 40,
        measured_txns: 120,
        seed,
        ..SimConfig::default()
    };
    vec![
        SweepJob::new(
            "prof-baseline",
            SimConfig {
                clustering: ClusteringPolicy::NoCluster,
                split: SplitPolicy::NoSplit,
                ..tiny("med5-10", 4100)
            },
            2,
        ),
        SweepJob::new(
            "prof-clustered",
            SimConfig {
                clustering: ClusteringPolicy::NoLimit,
                replacement: ReplacementPolicy::ContextSensitive,
                prefetch: PrefetchScope::WithinBuffer,
                split: SplitPolicy::Linear,
                ..tiny("med5-10", 4200)
            },
            2,
        ),
        SweepJob::new(
            "prof-write-heavy",
            SimConfig {
                clustering: ClusteringPolicy::Adaptive,
                ..tiny("hi10-100", 4300)
            },
            2,
        ),
    ]
}

/// Render the profiled sweep deterministically: a schema header, then
/// one flat line per (job, stack) with the merged per-phase counters.
/// Wall-clock nanoseconds never enter the rendering, so the output is
/// a pure function of the engine and byte-identical at any `--jobs`
/// count. Hard-fails — before any golden comparison — if any pinned
/// hot-path leaf phase allocated at all, or never ran.
fn profile_golden_render(threads: usize) -> Result<String, String> {
    let outcome = SweepRunner::new(threads)
        .with_timeline(DEFAULT_TIMELINE_INTERVAL_US)
        .with_profile()
        .run(profile_golden_jobs());
    let mut out = String::from("{\"golden_schema\":1,\"suite\":\"profile\"}\n");
    for item in &outcome.items {
        item.result
            .as_ref()
            .map_err(|e| format!("profile sweep: {e}"))?;
        let profile = item
            .profile
            .as_ref()
            .ok_or_else(|| format!("profile sweep: job {} produced no profile", item.label))?;
        for leaf in ZERO_ALLOC_PIN_LEAVES {
            let mut seen = false;
            for (path, s) in profile.phases() {
                if path.rsplit(';').next() != Some(*leaf) {
                    continue;
                }
                seen = true;
                if s.alloc_bytes != 0 || s.allocs != 0 {
                    return Err(format!(
                        "profile sweep: job {}: stack {path} allocated {} bytes \
                         over {} allocations; the {leaf} phase is pinned allocation-free",
                        item.label, s.alloc_bytes, s.allocs
                    ));
                }
            }
            if !seen {
                return Err(format!(
                    "profile sweep: job {} never entered a {leaf} stack \
                     (phase disabled, or the instrumentation moved?)",
                    item.label
                ));
            }
        }
        out.push_str(&profile_lines(&item.label, profile));
    }
    Ok(out)
}

/// A unified diff of the region around the first mismatching line:
/// two lines of context, `-` for the expected (committed) side, `+`
/// for the current run, long lines truncated. Gives drift reports an
/// actionable excerpt instead of a bare line number.
fn golden_diff(current: &str, expected: &str) -> String {
    let cur: Vec<&str> = current.lines().collect();
    let exp: Vec<&str> = expected.lines().collect();
    let n = cur.len().max(exp.len());
    let Some(first) = (0..n).find(|&i| cur.get(i) != exp.get(i)) else {
        return "files differ only in trailing bytes".to_string();
    };
    let clip = |s: &str| -> String {
        if s.len() <= 160 {
            return s.to_string();
        }
        let mut end = 160;
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        format!("{}…", &s[..end])
    };
    let start = first.saturating_sub(2);
    let end = (first + 3).min(n);
    let mut out = format!(
        "first difference at line {} ({} expected lines, {} current)\n\
         --- expected\n+++ current\n@@ lines {}-{} @@\n",
        first + 1,
        exp.len(),
        cur.len(),
        start + 1,
        end
    );
    for i in start..end {
        match (exp.get(i), cur.get(i)) {
            (Some(e), Some(c)) if e == c => {
                out.push_str(&format!(" {}\n", clip(e)));
            }
            (e, c) => {
                if let Some(e) = e {
                    out.push_str(&format!("-{}\n", clip(e)));
                }
                if let Some(c) = c {
                    out.push_str(&format!("+{}\n", clip(c)));
                }
            }
        }
    }
    out
}

/// `golden` subcommand: run a fixed sweep (`--suite smoke` is the
/// fault-free default; `--suite faults` runs the fault-injection
/// sweep) and byte-compare it against the committed golden file
/// (`--bless` rewrites the file instead). Any drift — an engine
/// change, a nondeterminism bug, a thread-count dependence — fails
/// the comparison with a unified diff of the first mismatch.
pub fn cmd_golden(args: &Args) -> Result<String, String> {
    let suite = args.get("suite").unwrap_or("smoke");
    let jobs: usize = args.get_parsed("jobs", 0)?;
    let (current, default_path) = match suite {
        "smoke" => (golden_render(golden_jobs(), jobs)?.0, GOLDEN_PATH),
        "faults" => (
            golden_render(faults_golden_jobs(), jobs)?.0,
            FAULTS_GOLDEN_PATH,
        ),
        "timeline" => (timeline_golden_render(jobs)?, TIMELINE_GOLDEN_PATH),
        "profile" => (profile_golden_render(jobs)?, PROFILE_GOLDEN_PATH),
        "chaos" => (
            crate::servecmd::chaos_golden_render(jobs)?,
            crate::servecmd::CHAOS_GOLDEN_PATH,
        ),
        "stats" => (
            crate::servecmd::stats_golden_render(jobs)?,
            crate::servecmd::STATS_GOLDEN_PATH,
        ),
        other => {
            return Err(format!(
                "--suite: expected smoke, faults, timeline, profile, chaos or stats, got {other:?}"
            ))
        }
    };
    let path = args.get("path").unwrap_or(default_path);
    let runs = current.lines().count() - 1;
    if args.flag("bless") {
        if let Some(dir) = std::path::Path::new(path).parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)
                    .map_err(|e| format!("golden: cannot create {}: {e}", dir.display()))?;
            }
        }
        std::fs::write(path, &current).map_err(|e| format!("golden: cannot write {path}: {e}"))?;
        return Ok(format!("golden blessed: {path} ({runs} reports)\n"));
    }
    let expected = std::fs::read_to_string(path).map_err(|e| {
        format!("golden: cannot read {path}: {e}\nrun `semclusterctl golden --bless` to create it")
    })?;
    if current == expected {
        return Ok(format!("golden OK: {path} ({runs} reports)\n"));
    }
    Err(format!(
        "golden MISMATCH: {path}: {diff}\
         engine output drifted from the committed golden run; if the\n\
         change is intentional, re-bless with `semclusterctl golden --bless`",
        diff = golden_diff(&current, &expected)
    ))
}

/// The paper-scale sweep behind `bench-report --suite full` and the CI
/// `full-scale` job: Table 4.1's static parameters verbatim — a 500 MB
/// database (~1.6 M synthetic objects) under a 1000-page buffer pool —
/// run once per configuration with fixed seeds. Two configurations
/// bracket the paper's headline comparison: the unclustered LRU
/// baseline and the full semantic stack (no-limit clustering,
/// context-sensitive replacement, within-buffer prefetch, linear
/// splitting).
pub fn full_scale_jobs() -> Vec<SweepJob> {
    let paper = |seed: u64| SimConfig {
        workload: workload_from_label("med5-10").expect("known workload label"),
        seed,
        ..SimConfig::paper_scale()
    };
    vec![
        SweepJob::new(
            "full-baseline",
            SimConfig {
                clustering: ClusteringPolicy::NoCluster,
                split: SplitPolicy::NoSplit,
                ..paper(7100)
            },
            1,
        ),
        SweepJob::new(
            "full-clustered",
            SimConfig {
                clustering: ClusteringPolicy::NoLimit,
                replacement: ReplacementPolicy::ContextSensitive,
                prefetch: PrefetchScope::WithinBuffer,
                split: SplitPolicy::Linear,
                ..paper(7200)
            },
            1,
        ),
    ]
}

/// First free `BENCH_<n>.json` path in `dir`, counting up from 1.
fn next_bench_path(dir: &std::path::Path) -> std::path::PathBuf {
    (1u64..)
        .map(|n| dir.join(format!("BENCH_{n}.json")))
        .find(|p| !p.exists())
        .expect("some BENCH_<n>.json index below u64::MAX is free")
}

/// `bench-report` subcommand: run the fixed smoke sweep and write a
/// schema-stable perf snapshot. The file holds only simulated-time
/// statistics — byte-identical at any `--jobs` count — so two snapshots
/// from different machines or thread counts are directly comparable
/// with `obs diff`. Host wall-clock goes to stderr.
pub fn cmd_bench_report(args: &Args) -> Result<String, CliError> {
    let jobs: usize = args.get_parsed("jobs", 0)?;
    let suite = args.get("suite").unwrap_or("smoke");
    // `--suite full` appends the paper-scale jobs to the smoke sweep:
    // the smoke rows keep the snapshot joinable (`obs diff`) against
    // historical BENCH_<n> trajectory points, while the full-scale rows
    // are what the CI perf wall compares between baseline and PR.
    let sweep = match suite {
        "smoke" => golden_jobs(),
        "full" => {
            let mut s = golden_jobs();
            s.extend(full_scale_jobs());
            s
        }
        other => {
            return Err(CliError::general(format!(
                "bench-report: unknown suite {other:?} (expected smoke or full)"
            )))
        }
    };
    // Schema 2 adds flat per-(job, stack) profile lines after each
    // job's report lines; `obs diff` reads them for regression
    // attribution and schema-1 readers skip them (no mean_response_s).
    let (body, summary, profile) = sweep_render(sweep, jobs, true)?;
    let content = format!("{{\"bench_schema\":2,\"suite\":{suite:?}}}\n{body}");
    let path = match args.get("out") {
        Some(p) => std::path::PathBuf::from(p),
        None => next_bench_path(std::path::Path::new(".")),
    };
    std::fs::write(&path, &content)
        .map_err(|e| format!("bench-report: cannot write {}: {e}", path.display()))?;
    let mut out = format!(
        "bench report written to {} ({} reports)\n",
        path.display(),
        body.lines().count() - 1
    );
    if let Some(folded_path) = args.get("folded") {
        let metric = match args.get("folded-metric") {
            None => FoldedMetric::SimUs,
            Some(m) => FoldedMetric::parse(m).ok_or_else(|| {
                format!(
                    "--folded-metric: expected wall_ns, sim_us, alloc_bytes, allocs or calls, \
                     got {m:?}"
                )
            })?,
        };
        let profile = profile.ok_or("bench-report: sweep produced no merged profile")?;
        std::fs::write(folded_path, profile.folded(metric))
            .map_err(|e| format!("--folded {folded_path}: cannot write file: {e}"))?;
        out.push_str(&format!("folded stacks written to {folded_path}\n"));
    }
    eprintln!("{}", summary.render());
    Ok(out)
}

/// Extract a `"key":"value"` string field from a single JSON line.
/// Good enough for the bench-report format, whose job labels never
/// contain escaped quotes.
pub(crate) fn json_str_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    Some(rest[..rest.find('"')?].to_string())
}

/// Extract a `"key":<number>` field from a single JSON line.
pub(crate) fn json_num_field(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Bench-report schema versions this binary can read. Schema 1 is the
/// pre-profile-section format; schema 2 appended per-(job, stack)
/// profile lines.
const KNOWN_BENCH_SCHEMAS: [u64; 2] = [1, 2];

/// Read a bench-report file and validate its schema header. A missing
/// file exits with [`crate::error::EXIT_MISSING_INPUT`]; a missing or
/// unknown `bench_schema` header with [`crate::error::EXIT_BAD_SCHEMA`]
/// — distinct codes so the CI perf wall fails loudly, not confusingly.
fn read_bench_file(path: &str) -> Result<String, CliError> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        if e.kind() == std::io::ErrorKind::NotFound {
            CliError::missing_input(format!("obs diff: bench snapshot {path} does not exist"))
        } else {
            CliError::general(format!("obs diff: cannot read {path}: {e}"))
        }
    })?;
    let header = text.lines().next().unwrap_or("");
    let Some(schema) = json_num_field(header, "bench_schema") else {
        return Err(CliError::bad_schema(format!(
            "obs diff: {path}: first line carries no bench_schema header \
             (not a bench-report file?)"
        )));
    };
    if !KNOWN_BENCH_SCHEMAS.contains(&(schema as u64)) {
        return Err(CliError::bad_schema(format!(
            "obs diff: {path}: unknown bench_schema {} (this build reads {:?})",
            schema as u64, KNOWN_BENCH_SCHEMAS
        )));
    }
    Ok(text)
}

/// Load the per-replication mean response times out of a bench report:
/// `(job label/rep index, mean_response_s)` in file order.
fn load_bench(path: &str) -> Result<Vec<(String, f64)>, CliError> {
    let text = read_bench_file(path)?;
    let mut rows = Vec::new();
    for line in text.lines() {
        let (Some(job), Some(rep), Some(mean)) = (
            json_str_field(line, "job"),
            json_num_field(line, "rep"),
            json_num_field(line, "mean_response_s"),
        ) else {
            continue; // header / metrics lines
        };
        rows.push((format!("{job}/rep{rep}"), mean));
    }
    if rows.is_empty() {
        return Err(CliError::bad_schema(format!(
            "obs diff: {path}: no report lines found (not a bench-report file?)"
        )));
    }
    Ok(rows)
}

/// A snapshot's profile section, joined for attribution:
/// `(job, stack) → (sim_us, alloc_bytes)`.
type ProfileRows = std::collections::BTreeMap<(String, String), (f64, f64)>;

/// Load the per-(job, stack) profile counters out of a bench report.
/// Empty — not an error — for schema-1 snapshots, which predate the
/// profile section.
fn load_profile_section(path: &str) -> Result<ProfileRows, CliError> {
    let text = read_bench_file(path)?;
    let mut rows = std::collections::BTreeMap::new();
    for line in text.lines() {
        let (Some(job), Some(phase), Some(sim_us), Some(alloc_bytes)) = (
            json_str_field(line, "job"),
            json_str_field(line, "phase"),
            json_num_field(line, "sim_us"),
            json_num_field(line, "alloc_bytes"),
        ) else {
            continue; // header / report / metrics lines
        };
        rows.insert((job, phase), (sim_us, alloc_bytes));
    }
    Ok(rows)
}

/// Attribute regressed jobs to phases: for each job, the stacks with
/// the largest simulated-time delta and the largest allocation delta
/// between the two snapshots' profile sections.
fn profile_attribution(
    jobs: &std::collections::BTreeSet<String>,
    base: &ProfileRows,
    cur: &ProfileRows,
) -> String {
    const TOP_K: usize = 3;
    if base.is_empty() || cur.is_empty() {
        return "no profile section in one of the snapshots (bench_schema 1?); \
                re-run bench-report for per-phase attribution\n"
            .to_string();
    }
    let mut out = String::new();
    for job in jobs {
        // Union of the job's stacks across both snapshots: a phase that
        // appeared or vanished is itself a lead worth surfacing.
        let mut deltas: Vec<(&str, f64, f64)> = Vec::new();
        for ((j, phase), &(base_sim, base_bytes)) in base {
            if j != job {
                continue;
            }
            let (cur_sim, cur_bytes) = cur
                .get(&(j.clone(), phase.clone()))
                .copied()
                .unwrap_or((0.0, 0.0));
            deltas.push((phase, cur_sim - base_sim, cur_bytes - base_bytes));
        }
        for ((j, phase), &(cur_sim, cur_bytes)) in cur {
            if j != job || base.contains_key(&(j.clone(), phase.clone())) {
                continue;
            }
            deltas.push((phase, cur_sim, cur_bytes));
        }
        if deltas.is_empty() {
            continue;
        }
        let mut by_sim = deltas.clone();
        by_sim.sort_by(|a, b| b.1.abs().total_cmp(&a.1.abs()));
        let mut by_bytes = deltas.clone();
        by_bytes.sort_by(|a, b| b.2.abs().total_cmp(&a.2.abs()));
        let mut picks: Vec<&str> = Vec::new();
        for (phase, d_sim, d_bytes) in by_sim.iter().take(TOP_K).chain(by_bytes.iter().take(TOP_K))
        {
            if (*d_sim != 0.0 || *d_bytes != 0.0) && !picks.contains(phase) {
                picks.push(phase);
            }
        }
        if picks.is_empty() {
            out.push_str(&format!(
                "job {job}: no phase counter moved — the regression is outside the profiled paths\n"
            ));
            continue;
        }
        out.push_str(&format!(
            "job {job}: top phases by simulated-time / allocation delta\n"
        ));
        for phase in picks {
            let (_, d_sim, d_bytes) = deltas
                .iter()
                .find(|d| d.0 == phase)
                .expect("picked from deltas");
            out.push_str(&format!(
                "  {phase:<44} sim_us {d_sim:+12.0}   alloc_bytes {d_bytes:+12.0}\n"
            ));
        }
    }
    out
}

/// `obs` subcommand. `obs diff BASELINE.json CURRENT.json` compares two
/// bench-report snapshots run-by-run and fails (exit 1) when any run's
/// mean response time regressed beyond `--threshold` percent, naming
/// the phases whose simulated-time and allocation counters moved most.
pub fn cmd_obs(args: &Args) -> Result<String, CliError> {
    match args.positional.first().map(String::as_str) {
        Some("diff") => {}
        other => {
            return Err(CliError::general(format!(
                "obs: expected `diff BASELINE CURRENT`, got {other:?}"
            )))
        }
    }
    let (Some(base_path), Some(cur_path)) = (args.positional.get(1), args.positional.get(2)) else {
        return Err("obs diff: need two bench-report paths (baseline, then current)".into());
    };
    let threshold: f64 = args.get_parsed("threshold", 5.0)?;
    let base = load_bench(base_path)?;
    let cur: std::collections::BTreeMap<String, f64> = load_bench(cur_path)?.into_iter().collect();
    let mut table = Table::new(vec!["run", "baseline (ms)", "current (ms)", "delta"]);
    let mut compared = 0usize;
    let mut regressions = 0usize;
    let mut regressed_jobs = std::collections::BTreeSet::new();
    for (key, was) in &base {
        let Some(now) = cur.get(key) else { continue };
        compared += 1;
        let delta = if *was > 0.0 {
            (now - was) / was * 100.0
        } else {
            0.0
        };
        let marker = if delta > threshold {
            regressions += 1;
            // Run keys are "<job>/rep<n>"; attribution works on the
            // job's merged profile, so fold the replications back up.
            regressed_jobs.insert(
                key.rsplit_once("/rep")
                    .map_or_else(|| key.clone(), |(job, _)| job.to_string()),
            );
            "  REGRESSION"
        } else {
            ""
        };
        table.row(vec![
            key.clone(),
            format!("{:.2}", was * 1e3),
            format!("{:.2}", now * 1e3),
            format!("{delta:+.1} %{marker}"),
        ]);
    }
    if compared == 0 {
        return Err("obs diff: the two reports share no runs".into());
    }
    let mut out = format!("perf diff {base_path} → {cur_path} (threshold {threshold:.1} %)\n");
    out.push_str(&table.render());
    if regressions > 0 {
        let attribution = profile_attribution(
            &regressed_jobs,
            &load_profile_section(base_path)?,
            &load_profile_section(cur_path)?,
        );
        return Err(CliError::general(format!(
            "{out}{attribution}{regressions} of {compared} runs regressed beyond +{threshold:.1} %"
        )));
    }
    out.push_str(&format!(
        "{compared} runs compared, none slower than +{threshold:.1} %\n"
    ));
    Ok(out)
}

/// `crash-matrix` subcommand: run the exhaustive crash-recovery matrix
/// and fail (exit 1) on any ACID violation.
pub fn cmd_crash_matrix(args: &Args) -> Result<String, String> {
    let preset = args.get("preset").unwrap_or("smoke");
    let mut mc = match preset {
        "smoke" => CrashMatrixConfig::smoke(),
        "deep" => CrashMatrixConfig::deep(),
        other => return Err(format!("--preset: expected smoke or deep, got {other:?}")),
    };
    mc.event_samples = args.get_parsed("samples", mc.event_samples)?;
    mc.jobs = args.get_parsed("jobs", mc.jobs)?;
    mc.cfg.seed = args.get_parsed("seed", mc.cfg.seed)?;
    if let Some(dir) = args.get("scratch-dir") {
        mc.scratch_dir = Some(std::path::PathBuf::from(dir));
    }
    let backends = match args.get("backend").unwrap_or("sim") {
        "sim" => vec![MatrixBackend::Sim],
        "file" => vec![MatrixBackend::File],
        "both" => vec![MatrixBackend::Sim, MatrixBackend::File],
        other => {
            return Err(format!(
                "--backend: expected sim, file or both, got {other:?}"
            ))
        }
    };
    let labelled = backends.len() > 1;
    let mut out = String::new();
    for backend in backends {
        mc.backend = backend;
        let report = run_crash_matrix(&mc);
        if report.violation_count() > 0 {
            return Err(format!("backend {}:\n{}", backend.name(), report.render()));
        }
        if args.flag("json") {
            out.push_str(&format!(
                concat!(
                    "{{\"backend\":{backend:?},\"points\":{points},",
                    "\"commits\":{commits},\"events\":{events},",
                    "\"log_flushes\":{flushes},\"violations\":{violations}}}\n"
                ),
                backend = backend.name(),
                points = report.points.len(),
                commits = report.total_commits,
                events = report.total_events,
                flushes = report.total_flushes,
                violations = report.violation_count(),
            ));
        } else {
            if labelled {
                out.push_str(&format!("== backend {} ==\n", backend.name()));
            }
            out.push_str(&report.render());
        }
    }
    Ok(out)
}

/// Dispatch a parsed command line. Errors carry a process exit code:
/// `1` for ordinary failures, `3` when a required input file is
/// missing, `4` when an input file has an unknown schema version,
/// `5` when a network operation fails, `6` when a peer violates the
/// wire protocol, `7` when the serve-path ACID verdict finds acked
/// transactions that did not survive recovery.
pub fn dispatch(args: &Args) -> Result<String, CliError> {
    match args.command.as_deref() {
        Some("simulate") => cmd_simulate(args).map_err(CliError::from),
        Some("explain") => cmd_explain(args).map_err(CliError::from),
        Some("explain-placement") => cmd_explain_placement(args).map_err(CliError::from),
        Some("trace") => cmd_trace(args).map_err(CliError::from),
        Some("inspect") => cmd_inspect(args).map_err(CliError::from),
        Some("reorg") => cmd_reorg(args).map_err(CliError::from),
        Some("golden") => cmd_golden(args).map_err(CliError::from),
        Some("bench-report") => cmd_bench_report(args),
        Some("serve") => crate::servecmd::cmd_serve(args),
        Some("load") => crate::servecmd::cmd_load(args),
        Some("top") => crate::topcmd::cmd_top(args),
        Some("obs") => cmd_obs(args),
        Some("crash-matrix") => cmd_crash_matrix(args).map_err(CliError::from),
        Some("help") | None => Ok(USAGE.to_string()),
        Some(other) => Err(CliError::general(format!(
            "unknown command {other:?}\n\n{USAGE}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn policy_parsers() {
        assert_eq!(
            parse_clustering("2io").unwrap(),
            ClusteringPolicy::IoLimit(2)
        );
        assert_eq!(
            parse_clustering("7io").unwrap(),
            ClusteringPolicy::IoLimit(7)
        );
        assert_eq!(
            parse_clustering("adaptive").unwrap(),
            ClusteringPolicy::Adaptive
        );
        assert!(parse_clustering("bogus").is_err());
        assert_eq!(
            parse_replacement("ctx").unwrap(),
            ReplacementPolicy::ContextSensitive
        );
        assert_eq!(parse_prefetch("db").unwrap(), PrefetchScope::WithinDatabase);
        assert_eq!(parse_split("np").unwrap(), SplitPolicy::Optimal);
    }

    #[test]
    fn config_from_flags() {
        let args = parse(
            "simulate --workload hi10-100 --clustering nolimit --replacement ctx \
             --prefetch db --split linear --buffer-pages 50 --seed 3 --txns 100",
        );
        let cfg = config_from_args(&args).unwrap();
        assert_eq!(cfg.workload.label(), "hi10-100");
        assert_eq!(cfg.clustering, ClusteringPolicy::NoLimit);
        assert_eq!(cfg.replacement, ReplacementPolicy::ContextSensitive);
        assert_eq!(cfg.buffer_pages, 50);
        assert_eq!(cfg.measured_txns, 100);
    }

    #[test]
    fn bad_flags_error() {
        assert!(config_from_args(&parse("simulate --workload nope")).is_err());
        assert!(config_from_args(&parse("simulate --clustering nope")).is_err());
        assert!(dispatch(&parse("frobnicate")).is_err());
        assert!(dispatch(&parse("bench-report --suite nope")).is_err());
    }

    #[test]
    fn paper_scale_flag_starts_from_table_4_1() {
        let cfg = config_from_args(&parse("simulate --paper-scale --preset med5-10")).unwrap();
        let paper = SimConfig::paper_scale();
        assert_eq!(cfg.buffer_pages, paper.buffer_pages);
        assert_eq!(cfg.database_bytes, paper.database_bytes);
        assert_eq!(cfg.workload.label(), "med5-10");
        // Other flags still override the paper values.
        let cfg = config_from_args(&parse("simulate --paper-scale --buffer-pages 64")).unwrap();
        assert_eq!(cfg.buffer_pages, 64);
    }

    #[test]
    fn help_and_trace_render() {
        let out = dispatch(&parse("help")).unwrap();
        assert!(out.contains("simulate"));
        let out = dispatch(&parse("trace --invocations 3 --seed 1")).unwrap();
        assert!(out.contains("vem"));
    }

    #[test]
    fn simulate_json_smoke() {
        let out = dispatch(&parse(
            "simulate --workload low3-5 --txns 60 --buffer-pages 16 --json --reps 1",
        ));
        // A tiny run must produce a JSON array with the key metrics.
        let out = out.unwrap();
        assert!(out.starts_with('[') && out.ends_with(']'));
        assert!(out.contains("\"mean_response_s\""));
        assert!(out.contains("\"hit_ratio\""));
    }

    #[test]
    fn preset_aliases_workload() {
        let cfg = config_from_args(&parse("simulate --preset hi10-100")).unwrap();
        assert_eq!(cfg.workload.label(), "hi10-100");
        // --workload wins when both are given.
        let cfg = config_from_args(&parse("simulate --workload low3-5 --preset hi10-100")).unwrap();
        assert_eq!(cfg.workload.label(), "low3-5");
    }

    #[test]
    fn simulate_trace_and_metrics() {
        let dir = std::env::temp_dir().join("semcluster-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.jsonl");
        let path = path.to_str().unwrap();
        let out = dispatch(&parse(&format!(
            "simulate --preset low3-5 --txns 60 --buffer-pages 16 \
             --trace {path} --metrics json"
        )))
        .unwrap();
        // Combined JSON object with report + registry snapshot.
        assert!(out.starts_with("{\"report\":"));
        assert!(out.contains("\"metrics\":"));
        assert!(out.contains("\"counters\""));
        assert!(out.contains("buffer.miss"));
        // Trace file holds one JSON object per line, in event-time order.
        let trace = std::fs::read_to_string(path).unwrap();
        assert!(trace.lines().count() > 60);
        for line in trace.lines().take(50) {
            assert!(line.starts_with("{\"t\":") && line.ends_with('}'));
            assert!(line.contains("\"ev\":"));
        }
        assert!(trace.contains("\"ev\":\"txn_commit\""));
        std::fs::remove_file(path).unwrap();

        let out = dispatch(&parse(
            "simulate --preset low3-5 --txns 60 --buffer-pages 16 --metrics table",
        ))
        .unwrap();
        assert!(out.contains("buffer.hit"));
        assert!(out.contains("counter"));
    }

    #[test]
    fn explain_attributes_response() {
        let out = dispatch(&parse(
            "explain --preset low3-5 --txns 60 --buffer-pages 16",
        ))
        .unwrap();
        assert!(out.contains("response-time attribution"));
        assert!(out.contains("demand reads"));
        assert!(out.contains("total response"));
        let out = dispatch(&parse(
            "explain --preset low3-5 --txns 60 --buffer-pages 16 --json",
        ))
        .unwrap();
        assert!(out.contains("\"data_read_s\""));
        assert!(out.contains("\"think_s\""));
    }

    #[test]
    fn simulate_jobs_is_thread_count_invariant() {
        let run = |jobs: u32| {
            dispatch(&parse(&format!(
                "simulate --preset low3-5 --txns 60 --buffer-pages 16 \
                 --json --reps 3 --jobs {jobs}"
            )))
            .unwrap()
        };
        let serial = run(1);
        assert_eq!(serial, run(3), "--jobs must not change the output");
        // Three replications, each a distinct seed → distinct reports.
        assert_eq!(serial.matches("\"mean_response_s\"").count(), 3);
    }

    #[test]
    fn simulate_rejects_zero_reps() {
        let err = dispatch(&parse("simulate --preset low3-5 --reps 0")).unwrap_err();
        assert!(err.contains("at least one replication"));
    }

    #[test]
    fn golden_bless_check_and_drift() {
        let dir = std::env::temp_dir().join("semcluster-golden-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("smoke.json");
        let path = path.to_str().unwrap();

        // Checking against a missing file explains how to create it.
        let _ = std::fs::remove_file(path);
        let err = dispatch(&parse(&format!("golden --path {path}"))).unwrap_err();
        assert!(err.contains("--bless"));

        let out = dispatch(&parse(&format!("golden --bless --path {path} --jobs 2"))).unwrap();
        assert!(out.contains("golden blessed"));
        let blessed = std::fs::read_to_string(path).unwrap();
        assert!(blessed.lines().count() > 6);
        assert!(blessed.contains("\"job\":\"baseline\""));
        assert!(blessed.contains("\"job\":\"write-heavy-random\""));
        assert!(blessed.lines().last().unwrap().starts_with("{\"metrics\":"));

        // A re-run at a different thread count byte-matches.
        let out = dispatch(&parse(&format!("golden --path {path} --jobs 1"))).unwrap();
        assert!(out.contains("golden OK"));

        // Any byte drift fails the check with a pointer to the line.
        std::fs::write(path, blessed.replacen("\"rep\":0", "\"rep\":9", 1)).unwrap();
        let err = dispatch(&parse(&format!("golden --path {path}"))).unwrap_err();
        assert!(err.contains("golden MISMATCH"));
        assert!(err.contains("first difference at line 1"));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn simulate_chrome_trace_and_timeline() {
        let dir = std::env::temp_dir().join("semcluster-cli-obs2-test");
        std::fs::create_dir_all(&dir).unwrap();
        let chrome = dir.join("trace.json");
        let chrome = chrome.to_str().unwrap();
        let timeline = dir.join("timeline.json");
        let timeline = timeline.to_str().unwrap();

        let out = dispatch(&parse(&format!(
            "simulate --preset low3-5 --txns 60 --buffer-pages 16 \
             --chrome-trace {chrome} --timeline {timeline}"
        )))
        .unwrap();
        assert!(out.contains("timeline written to"));
        assert!(out.contains("chrome trace written to"));

        // The Chrome trace is one JSON array with process metadata and
        // at least one transaction span.
        let trace = std::fs::read_to_string(chrome).unwrap();
        assert!(trace.starts_with("[\n"));
        assert!(trace.ends_with("]\n"));
        assert!(trace.contains("\"process_name\""));
        assert!(trace.contains("\"ph\":\"B\""));
        assert!(trace.contains("\"ph\":\"X\""));

        // The timeline holds interval-aligned samples with the locality
        // and queue-depth fields.
        let tl = std::fs::read_to_string(timeline).unwrap();
        assert!(tl.starts_with("{\"interval_us\":1000000,"));
        assert!(tl.contains("\"loc_on_page\""));
        assert!(tl.contains("\"queue_us\""));
        std::fs::remove_file(chrome).unwrap();
        std::fs::remove_file(timeline).unwrap();

        // The two trace formats are mutually exclusive.
        let err = dispatch(&parse(&format!(
            "simulate --preset low3-5 --trace a.jsonl --chrome-trace {chrome}"
        )))
        .unwrap_err();
        assert!(err.contains("mutually exclusive"));

        // A zero sampling interval is rejected.
        let err = dispatch(&parse(&format!(
            "simulate --preset low3-5 --timeline {timeline} --timeline-interval-us 0"
        )))
        .unwrap_err();
        assert!(err.contains("must be positive"));
    }

    #[test]
    fn explain_placement_table_and_json() {
        let out = dispatch(&parse(
            "explain-placement --preset med5-10 --clustering nolimit --split linear \
             --txns 80 --buffer-pages 16 --last 8",
        ))
        .unwrap();
        assert!(out.contains("placement decisions"));
        assert!(out.contains("chosen→landed"));

        let out = dispatch(&parse(
            "explain-placement --preset med5-10 --clustering nolimit --split linear \
             --txns 80 --buffer-pages 16 --last 8 --json",
        ))
        .unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert!(!lines.is_empty() && lines.len() <= 8);
        for line in &lines {
            assert!(line.starts_with("{\"t\":"));
            assert!(line.contains("\"candidates\":["));
            assert!(line.contains("\"search_ios\":"));
        }
        assert!(dispatch(&parse("explain-placement --last 0")).is_err());
    }

    #[test]
    fn obs_diff_compares_bench_reports() {
        let dir = std::env::temp_dir().join("semcluster-obs-diff-test");
        std::fs::create_dir_all(&dir).unwrap();
        let a = dir.join("BENCH_1.json");
        let b = dir.join("BENCH_2.json");
        let base = "{\"bench_schema\":1,\"suite\":\"smoke\"}\n\
            {\"job\":\"baseline\",\"rep\":0,\"report\":{\"config\":\"x\",\"mean_response_s\":0.010000}}\n\
            {\"job\":\"baseline\",\"rep\":1,\"report\":{\"config\":\"x\",\"mean_response_s\":0.020000}}\n\
            {\"metrics\":{}}\n";
        std::fs::write(&a, base).unwrap();

        // Identical snapshots pass.
        std::fs::write(&b, base).unwrap();
        let cmd = format!("obs diff {} {}", a.display(), b.display());
        let out = dispatch(&parse(&cmd)).unwrap();
        assert!(out.contains("none slower"));

        // A >5% mean-response regression fails with a marked row.
        std::fs::write(&b, base.replace("0.020000", "0.030000")).unwrap();
        let err = dispatch(&parse(&cmd)).unwrap_err();
        assert!(err.contains("REGRESSION"));
        assert!(err.contains("1 of 2 runs regressed"));

        // A generous threshold lets the same pair pass.
        let out = dispatch(&parse(&format!("{cmd} --threshold 60"))).unwrap();
        assert!(out.contains("none slower"));

        // Improvements never fail, whatever the threshold.
        std::fs::write(&b, base.replace("0.020000", "0.002000")).unwrap();
        let out = dispatch(&parse(&cmd)).unwrap();
        assert!(out.contains("none slower"));

        assert!(dispatch(&parse("obs diff missing-a.json missing-b.json")).is_err());
        assert!(dispatch(&parse("obs frobnicate")).is_err());
        std::fs::remove_file(&a).unwrap();
        std::fs::remove_file(&b).unwrap();
    }

    #[test]
    fn bench_report_writes_snapshot() {
        let dir = std::env::temp_dir().join("semcluster-bench-report-test");
        std::fs::create_dir_all(&dir).unwrap();
        let out_path = dir.join("BENCH_T.json");
        let out_path_s = out_path.to_str().unwrap();
        let _ = std::fs::remove_file(&out_path);
        let out = dispatch(&parse(&format!("bench-report --out {out_path_s} --jobs 2"))).unwrap();
        assert!(out.contains("bench report written to"));
        let content = std::fs::read_to_string(&out_path).unwrap();
        assert!(content.starts_with("{\"bench_schema\":2,\"suite\":\"smoke\"}\n"));
        assert!(content.contains("\"job\":\"baseline\""));
        // Schema 2 interleaves per-phase profile lines with the reports.
        assert!(content.contains("\"phase\":\"run;buffer_lookup\""));
        assert!(content.lines().last().unwrap().starts_with("{\"metrics\":"));
        // The snapshot diffs cleanly against itself.
        let out = dispatch(&parse(&format!("obs diff {out_path_s} {out_path_s}"))).unwrap();
        assert!(out.contains("none slower"));
        std::fs::remove_file(&out_path).unwrap();
        // Host-time suites live in benchmark/, not in BENCH_<n>.json.
        let err = dispatch(&parse("bench-report --suite serve")).unwrap_err();
        assert!(err.to_string().contains("expected smoke or full"), "{err}");
    }

    #[test]
    fn next_bench_path_skips_existing() {
        let dir = std::env::temp_dir().join("semcluster-bench-path-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(next_bench_path(&dir), dir.join("BENCH_1.json"));
        std::fs::write(dir.join("BENCH_1.json"), "x").unwrap();
        assert_eq!(next_bench_path(&dir), dir.join("BENCH_2.json"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn timeline_golden_bless_and_thread_invariance() {
        let dir = std::env::temp_dir().join("semcluster-timeline-golden-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("timeline_smoke.json");
        let path = path.to_str().unwrap();

        let out = dispatch(&parse(&format!(
            "golden --suite timeline --bless --path {path} --jobs 2"
        )))
        .unwrap();
        assert!(out.contains("golden blessed"));
        let blessed = std::fs::read_to_string(path).unwrap();
        assert!(blessed.contains("\"job\":\"tl-baseline\""));
        assert!(blessed.contains("\"job\":\"tl-faults\""));
        assert!(blessed.lines().last().unwrap().starts_with("{\"merged\":"));

        // A serial re-run byte-matches the 2-thread bless.
        let out = dispatch(&parse(&format!(
            "golden --suite timeline --path {path} --jobs 1"
        )))
        .unwrap();
        assert!(out.contains("golden OK"));
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn inspect_and_reorg_smoke() {
        let out = dispatch(&parse("inspect --mbytes 1 --workload low3-5")).unwrap();
        assert!(out.contains("configuration edges"));
        assert!(out.contains("layout improvement"));
        let out = dispatch(&parse("reorg --modules 4")).unwrap();
        assert!(out.contains("repaired"));
    }
}
