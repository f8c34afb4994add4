//! `simulate`, `explain` and `explain-placement`: the subcommands that
//! build a [`SimConfig`] from flags and run it.

use crate::args::Args;
use crate::error::CliError;
use semcluster::{
    replication_config, run_simulation, run_simulation_observed, workload_from_label, CrashPoint,
    DurableMirror, FaultConfig, ObsConfig, ReplicatedResult, SimConfig, SweepJob, SweepRunner,
};
use semcluster_analysis::Table;
use semcluster_buffer::{PrefetchScope, ReplacementPolicy};
use semcluster_clustering::{ClusteringPolicy, SplitPolicy};
use semcluster_obs::{ChromeTraceSink, FoldedMetric, JsonlSink, SplitVerdict};

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

/// Build a `SimConfig` from the [`CONFIG_FLAGS`](crate::commands::CONFIG_FLAGS).
/// A value outside its domain is a usage error (exit 2), not a panic
/// from the engine's own assertions.
pub fn config_from_args(args: &Args) -> Result<SimConfig, CliError> {
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
        cfg.workload = workload_from_label(label)
            .ok_or_else(|| CliError::usage(format!("unknown workload {label:?}")))?;
    }
    if let Some(v) = args.get("clustering") {
        cfg.clustering = parse_clustering(v).map_err(CliError::usage)?;
    }
    if let Some(v) = args.get("replacement") {
        cfg.replacement = parse_replacement(v).map_err(CliError::usage)?;
    }
    if let Some(v) = args.get("prefetch") {
        cfg.prefetch = parse_prefetch(v).map_err(CliError::usage)?;
    }
    if let Some(v) = args.get("split") {
        cfg.split = parse_split(v).map_err(CliError::usage)?;
    }
    if let Some(v) = args.get("faults") {
        cfg.faults = FaultConfig::preset(v).ok_or_else(|| {
            CliError::usage(format!(
                "unknown fault preset {v:?} (expected one of {})",
                FaultConfig::PRESETS.join(", ")
            ))
        })?;
    }
    cfg.buffer_pages = args.get_parsed("buffer-pages", cfg.buffer_pages)?;
    if cfg.buffer_pages == 0 {
        return Err(CliError::usage(
            "--buffer-pages: the buffer pool needs at least one frame",
        ));
    }
    cfg.seed = args.get_parsed("seed", cfg.seed)?;
    cfg.measured_txns = args.get_parsed("txns", cfg.measured_txns)?;
    Ok(cfg)
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
) -> Result<ReplicatedResult, CliError> {
    if reps == 0 {
        return Err(CliError::usage("--reps: need at least one replication"));
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
pub fn cmd_simulate(args: &Args) -> Result<String, CliError> {
    let cfg = config_from_args(args)?;
    match args.get("backend") {
        None | Some("sim") => {}
        Some("file") => return simulate_file_backend(args, cfg),
        Some(other) => {
            return Err(CliError::usage(format!(
                "--backend: expected sim or file, got {other:?}"
            )))
        }
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
            out.push_str(&report.to_json());
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
        "p50 / p95 response ≤".to_string(),
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

/// Refuse a `--reps` other than 1 on a `path` that runs one replication,
/// rather than run one and ignore the rest.
fn single_replication(args: &Args, path: &str) -> Result<(), CliError> {
    match args.get_parsed("reps", 1u32)? {
        1 => Ok(()),
        _ => Err(CliError::usage(format!(
            "{path}: runs a single replication (drop --reps)"
        ))),
    }
}

/// `simulate --backend file`: one replication shadowed by the durable
/// file-backed store under `--data-dir` (default `target/simulate-data`),
/// then the plug is pulled and the run's durability is verified by
/// recovering the real files from disk — twice, since recovery must be
/// idempotent. The recovered `pages.db`/`wal.log` are left in place for
/// inspection.
fn simulate_file_backend(args: &Args, mut cfg: SimConfig) -> Result<String, CliError> {
    single_replication(args, "--backend file")?;
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

    let (rec1, violations) = outcome.recover_and_verify(&dir);
    let Some(rec1) = rec1.filter(|_| violations.is_empty()) else {
        return Err(format!(
            "file backend: ACID violations after recovery from {}:\n  {}",
            dir.display(),
            violations.join("\n  ")
        )
        .into());
    };

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
fn simulate_instrumented(args: &Args, cfg: SimConfig) -> Result<String, CliError> {
    single_replication(
        args,
        "--trace/--chrome-trace/--timeline/--metrics/--profile",
    )?;
    let trace_path = args.get("trace");
    let chrome_path = args.get("chrome-trace");
    if trace_path.is_some() && chrome_path.is_some() {
        return Err(CliError::usage(
            "--trace and --chrome-trace are mutually exclusive; pick one format",
        ));
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
    let interval_us: u64 = args.get_parsed(
        "timeline-interval-us",
        crate::golden::DEFAULT_TIMELINE_INTERVAL_US,
    )?;
    if interval_us == 0 {
        return Err(CliError::usage("--timeline-interval-us: must be positive"));
    }
    if timeline_path.is_some() {
        obs = obs.timeline(interval_us);
    }
    let profiled = args.flag("profile");
    let folded_path = args.get("folded");
    let folded_metric = match args.get("folded-metric") {
        None => FoldedMetric::WallNs,
        Some(m) => FoldedMetric::parse(m).ok_or_else(|| {
            CliError::usage(format!(
                "--folded-metric: expected wall_ns, sim_us, alloc_bytes, allocs or calls, got {m:?}"
            ))
        })?,
    };
    if (folded_path.is_some() || args.get("folded-metric").is_some()) && !profiled {
        return Err(CliError::usage("--folded/--folded-metric need --profile"));
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
            // Report + registry snapshot in one parseable object: the
            // per-category counters beside the I/O breakdown that is
            // read from them. The profile section holds only
            // deterministic counters (wall clock stays on stderr).
            out.push_str("{\"report\":");
            out.push_str(&report.to_json());
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
        Some(other) => {
            return Err(CliError::usage(format!(
                "--metrics: expected json or table, got {other:?}"
            )))
        }
        None => {
            out.push_str(&report.to_json());
            out.push('\n');
            if let Some(profile) = profile {
                out.push_str(&profile.to_json());
                out.push('\n');
            }
        }
    }
    // One line per artifact written, unless stdout is the JSON object.
    let mut notes = String::new();
    if let Some(profile) = profile {
        // The per-phase wall-clock table is host-machine material and
        // must never reach the deterministic stdout stream.
        eprint!("{}", profile.render_table());
        if let Some(path) = folded_path {
            std::fs::write(path, profile.folded(folded_metric))
                .map_err(|e| format!("--folded {path}: cannot write file: {e}"))?;
            notes.push_str(&format!("folded stacks written to {path}\n"));
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
        notes.push_str(&format!(
            "timeline written to {path} ({} samples)\n",
            timeline.len()
        ));
    }
    if let Some(path) = trace_path {
        notes.push_str(&format!("trace written to {path}\n"));
    }
    if let Some(path) = chrome_path {
        notes.push_str(&format!(
            "chrome trace written to {path} — open in chrome://tracing or https://ui.perfetto.dev\n"
        ));
    }
    if args.get("metrics") != Some("json") {
        out.push_str(&notes);
    }
    Ok(out)
}

/// `explain` subcommand: attribute mean response time per component.
pub fn cmd_explain(args: &Args) -> Result<String, CliError> {
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
pub fn cmd_explain_placement(args: &Args) -> Result<String, CliError> {
    let cfg = config_from_args(args)?;
    let last: usize = args.get_parsed("last", 12)?;
    if last == 0 {
        return Err(CliError::usage("--last: need at least one record"));
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
