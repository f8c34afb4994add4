//! `golden`: the one gate on simulated results. A registry of fixed
//! suites ([`GOLDEN_SUITES`]), each rendered deterministically and
//! byte-compared against its committed file under `goldens/`.

use crate::args::Args;
use crate::error::CliError;
use semcluster::{workload_from_label, FaultConfig, ObsConfig, SimConfig, SweepJob, SweepRunner};
use semcluster_buffer::{PrefetchScope, ReplacementPolicy};
use semcluster_clustering::{ClusteringPolicy, SplitPolicy};
use semcluster_obs::ProfileReport;

/// One golden suite: the `--suite` name, the committed file it is held
/// against (relative to the repository root, where CI invokes the CLI)
/// and its deterministic renderer — a pure function of the engine,
/// byte-identical at any `--jobs` count.
pub struct GoldenSuite {
    /// The `--suite` value.
    pub name: &'static str,
    /// Default location of the committed golden file.
    pub path: &'static str,
    /// Render the suite on `jobs` worker threads (0 = all cores).
    pub render: fn(usize) -> Result<String, String>,
}

/// Every golden suite; `smoke`, the first, is the default.
pub const GOLDEN_SUITES: &[GoldenSuite] = &[
    GoldenSuite {
        name: "smoke",
        path: "goldens/smoke.json",
        render: |jobs| golden_render(golden_jobs(), jobs),
    },
    GoldenSuite {
        name: "faults",
        path: "goldens/faults_smoke.json",
        render: |jobs| golden_render(faults_golden_jobs(), jobs),
    },
    GoldenSuite {
        name: "timeline",
        path: "goldens/timeline_smoke.json",
        render: timeline_golden_render,
    },
    GoldenSuite {
        name: "profile",
        path: "goldens/profile_smoke.json",
        render: profile_golden_render,
    },
    GoldenSuite {
        name: "chaos",
        path: "goldens/chaos.json",
        render: crate::servecmd::chaos_golden_render,
    },
    GoldenSuite {
        name: "stats",
        path: "goldens/stats.json",
        render: crate::servecmd::stats_golden_render,
    },
    GoldenSuite {
        name: "paper",
        path: "goldens/paper_scale.json",
        render: |jobs| golden_render(full_scale_jobs(), jobs),
    },
];

/// The tiny scale every millisecond-fast suite runs at: a 2 MB database
/// under a 24-page buffer, 40 warm-up and 120 measured transactions,
/// with a hard-coded seed per job.
pub(crate) fn tiny(label: &str, seed: u64) -> SimConfig {
    SimConfig {
        workload: workload_from_label(label).expect("known workload label"),
        database_bytes: 2 * 1024 * 1024,
        buffer_pages: 24,
        warmup_txns: 40,
        measured_txns: 120,
        seed,
        ..SimConfig::default()
    }
}

/// The fixed smoke sweep behind `golden`: small, fast configurations
/// chosen to cross the clustering / splitting / replacement / prefetch
/// axes, with hard-coded seeds so the output is a pure function of the
/// engine. Changing this list invalidates the committed golden file —
/// re-bless after any intentional change.
pub fn golden_jobs() -> Vec<SweepJob> {
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
    let preset = |name: &str| FaultConfig::preset(name).expect("known fault preset");
    let mut jobs = Vec::new();
    let mut add = |name: &str, cfg: SimConfig| jobs.push(SweepJob::new(name.to_string(), cfg, 2));
    add(
        "faults-smoke",
        SimConfig {
            clustering: ClusteringPolicy::NoLimit,
            split: SplitPolicy::Linear,
            faults: preset("smoke"),
            ..tiny("med5-10", 2100)
        },
    );
    add(
        "faults-degraded",
        SimConfig {
            clustering: ClusteringPolicy::NoLimit,
            prefetch: PrefetchScope::WithinDatabase,
            faults: preset("degraded"),
            ..tiny("med5-10", 2200)
        },
    );
    add(
        "faults-stress",
        SimConfig {
            clustering: ClusteringPolicy::Adaptive,
            faults: preset("stress"),
            ..tiny("hi10-100", 2300)
        },
    );
    jobs
}

/// Render a report sweep deterministically: one JSON line per
/// replication report (tagged with job label and replication index, in
/// submission order) and a final line with the merged metrics-registry
/// snapshot. Byte-identical at any `--jobs` count.
fn golden_render(jobs: Vec<SweepJob>, threads: usize) -> Result<String, String> {
    let outcome = SweepRunner::new(threads).run(jobs);
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
                report.to_json()
            ));
        }
    }
    out.push_str(&format!(
        "{{\"metrics\":{}}}\n",
        outcome.obs.metrics.to_json()
    ));
    Ok(out)
}

/// One flat JSON line per profiled stack, tagged with the job label.
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
        .with_obs(|_, _| ObsConfig::default().timeline(DEFAULT_TIMELINE_INTERVAL_US))
        .run(timeline_golden_jobs());
    let mut out = String::new();
    for item in &outcome.items {
        item.result
            .as_ref()
            .map_err(|e| format!("timeline sweep: {e}"))?;
        let timeline =
            item.obs.timeline.as_ref().ok_or_else(|| {
                format!("timeline sweep: job {} produced no timeline", item.label)
            })?;
        out.push_str(&format!(
            "{{\"job\":{:?},\"timeline\":{}}}\n",
            item.label,
            timeline.to_json()
        ));
    }
    let merged = outcome
        .obs
        .timeline
        .ok_or("timeline sweep: no merged timeline")?;
    out.push_str(&format!("{{\"merged\":{}}}\n", merged.to_json()));
    Ok(out)
}

/// Leaf phases whose allocation counters the profile golden pins to
/// zero. A stack is pinned when its last `;`-separated segment names
/// one of these, so both `run;buffer_lookup` and the nested
/// `run;placement_score;buffer_lookup` are covered. These are the
/// engine's per-event inner loops — the page-locality fold, placement
/// candidate scoring, the split decision, buffer-pool frame lookup and
/// the event-queue pop — where a stray allocation multiplies across
/// every simulated event of a sweep. (`timeline_sample` itself is
/// deliberately not pinned: each retained sample stores a queue-delay
/// vector by design.)
pub const ZERO_ALLOC_PIN_LEAVES: &[&str] = &[
    "page_locality",
    "placement_score",
    "split_plan",
    "buffer_lookup",
    "event_pop",
];

/// Whether a run of `cfg` must show a `leaf` stack at all: every pinned
/// leaf runs under any configuration except `split_plan`, which only a
/// splitting policy reaches.
pub fn pinned_leaf_expected(leaf: &str, cfg: &SimConfig) -> bool {
    leaf != "split_plan" || cfg.split != SplitPolicy::NoSplit
}

/// The fixed profiled sweep behind `golden --suite profile`: three tiny
/// configurations chosen to exercise every instrumented phase —
/// placement scoring (clustering + splits), prefetch, context-sensitive
/// eviction, WAL append/flush, lock waits and the timeline sampler's
/// page-locality fold. Re-bless after any intentional engine or
/// profiler change.
pub fn profile_golden_jobs() -> Vec<SweepJob> {
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
    let jobs = profile_golden_jobs();
    let outcome = SweepRunner::new(threads)
        .with_obs(|_, _| {
            ObsConfig::default()
                .timeline(DEFAULT_TIMELINE_INTERVAL_US)
                .profile()
        })
        .run(jobs.clone());
    let mut out = String::from("{\"golden_schema\":1,\"suite\":\"profile\"}\n");
    for (item, job) in outcome.items.iter().zip(&jobs) {
        item.result
            .as_ref()
            .map_err(|e| format!("profile sweep: {e}"))?;
        let profile = item
            .obs
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
            if !seen && pinned_leaf_expected(leaf, &job.cfg) {
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

/// `golden` subcommand: render one of [`GOLDEN_SUITES`] and byte-compare
/// it against the committed golden file (`--bless` rewrites the file
/// instead). Any drift — an engine change, a nondeterminism bug, a
/// thread-count dependence — fails the comparison with a unified diff
/// of the first mismatch.
pub fn cmd_golden(args: &Args) -> Result<String, CliError> {
    let name = args.get("suite").unwrap_or(GOLDEN_SUITES[0].name);
    let jobs: usize = args.get_parsed("jobs", 0)?;
    let suite = GOLDEN_SUITES
        .iter()
        .find(|s| s.name == name)
        .ok_or_else(|| {
            let names: Vec<&str> = GOLDEN_SUITES.iter().map(|s| s.name).collect();
            CliError::usage(format!(
                "--suite: expected one of {}, got {name:?}",
                names.join(", ")
            ))
        })?;
    let current = (suite.render)(jobs)?;
    let path = args.get("path").unwrap_or(suite.path);
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
    )
    .into())
}

/// The paper-scale sweep behind `golden --suite paper` and the CI
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
