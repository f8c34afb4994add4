//! The subcommand table and its dispatcher.

use crate::args::Args;
use crate::error::CliError;
use crate::golden::cmd_golden;
use crate::servecmd::{cmd_load, cmd_serve};
use crate::simulate::{cmd_explain, cmd_explain_placement, cmd_simulate};
use crate::tools::{cmd_crash_matrix, cmd_inspect, cmd_reorg, cmd_trace};
use crate::topcmd::cmd_top;
use crate::usage::USAGE;

/// One subcommand: its name, every `--flag` it reads (and so accepts),
/// and its entry point.
pub struct Command {
    /// The subcommand word.
    pub name: &'static str,
    /// The flags it accepts, without the leading `--`.
    pub flags: &'static [&'static str],
    /// Entry point; stdout text on success.
    pub run: fn(&Args) -> Result<String, CliError>,
}

/// The flags [`crate::simulate::config_from_args`] reads (the `CONFIG`
/// block of [`USAGE`]), followed by a subcommand's own.
macro_rules! config_flags_and {
    ($($own:literal),* $(,)?) => {
        &[
            "preset", "workload", "clustering", "replacement", "prefetch", "split", "faults",
            "buffer-pages", "txns", "seed", "paper-scale", $($own),*
        ]
    };
}

/// The flags that build a `SimConfig`.
pub const CONFIG_FLAGS: &[&str] = config_flags_and![];

/// The `serve` flags only one `--mode` reads — `(the mode, its flags,
/// what they configure)` — so the other mode can refuse them instead of
/// dropping them. Oracle mode is one worker over one engine: no worker
/// bank, no commit window, no object array.
pub const SERVE_MODE_FLAGS: &[(&str, &[&str], &str)] = &[
    ("oracle", CONFIG_FLAGS, "the simulator"),
    (
        "concurrent",
        &["workers", "group-window-us", "objects"],
        "the shared core",
    ),
];

/// Every subcommand, in [`USAGE`] order.
pub const COMMANDS: &[Command] = &[
    Command {
        name: "simulate",
        flags: config_flags_and![
            "reps",
            "jobs",
            "json",
            "backend",
            "data-dir",
            "trace",
            "chrome-trace",
            "timeline",
            "timeline-interval-us",
            "metrics",
            "profile",
            "folded",
            "folded-metric",
        ],
        run: cmd_simulate,
    },
    Command {
        name: "explain",
        flags: config_flags_and!["json"],
        run: cmd_explain,
    },
    Command {
        name: "explain-placement",
        flags: config_flags_and!["last", "json"],
        run: cmd_explain_placement,
    },
    Command {
        name: "trace",
        flags: &["invocations", "seed"],
        run: cmd_trace,
    },
    Command {
        name: "inspect",
        flags: &["workload", "mbytes", "seed"],
        run: cmd_inspect,
    },
    Command {
        name: "reorg",
        flags: &["modules", "seed"],
        run: cmd_reorg,
    },
    Command {
        name: "golden",
        flags: &["bless", "suite", "path", "jobs"],
        run: cmd_golden,
    },
    Command {
        name: "serve",
        flags: config_flags_and![
            "addr",
            "mode",
            "workers",
            "queue-cap",
            "deadline-ms",
            "max-inflight",
            "group-window-us",
            "objects",
            "metrics-addr",
            "chrome-trace",
            "trace-requests",
            "drain-linger-ms",
        ],
        run: cmd_serve,
    },
    Command {
        name: "load",
        flags: &[
            "addr",
            "connections",
            "sessions",
            "txns",
            "ops",
            "write-pct",
            "objects",
            "deadline-ms",
            "seed",
            "chaos",
            "pipeline",
            "shutdown",
        ],
        run: cmd_load,
    },
    Command {
        name: "top",
        flags: &["addr", "interval-ms", "count", "raw"],
        run: cmd_top,
    },
    Command {
        name: "crash-matrix",
        flags: &["preset", "samples", "seed", "scratch-dir", "jobs", "json"],
        run: cmd_crash_matrix,
    },
    Command {
        name: "help",
        flags: &[],
        run: |_| Ok(USAGE.to_string()),
    },
];

/// Dispatch a parsed command line through [`COMMANDS`]. An unknown
/// subcommand, a flag the subcommand's row does not list, or a stray
/// positional argument is a usage error (exit 2) raised before anything
/// runs. Other errors carry their own exit code: `1` for ordinary
/// failures, `4` for an unknown stats schema, `5` when a network
/// operation fails, `6` when a peer violates the wire protocol, `7`
/// when the serve-path ACID verdict finds acked transactions that did
/// not survive recovery.
pub fn dispatch(args: &Args) -> Result<String, CliError> {
    let name = args.command.as_deref().unwrap_or("help");
    let command = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| CliError::usage(format!("unknown command {name:?}\n\n{USAGE}")))?;
    if let Some(flag) = args.keys().find(|k| !command.flags.contains(k)) {
        return Err(CliError::usage(format!(
            "{name}: unknown flag --{flag} (`semclusterctl help` lists what {name} accepts)"
        )));
    }
    if let Some(stray) = args.positional.first() {
        return Err(CliError::usage(format!(
            "{name}: unexpected argument {stray:?}"
        )));
    }
    (command.run)(args)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::EXIT_USAGE;
    use crate::simulate::{
        config_from_args, parse_clustering, parse_prefetch, parse_replacement, parse_split,
    };
    use semcluster::SimConfig;
    use semcluster_buffer::{PrefetchScope, ReplacementPolicy};
    use semcluster_clustering::{ClusteringPolicy, SplitPolicy};

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
        assert_eq!(dispatch(&parse("frobnicate")).unwrap_err().code, EXIT_USAGE);
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
    fn instrumented_simulate_rejects_reps() {
        // Each of these runs one replication: asking for more is a usage
        // error, not a silently shorter run.
        for flags in [
            "--metrics json",
            "--trace t.jsonl",
            "--chrome-trace t.json",
            "--timeline t.json",
            "--profile",
            "--backend file",
        ] {
            let line = format!("simulate --preset low3-5 --reps 5 {flags}");
            let err = dispatch(&parse(&line)).unwrap_err();
            assert_eq!(err.code, EXIT_USAGE, "{line}: {err}");
            assert!(err.contains("single replication"), "{line}: {err}");
        }
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
            assert!(line.contains("\"ev\":\"placement\""));
            assert!(line.contains("\"candidates\":["));
            assert!(line.contains("\"search_ios\":"));
        }
        assert!(dispatch(&parse("explain-placement --last 0")).is_err());

        // Retention is bounded and keeps the *last* N: three records are
        // the tail of what a large `--last` keeps.
        let json = |last: usize| {
            dispatch(&parse(&format!(
                "explain-placement --preset med5-10 --clustering nolimit --split linear \
                 --txns 80 --buffer-pages 16 --last {last} --json"
            )))
            .unwrap()
        };
        let all = json(100_000);
        let all: Vec<&str> = all.lines().collect();
        assert!(all.len() > 3);
        assert_eq!(json(3).lines().collect::<Vec<_>>(), all[all.len() - 3..]);
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

    /// `reorg` at its defaults prints the static layout the engine's
    /// structure-order load (`semcluster::static_layout`) gives a
    /// stride-scattered 20-module database.
    #[test]
    fn reorg_output_is_pinned() {
        let out = dispatch(&parse("reorg --modules 20 --seed 7")).unwrap();
        assert_eq!(
            &*out,
            "reorganised 1905 objects onto 155 pages\n\
             broken arc weight: 7983 → 5800 (27% repaired)\n"
        );
    }

    /// `inspect` builds a database of the shape the engine builds for the
    /// label and size (`StructureDensity::database_spec`: sized for a 0.2
    /// version probability and built with it, not with
    /// `SyntheticDbSpec`'s default), under `--seed` itself rather than the
    /// spec seed the engine derives from its run seed.
    #[test]
    fn inspect_output_is_pinned() {
        let out = dispatch(&parse("inspect --mbytes 8 --workload med5-10")).unwrap();
        assert_eq!(
            &*out,
            "property                                   value\n\
             ---------------------------------------------------------\n\
             objects                                    25498\n\
             configuration edges                        21312\n\
             version edges                              4118\n\
             correspondence edges                       7785\n\
             inheritance edges                          4118\n\
             pages (scattered / clustered)              2077 / 2144\n\
             broken arc weight (scattered / clustered)  107656 / 98978\n\
             layout improvement                         8 %\n"
        );
    }

    /// The `--flag` tokens of `name`'s synopsis block in [`USAGE`], with
    /// `CONFIG` standing for the tokens of the `CONFIG:` block.
    fn synopsis_flags(name: &str) -> Vec<String> {
        let block = |start: &str| -> String {
            USAGE
                .lines()
                .skip_while(|l| l.trim_end() != start && !l.starts_with(&format!("{start} ")))
                .enumerate()
                .take_while(|(i, l)| *i == 0 || l.starts_with("      "))
                .map(|(_, l)| format!("{l}\n"))
                .collect()
        };
        let mut text = block(&format!("  semclusterctl {name}"));
        assert!(!text.is_empty(), "{name} has no synopsis in USAGE");
        if text.contains("CONFIG") {
            text.push_str(&block("CONFIG:"));
        }
        let mut flags = Vec::new();
        for piece in text.split("--").skip(1) {
            let flag: String = piece
                .chars()
                .take_while(|c| c.is_ascii_lowercase() || *c == '-')
                .collect();
            flags.push(flag);
        }
        flags.sort();
        flags
    }

    #[test]
    fn every_flags_row_is_its_usage_synopsis() {
        for command in COMMANDS {
            let mut row: Vec<String> = command.flags.iter().map(|f| f.to_string()).collect();
            row.sort();
            assert_eq!(row, synopsis_flags(command.name), "{}", command.name);
        }
        assert_eq!(COMMANDS.len(), 12, "11 subcommands and help");
    }

    #[test]
    fn every_command_rejects_an_undeclared_flag_before_running() {
        for command in COMMANDS {
            let err = dispatch(&parse(&format!("{} --no-such-flag 1", command.name))).unwrap_err();
            assert_eq!(err.code, EXIT_USAGE, "{}", command.name);
            assert!(err.contains("--no-such-flag"), "{err}");
            assert!(err.contains(command.name), "{err}");
        }
        // The near-misses that used to run the default configuration,
        // and the serve flags whose server-side window is gone.
        for line in [
            "simulate --buffer-page 50",
            "simulate --mbytes 0",
            "serve --slo-window 30",
            "serve --timeline t.json",
            "serve --timeline-interval-ms 100",
        ] {
            assert_eq!(dispatch(&parse(line)).unwrap_err().code, EXIT_USAGE);
        }
        let err = dispatch(&parse("reorg extra")).unwrap_err();
        assert_eq!(err.code, EXIT_USAGE);
    }

    #[test]
    fn flag_values_outside_their_domain_exit_2_not_panic() {
        for line in [
            "simulate --buffer-pages 0",
            "explain --buffer-pages 0",
            "serve --mode oracle --buffer-pages 0",
            "simulate --buffer-pages many",
            "simulate --reps 0",
            "golden --suite nope",
            "serve --buffer-pages 50",
        ] {
            let err = dispatch(&parse(line)).unwrap_err();
            assert_eq!(err.code, EXIT_USAGE, "{line}: {err}");
            assert_eq!(
                err.lines().count(),
                1,
                "{line}: one-line message, got {err}"
            );
        }
    }
}
