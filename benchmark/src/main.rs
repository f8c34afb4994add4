//! The repository's wall-clock benchmark. Three ways in:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one workload, one
//!   result line (the contract `BENCHMARK.json` declares);
//! * no `--workload` — the whole ledger: every workload timed and
//!   traced, each in its own child process;
//! * `--check-agree A.json B.json` — hold two ledgers against the bounds.
//!
//! Only public library API is called, so the load generator is the same
//! code on both sides of any later comparison.

mod client;
mod engine;
mod host;
mod json;
mod ledger;
mod metrics;
mod probes;
mod serve;
#[cfg(test)]
mod smoke;
mod stats;
mod trace;
mod workloads;

use metrics::RunResult;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Kind, RunArgs, Workload};

/// Registered exactly as `semclusterctl` does, so the profiler's
/// allocation columns are live and the allocator is the same one.
#[global_allocator]
static ALLOC: semcluster_obs::CountingAlloc = semcluster_obs::CountingAlloc;

const DEFAULT_SEED: u64 = 1989;
const DEFAULT_SECONDS: f64 = 8.0;

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    check_agree: Option<(PathBuf, PathBuf)>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
        check_agree: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &String| format!("{flag}: bad value {v:?}");
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.clone()),
            "--seed" => cli.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => cli.seconds = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => cli.out = Some(PathBuf::from(value()?)),
            "--check-agree" => {
                cli.check_agree = Some((PathBuf::from(value()?), PathBuf::from(value()?)))
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(cli.seconds > 0.0 && cli.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(cli)
}

/// One run of one workload: timed (`trace` off) or traced.
fn measure(w: &Workload, args: &RunArgs, trace: bool) -> Result<RunResult, String> {
    match (&w.kind, trace) {
        (Kind::Engine(spec), false) => engine::run_timed(w, spec, args),
        (Kind::Engine(spec), true) => engine::run_traced(w, spec, args),
        (Kind::Serve(spec), false) => serve::run_timed(spec, args),
        (Kind::Serve(spec), true) => serve::run_traced(w, spec, args),
    }
}

fn run_workload(cli: &Cli, name: &str) -> Result<bool, String> {
    let w = workloads::find(name).ok_or_else(|| {
        let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; one of {}", names.join(", "))
    })?;
    let args = RunArgs {
        seed: cli.seed,
        seconds: cli.seconds,
        scale: 1.0,
    };
    eprintln!(
        "{} workload={name} trace={}",
        host::header(cli.seed, cli.seconds),
        cli.trace
    );
    let result = measure(w, &args, cli.trace)?;
    for problem in &result.problems {
        eprintln!("check failed: {problem}");
    }
    println!("{}", result.to_json_line());
    Ok(result.correct)
}

fn run(cli: &Cli) -> Result<bool, String> {
    if let Some((a, b)) = &cli.check_agree {
        let declared = host::bench_dir().join("..").join("BENCHMARK.json");
        return ledger::check_agree(&declared, a, b);
    }
    host::check_cores()?;
    match &cli.workload {
        Some(name) => run_workload(cli, name),
        None => {
            let default_out = host::out_dir().join(format!("results-{}.json", cli.seed));
            ledger::run_all(
                cli.seed,
                cli.seconds,
                cli.out.as_ref().unwrap_or(&default_out),
            )
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_cli(&args).and_then(|cli| run(&cli)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("semcluster-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
