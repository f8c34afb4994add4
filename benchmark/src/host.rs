//! What the benchmark reads from the host: CPU time and peak memory of
//! this process, core count, and the identity lines of the run header.

use std::path::PathBuf;
use std::process::Command;

/// Client threads (= connections) the serve workloads drive. Fixed so a
/// result names its load, and equal to the cores of the box the bounds
/// were measured on.
pub const CLIENT_THREADS: usize = 2;
/// Executor workers the served workloads configure.
pub const SERVER_WORKERS: usize = 2;

/// User + system CPU consumed by this process (all threads, including
/// those already joined), in milliseconds. `/proc/self/stat` counts in
/// USER_HZ ticks, which Linux fixes at 100 per second for userspace.
pub fn process_cpu_ms() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the line; the state after
    // the parenthesis is field 3, so they sit at indices 11 and 12.
    let ticks: u64 = [11, 12]
        .iter()
        .filter_map(|&i| fields.get(i).and_then(|f| f.parse::<u64>().ok()))
        .sum();
    ticks * 10
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The benchmark's own directory: where `run.sh` says it is, else where
/// the crate was built from (`cargo test`, a bare `cargo run`).
pub fn bench_dir() -> PathBuf {
    std::env::var_os("SEMCLUSTER_BENCH_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// Where traces, result files and scratch stores go (gitignored).
pub fn out_dir() -> PathBuf {
    bench_dir().join("out")
}

fn first_line_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The run header: everything a reader needs to judge whether two
/// result sets are comparable.
pub fn header(seed: u64, seconds: f64) -> String {
    let dir = bench_dir();
    let dir = dir.to_string_lossy();
    format!(
        "nproc={} client_threads={CLIENT_THREADS} server_workers={SERVER_WORKERS} seed={seed} \
         seconds={seconds} commit={} rustc=\"{}\"",
        nproc(),
        first_line_of("git", &["-C", &dir, "rev-parse", "HEAD"]),
        first_line_of("rustc", &["-V"]),
    )
}

/// The load generator needs a core per client thread to keep its own
/// scheduling out of the latencies it reports.
pub fn check_cores() -> Result<(), String> {
    if CLIENT_THREADS > nproc() {
        return Err(format!(
            "refusing to run: {CLIENT_THREADS} client threads on {} core(s)",
            nproc()
        ));
    }
    Ok(())
}
