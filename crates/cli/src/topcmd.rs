//! The `top` subcommand: a polling terminal view over a live server's
//! STATS opcode.
//!
//! `top` opens one client connection, sends a STATS frame every
//! `--interval-ms`, and renders one line per poll. The server keeps only
//! cumulative books, so every windowed column is differenced here from
//! the previous poll's snapshot (the first poll from zero): throughput
//! over the server's uptime delta, p50/p99 from the delta of the `total`
//! latency histogram, and error/shed rates from the `err.*` counter
//! deltas. Cumulative counters and gauges print as the snapshot carries
//! them. The window reads no clock — its time is the server's
//! `uptime_ms` — so it sits behind the CI determinism purity guard.
//! `--raw` skips the table and prints each snapshot's JSON verbatim:
//! the wall-clock series of every counter, gauge and histogram, which
//! is what scripts should consume.

use std::net::TcpStream;
use std::time::Duration;

use crate::args::Args;
use crate::error::CliError;
use semcluster::serve::{
    read_frame, write_frame, Request, Response, ServeError, COUNTER_NAMES, STATS_SCHEMA,
};
use semcluster_obs::Histogram;

/// Extract a `"key":<integer>` field from a snapshot's JSON text.
fn json_num_field(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The `phase` histogram of the snapshot's `latency_us` section, as
/// [`Histogram::to_json`] renders it (empty when absent).
fn latency_field(json: &str, phase: &str) -> Histogram {
    let mut hist = Histogram::default();
    let pat = format!("\"{phase}\":{{");
    let Some(body) = json
        .find("\"latency_us\":")
        .map(|at| &json[at..])
        .and_then(|section| Some(&section[section.find(&pat)? + pat.len()..]))
    else {
        return hist;
    };
    let body = &body[..body.find('}').unwrap_or(body.len())];
    let field = |key: &str| json_num_field(body, key).unwrap_or(0);
    hist.count = field("count");
    hist.sum_us = field("sum_us");
    hist.max_us = field("max_us");
    if let Some((_, cells)) = body.split_once("\"buckets\":[") {
        let cells = &cells[..cells.find(']').unwrap_or(cells.len())];
        for (cell, n) in hist.buckets.iter_mut().zip(cells.split(',')) {
            *cell = n.parse().unwrap_or(0);
        }
    }
    hist
}

/// The fields `top` extracts from one snapshot. Parsed leniently:
/// a missing field reads as 0 rather than failing the poll loop. The
/// default is the zero snapshot the first poll is windowed from.
#[derive(Default)]
struct TopSample {
    uptime_ms: u64,
    txn_ok: u64,
    /// Every typed-error counter, summed.
    errors: u64,
    /// Admission sheds (`err.overloaded`).
    sheds: u64,
    queue_depth: u64,
    sessions_live: u64,
    draining: u64,
    /// The `total` service-time histogram.
    total: Histogram,
}

/// The windowed columns between two polls.
#[derive(Debug, PartialEq)]
struct TopWindow {
    txn_per_s: f64,
    p50_us: u64,
    p99_us: u64,
    /// Errors per million outcomes (errors + successes) in the window.
    error_ppm: u64,
    /// Sheds per million outcomes in the window.
    shed_ppm: u64,
}

impl TopSample {
    fn parse(json: &str) -> TopSample {
        // Counter and gauge names are unique across the snapshot, and
        // the latency histograms are read by phase, so flat key lookups
        // are unambiguous.
        let field = |key: &str| json_num_field(json, key).unwrap_or(0);
        TopSample {
            uptime_ms: field("uptime_ms"),
            txn_ok: field("txn_ok"),
            errors: COUNTER_NAMES
                .iter()
                .filter(|name| name.starts_with("err."))
                .map(|name| field(name))
                .sum(),
            sheds: field("err.overloaded"),
            queue_depth: field("queue_depth"),
            sessions_live: field("sessions_live"),
            draining: field("draining"),
            total: latency_field(json, "total"),
        }
    }

    /// The window from `prev` to this sample. Throughput divides by the
    /// *server's* uptime delta, so a slow poll loop cannot inflate it.
    fn since(&self, prev: &TopSample) -> TopWindow {
        let secs = self.uptime_ms.saturating_sub(prev.uptime_ms) as f64 / 1e3;
        let requests = self.txn_ok.saturating_sub(prev.txn_ok);
        let errors = self.errors.saturating_sub(prev.errors);
        let sheds = self.sheds.saturating_sub(prev.sheds);
        let latency = self.total.since(&prev.total);
        let ppm = |n: u64| {
            n.saturating_mul(1_000_000)
                .checked_div(requests + errors)
                .unwrap_or(0)
        };
        TopWindow {
            txn_per_s: if secs > 0.0 {
                requests as f64 / secs
            } else {
                0.0
            },
            p50_us: latency.quantile_bound(0.50),
            p99_us: latency.quantile_bound(0.99),
            error_ppm: ppm(errors),
            shed_ppm: ppm(sheds),
        }
    }
}

/// One poll: STATS out, StatsOk in.
fn poll(stream: &mut TcpStream) -> Result<String, CliError> {
    write_frame(stream, &Request::Stats.encode())
        .map_err(|e| net_err("sending STATS", &e.to_string()))?;
    let frame = read_frame(stream)
        .map_err(|e| net_err("awaiting StatsOk", &e.to_string()))?
        .ok_or_else(|| net_err("awaiting StatsOk", "server closed the connection"))?;
    match Response::parse(&frame) {
        Ok(Response::StatsOk { schema, json }) => {
            if schema != STATS_SCHEMA {
                return Err(CliError::bad_schema(format!(
                    "top: server speaks stats schema {schema}, this build reads {STATS_SCHEMA}"
                )));
            }
            Ok(json)
        }
        Ok(other) => Err(CliError::from_serve(&ServeError::Internal(format!(
            "top: expected StatsOk, got {other:?}"
        )))),
        Err(e) => Err(CliError::from_serve(&ServeError::Protocol(e))),
    }
}

fn net_err(context: &str, source: &str) -> CliError {
    CliError::from_serve(&ServeError::Net {
        context: context.to_string(),
        source: source.to_string(),
    })
}

/// `top` subcommand entry point. Lines stream to stdout as they are
/// sampled (this is a live view); the returned string is just the
/// closing summary.
pub fn cmd_top(args: &Args) -> Result<String, CliError> {
    let addr = args
        .get("addr")
        .ok_or_else(|| CliError::usage("top: --addr HOST:PORT is required"))?;
    let interval_ms: u64 = args.get_parsed("interval-ms", 1000u64)?;
    let count: u64 = args.get_parsed("count", 0u64)?;
    let raw = args.flag("raw");
    let mut stream = TcpStream::connect(addr).map_err(|e| net_err("connecting", &e.to_string()))?;
    stream
        .set_read_timeout(Some(Duration::from_millis(interval_ms.max(1_000) + 30_000)))
        .map_err(|e| net_err("configuring socket", &e.to_string()))?;
    use std::io::Write as _;
    if !raw {
        println!(
            "{:>10} {:>8} {:>10} {:>8} {:>6} {:>6} {:>9} {:>9} {:>8} {:>8}  state",
            "uptime_ms",
            "txn/s",
            "txn_ok",
            "errors",
            "queue",
            "sess",
            "p50_us",
            "p99_us",
            "err_ppm",
            "shed_ppm"
        );
    }
    let mut prev = TopSample::default();
    let mut ticks = 0u64;
    loop {
        let json = poll(&mut stream)?;
        if raw {
            print!("{json}");
        } else {
            let s = TopSample::parse(&json);
            let w = s.since(&prev);
            println!(
                "{:>10} {:>8.1} {:>10} {:>8} {:>6} {:>6} {:>9} {:>9} {:>8} {:>8}  {}",
                s.uptime_ms,
                w.txn_per_s,
                s.txn_ok,
                s.errors,
                s.queue_depth,
                s.sessions_live,
                w.p50_us,
                w.p99_us,
                w.error_ppm,
                w.shed_ppm,
                if s.draining == 1 {
                    "draining"
                } else {
                    "serving"
                }
            );
            prev = s;
        }
        std::io::stdout().flush().ok();
        ticks += 1;
        if count > 0 && ticks >= count {
            break;
        }
        std::thread::sleep(Duration::from_millis(interval_ms));
    }
    // Best-effort polite goodbye; the view is already complete.
    if write_frame(&mut stream, &Request::Bye.encode()).is_ok() {
        let _ = read_frame(&mut stream);
    }
    Ok(format!("top: {ticks} sample(s) from {addr}\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use semcluster::serve::{ErrorKind, RequestStamps, ServeStats, StatsSnapshot};

    #[test]
    fn sample_parses_a_snapshot_render() {
        let json = "{\"stats_schema\":2,\n\
                    \"uptime_ms\":480,\n\
                    \"counters\":{\"req.txn\":9,\"err.overloaded\":2,\"err.deadline\":1,\
                    \"txn_ok\":6,\"acked\":4},\n\
                    \"gauges\":{\"queue_depth\":3,\"sessions_live\":16,\"draining\":1},\n\
                    \"latency_us\":{\"total\":{\"count\":6,\"sum_us\":900,\"max_us\":200,\
                    \"buckets\":[0,0,0,0,0,0,0,4,2]},\
                    \"admission_wait\":{\"count\":1,\"sum_us\":7,\"max_us\":7,\
                    \"buckets\":[0,0,0,1]}}}\n";
        let s = TopSample::parse(json);
        assert_eq!(s.uptime_ms, 480);
        assert_eq!(s.txn_ok, 6);
        assert_eq!(s.errors, 3, "error kinds summed");
        assert_eq!(s.sheds, 2);
        assert_eq!(s.queue_depth, 3);
        assert_eq!(s.sessions_live, 16);
        assert_eq!(s.draining, 1);
        let mut total = Histogram::default();
        total.buckets[7] = 4;
        total.buckets[8] = 2;
        (total.count, total.sum_us, total.max_us) = (6, 900, 200);
        assert_eq!(s.total, total, "the total phase, not the next one");
    }

    fn stamp(total_us: u64) -> RequestStamps {
        RequestStamps {
            submitted_us: 0,
            dequeued_us: 0,
            locked_us: 0,
            executed_us: total_us,
            committed_us: total_us,
            replied_us: total_us,
        }
    }

    /// The window between two polls, computed from the snapshots
    /// themselves rather than from their renders.
    fn direct_window(now: &StatsSnapshot, prev: &StatsSnapshot) -> TopWindow {
        let delta = |name: &str| now.counter(name) - prev.counter(name);
        let errors: u64 = COUNTER_NAMES
            .iter()
            .filter(|name| name.starts_with("err."))
            .map(|name| delta(name))
            .sum();
        let outcomes = delta("txn_ok") + errors;
        let total = |snap: &StatsSnapshot| snap.latency("total").cloned().unwrap();
        let latency = total(now).since(&total(prev));
        TopWindow {
            txn_per_s: delta("txn_ok") as f64 / ((now.uptime_ms - prev.uptime_ms) as f64 / 1e3),
            p50_us: latency.quantile_bound(0.50),
            p99_us: latency.quantile_bound(0.99),
            error_ppm: errors * 1_000_000 / outcomes,
            shed_ppm: delta("err.overloaded") * 1_000_000 / outcomes,
        }
    }

    #[test]
    fn the_window_is_the_difference_of_two_stats_snapshots() {
        // A replay through the public registry, stamps injected, polled
        // twice. Poll 1: three successes at 100 µs, a shed and a
        // deadline miss. Poll 2: two successes at 5 ms and a shed — the
        // 100 µs bucket gains nothing, so it empties in the window.
        let stats = ServeStats::new();
        for _ in 0..3 {
            stats.record_txn_ok();
            stats.record_request_latency(&stamp(100));
        }
        stats.record_error(ErrorKind::Overloaded);
        stats.record_error(ErrorKind::DeadlineExceeded);
        let first = stats.snapshot(500, false);
        for _ in 0..2 {
            stats.record_txn_ok();
            stats.record_request_latency(&stamp(5_000));
        }
        stats.record_error(ErrorKind::Overloaded);
        let second = stats.snapshot(1_500, false);
        let [a, b] = [&first, &second].map(|snap| TopSample::parse(&snap.to_json()));

        let zero = ServeStats::new().snapshot(0, false);
        let opening = a.since(&TopSample::default());
        assert_eq!(
            opening,
            direct_window(&first, &zero),
            "first poll from zero"
        );
        assert_eq!((opening.p50_us, opening.p99_us), (100, 100));
        assert_eq!((opening.error_ppm, opening.shed_ppm), (400_000, 200_000));
        assert_eq!(opening.txn_per_s, 6.0);

        let window = b.since(&a);
        assert_eq!(window, direct_window(&second, &first));
        assert_eq!(
            (window.p50_us, window.p99_us),
            (5_000, 5_000),
            "the emptied bucket is out of the window"
        );
        assert_eq!((window.error_ppm, window.shed_ppm), (333_333, 333_333));
        assert_eq!(window.txn_per_s, 2.0);
    }

    #[test]
    fn top_requires_an_addr() {
        let args = Args::parse(["top"].into_iter().map(String::from)).unwrap();
        assert!(cmd_top(&args).is_err());
    }
}
