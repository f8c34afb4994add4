//! The `top` subcommand: a polling terminal view over a live server's
//! STATS opcode.
//!
//! `top` opens one client connection, sends a STATS frame every
//! `--interval-ms`, and renders a one-line-per-tick view of the
//! server's live telemetry: cumulative progress counters, instantaneous
//! gauges, and the server-maintained rolling SLO window (p50/p99,
//! error rate). Throughput is differenced client-side from consecutive
//! cumulative snapshots; everything else is reported exactly as the
//! server snapshot carries it. `--raw` skips the table and prints each
//! snapshot's JSON verbatim, which is what scripts should consume.

use std::net::TcpStream;
use std::time::Duration;

use crate::args::Args;
use crate::error::CliError;
use semcluster::serve::{
    read_frame, write_frame, Request, Response, ServeError, COUNTER_NAMES, STATS_SCHEMA,
};

/// Extract a `"key":<number>` field from a snapshot's JSON text.
fn json_num_field(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The fields `top` extracts from one snapshot. Parsed leniently:
/// a missing field renders as 0 rather than failing the poll loop.
struct TopSample {
    uptime_ms: u64,
    txn_ok: u64,
    errors: u64,
    queue_depth: u64,
    sessions_live: u64,
    draining: u64,
    p50_us: u64,
    p99_us: u64,
    error_ppm: u64,
    shed_ppm: u64,
}

impl TopSample {
    fn parse(json: &str) -> TopSample {
        let field = |key: &str| json_num_field(json, key).unwrap_or(0.0) as u64;
        // The SLO section repeats no counter/gauge names, and the
        // latency histograms carry no quantile fields, so flat key
        // lookups over the whole snapshot are unambiguous.
        TopSample {
            uptime_ms: field("uptime_ms"),
            txn_ok: field("txn_ok"),
            // Every typed-error counter, as the SLO tracker sums them.
            errors: COUNTER_NAMES
                .iter()
                .filter(|name| name.starts_with("err."))
                .map(|name| field(name))
                .sum(),
            queue_depth: field("queue_depth"),
            sessions_live: field("sessions_live"),
            draining: field("draining"),
            p50_us: field("p50_us"),
            p99_us: field("p99_us"),
            error_ppm: field("error_ppm"),
            shed_ppm: field("shed_ppm"),
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
    let mut prev: Option<TopSample> = None;
    let mut ticks = 0u64;
    loop {
        let json = poll(&mut stream)?;
        if raw {
            print!("{json}");
        } else {
            let s = TopSample::parse(&json);
            // Throughput differences consecutive cumulative snapshots
            // over the *server's* uptime delta, so a slow poll loop
            // cannot inflate the rate.
            let rate = match &prev {
                Some(p) if s.uptime_ms > p.uptime_ms => {
                    (s.txn_ok.saturating_sub(p.txn_ok)) as f64
                        / ((s.uptime_ms - p.uptime_ms) as f64 / 1e3)
                }
                _ => 0.0,
            };
            println!(
                "{:>10} {:>8.1} {:>10} {:>8} {:>6} {:>6} {:>9} {:>9} {:>8} {:>8}  {}",
                s.uptime_ms,
                rate,
                s.txn_ok,
                s.errors,
                s.queue_depth,
                s.sessions_live,
                s.p50_us,
                s.p99_us,
                s.error_ppm,
                s.shed_ppm,
                if s.draining == 1 {
                    "draining"
                } else {
                    "serving"
                }
            );
            prev = Some(s);
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

    #[test]
    fn sample_parses_a_snapshot_render() {
        let json = "{\"stats_schema\":1,\n\
                    \"uptime_ms\":480,\n\
                    \"counters\":{\"req.txn\":9,\"err.overloaded\":2,\"err.deadline\":1,\
                    \"txn_ok\":6,\"acked\":4},\n\
                    \"gauges\":{\"queue_depth\":3,\"sessions_live\":16,\"draining\":1},\n\
                    \"latency_us\":{},\n\
                    \"slo\":{\"window_ticks\":5,\"requests\":6,\"errors\":3,\"sheds\":2,\
                    \"p50_us\":120,\"p99_us\":900,\"error_ppm\":333333,\"shed_ppm\":222222}}\n";
        let s = TopSample::parse(json);
        assert_eq!(s.uptime_ms, 480);
        assert_eq!(s.txn_ok, 6);
        assert_eq!(s.errors, 3, "error kinds summed");
        assert_eq!(s.queue_depth, 3);
        assert_eq!(s.sessions_live, 16);
        assert_eq!(s.draining, 1);
        assert_eq!(s.p50_us, 120);
        assert_eq!(s.p99_us, 900);
        assert_eq!(s.error_ppm, 333_333);
        assert_eq!(s.shed_ppm, 222_222);
    }

    #[test]
    fn top_requires_an_addr() {
        let args = Args::parse(["top"].into_iter().map(String::from)).unwrap();
        assert!(cmd_top(&args).is_err());
    }
}
