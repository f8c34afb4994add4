//! The `serve` and `load` subcommands and the chaos and stats golden
//! suites.
//!
//! `serve` boots the multi-client TCP server (oracle or concurrent
//! mode), prints `listening on ADDR` once bound (and `metrics on ADDR`
//! when `--metrics-addr` is set), drains gracefully on SIGTERM/SIGINT
//! or a client SHUTDOWN frame, and prints the final verdict JSON —
//! exiting with the ACID exit code if any acknowledged transaction was
//! not durable. `load` runs the chaos-driven load generator against a
//! running server and prints its summary JSON.

use std::net::TcpStream;
use std::time::Duration;

use crate::args::Args;
use crate::commands::SERVE_MODE_FLAGS;
use crate::error::CliError;
use crate::simulate::config_from_args;
use semcluster::serve::{
    read_frame, run_load, write_frame, ErrorKind, LoadConfig, Request, RequestCounts,
    RequestStamps, Response, ServeConfig, ServeMode, ServeReport, ServeStats, Server, TxnOp,
    TxnRequest,
};
use semcluster_faults::{NetChaosConfig, NetChaosPlan};
use semcluster_obs::{ChromeTraceSink, TraceSink};

mod sig {
    //! Std-only SIGTERM/SIGINT hook: a C `signal(2)` binding flipping
    //! one atomic flag the serve loop polls. No runtime work happens in
    //! the handler itself.
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Set by the handler; polled by `cmd_serve`.
    pub static STOP: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_sig: i32) {
        STOP.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    /// Install the drain-on-signal handlers.
    pub fn install() {
        let handler = on_signal as extern "C" fn(i32) as *const () as usize;
        unsafe {
            signal(SIGTERM, handler);
            signal(SIGINT, handler);
        }
    }

    /// Whether a drain signal has arrived.
    pub fn stopped() -> bool {
        STOP.load(Ordering::SeqCst)
    }
}

/// Build a [`ServeConfig`] from flags.
fn serve_config_from_args(args: &Args) -> Result<ServeConfig, CliError> {
    let mode_name = args.get("mode").unwrap_or("concurrent");
    let mode = match mode_name {
        "concurrent" => ServeMode::Concurrent,
        "oracle" => ServeMode::Oracle(Box::new(config_from_args(args)?)),
        other => {
            return Err(CliError::usage(format!(
                "serve: unknown mode {other:?} (expected concurrent or oracle)"
            )))
        }
    };
    // Say so rather than run with a flag silently dropped.
    let others = SERVE_MODE_FLAGS.iter().filter(|row| row.0 != mode_name);
    for (needs, flags, what) in others {
        if let Some(flag) = flags.iter().find(|f| args.flag(f)) {
            return Err(CliError::usage(format!(
                "serve: --{flag} configures {what}; it needs --mode {needs}"
            )));
        }
    }
    let defaults = ServeConfig::default();
    Ok(ServeConfig {
        mode,
        workers: args.get_parsed("workers", defaults.workers)?,
        queue_cap: args.get_parsed("queue-cap", defaults.queue_cap)?,
        default_deadline_ms: args.get_parsed("deadline-ms", defaults.default_deadline_ms)?,
        max_inflight_per_conn: args.get_parsed("max-inflight", defaults.max_inflight_per_conn)?,
        group_window_us: args.get_parsed("group-window-us", defaults.group_window_us)?,
        objects: args.get_parsed("objects", defaults.objects)?,
        metrics_addr: args.get("metrics-addr").map(str::to_string),
        drain_linger_ms: args.get_parsed("drain-linger-ms", defaults.drain_linger_ms)?,
        // --chrome-trace needs per-request attribution records retained;
        // the cap bounds drain-time memory on long-running servers.
        trace_requests: if args.get("chrome-trace").is_some() {
            args.get_parsed("trace-requests", 100_000usize)?
        } else {
            0
        },
        ..defaults
    })
}

/// `serve` subcommand: bind, announce, drain on signal, then emit the
/// verdict JSON, mapping ACID violations to their typed exit code.
pub fn cmd_serve(args: &Args) -> Result<String, CliError> {
    let cfg = serve_config_from_args(args)?;
    let addr = args.get("addr").unwrap_or("127.0.0.1:0");
    let handle = Server::start(cfg, addr).map_err(|e| CliError::from_serve(&e))?;
    // Announce readiness on stdout immediately (CI polls for this).
    println!("listening on {}", handle.addr());
    if let Some(metrics) = handle.metrics_addr() {
        println!("metrics on {metrics}");
    }
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    sig::install();
    while !handle.shutdown_requested() {
        if sig::stopped() {
            handle.request_shutdown();
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let report = handle.join().map_err(|e| CliError::from_serve(&e))?;
    // The Chrome-trace artifact is written before the ACID check so a
    // failing run still leaves its diagnostics behind.
    if let Some(path) = args.get("chrome-trace") {
        write_serve_chrome_trace(&report, path)?;
    }
    let json = report.to_json();
    if report.acid_violations > 0 {
        // Print the report so the violation is diagnosable, then fail
        // with the dedicated exit code: an ack is a durability promise.
        print!("{json}");
        return Err(CliError::acid(format!(
            "serve: {} acked transaction(s) not durable at drain",
            report.acid_violations
        )));
    }
    Ok(json)
}

/// Write the retained per-request attribution records to a Chrome
/// Trace Event file: each request renders as consecutive `X` slices on
/// the `serve-requests` lane, tiling its service time with zero gaps.
fn write_serve_chrome_trace(report: &ServeReport, path: &str) -> Result<(), CliError> {
    let file = std::fs::File::create(path)
        .map_err(|e| CliError::general(format!("serve: cannot create {path}: {e}")))?;
    let mut sink = ChromeTraceSink::new(std::io::BufWriter::new(file));
    for rec in &report.request_trace {
        sink.emit_serve_request(
            rec.session,
            rec.client_txn,
            rec.start_us,
            &rec.spans.named(),
        );
    }
    sink.flush();
    Ok(())
}

/// Build a [`LoadConfig`] from flags.
fn load_config_from_args(args: &Args) -> Result<LoadConfig, CliError> {
    let defaults = LoadConfig::default();
    let chaos = match args.get("chaos") {
        None => NetChaosConfig::none(),
        Some(name) => NetChaosConfig::preset(name).ok_or_else(|| {
            CliError::usage(format!(
                "load: unknown chaos preset {name:?} (expected {})",
                NetChaosConfig::PRESETS.join(" or ")
            ))
        })?,
    };
    Ok(LoadConfig {
        addr: args
            .get("addr")
            .ok_or_else(|| CliError::usage("load: --addr HOST:PORT is required"))?
            .to_string(),
        connections: args.get_parsed("connections", defaults.connections)?,
        sessions_per_conn: args.get_parsed("sessions", defaults.sessions_per_conn)?,
        txns_per_session: args.get_parsed("txns", defaults.txns_per_session)?,
        ops_per_txn: args.get_parsed("ops", defaults.ops_per_txn)?,
        write_pct: args.get_parsed("write-pct", defaults.write_pct)?,
        objects: args.get_parsed("objects", defaults.objects)?,
        deadline_ms: args.get_parsed("deadline-ms", defaults.deadline_ms)?,
        seed: args.get_parsed("seed", defaults.seed)?,
        chaos,
        pipeline: args.get_parsed("pipeline", defaults.pipeline)?,
        shutdown_after: args.flag("shutdown"),
    })
}

/// `load` subcommand: run the chaos-driven load generator.
pub fn cmd_load(args: &Args) -> Result<String, CliError> {
    let cfg = load_config_from_args(args)?;
    let summary = run_load(&cfg).map_err(|e| CliError::from_serve(&e))?;
    Ok(summary.to_json())
}

/// Render the chaos golden: the full keyed-hash schedule for a grid of
/// (seed, preset) pairs. The plans are pure functions of their inputs —
/// no RNG state, no clocks — so this render is byte-identical at any
/// `--jobs` count and across hosts, which is exactly what the golden
/// pins.
pub fn chaos_golden_render(_jobs: usize) -> Result<String, String> {
    let mut out = String::from("{\"golden_schema\":1,\"suite\":\"chaos\"}\n");
    for preset_name in NetChaosConfig::PRESETS {
        let cfg = NetChaosConfig::preset(preset_name)
            .ok_or_else(|| format!("chaos golden: preset {preset_name:?} vanished"))?;
        for seed in [1989u64, 5417, 88473] {
            let plan = NetChaosPlan::new(seed, cfg);
            out.push_str(&format!(
                "{{\"chaos_plan\":{{\"preset\":{preset_name:?},\"seed\":{seed}}}}}\n"
            ));
            out.push_str(&plan.render_schedule(4, 64));
        }
    }
    Ok(out)
}

/// Render the stats golden. Two sections, both byte-stable and
/// jobs-invariant:
///
/// * `synthetic` — a fixed replay through the public [`ServeStats`] API
///   (stamps injected, no clocks), pinning the full JSON *and*
///   Prometheus renders byte-for-byte;
/// * `oracle-live` — a real oracle-mode server probed over TCP with a
///   scripted HELLO + 8×TXN + PING + STATS conversation, keeping only
///   the wall-clock-free lines of the STATS reply (schema, counters,
///   gauges). Oracle mode serializes every request through one engine
///   thread, so those lines are exact: 8 TXNs in means 8 `txn_ok` out.
pub fn stats_golden_render(_jobs: usize) -> Result<String, String> {
    let mut out = String::from("{\"golden_schema\":1,\"suite\":\"stats\"}\n");

    out.push_str("{\"section\":\"synthetic\"}\n");
    let stats = ServeStats::new();
    stats.conn_opened();
    stats.bump_sessions(4);
    stats.add_requests(
        &RequestCounts::default(),
        &RequestCounts {
            hello: 1,
            txn: 6,
            report: 1,
            stats: 2,
            ping: 3,
            bye: 1,
            shutdown: 0,
        },
    );
    for i in 0..6u64 {
        let t0 = i * 1_000;
        stats.record_request_latency(&RequestStamps {
            submitted_us: t0,
            dequeued_us: t0 + 40 + i,
            locked_us: t0 + 47 + i,
            executed_us: t0 + 247 + 11 * i,
            committed_us: t0 + 547 + 11 * i,
            replied_us: t0 + 559 + 11 * i,
        });
        stats.record_txn_ok();
        if i % 2 == 0 {
            stats.record_commit();
        }
    }
    stats.record_ack();
    stats.record_error(ErrorKind::Overloaded);
    stats.record_error(ErrorKind::DeadlineExceeded);
    stats.record_group_flush(6, 2);
    stats.queue_enter();
    stats.queue_enter();
    stats.queue_leave();
    stats.set_admission_shedding(true);
    let snap = stats.snapshot(777, false);
    out.push_str(&snap.to_json());
    out.push_str("{\"section\":\"prometheus\"}\n");
    out.push_str(&snap.to_prometheus());

    out.push_str("{\"section\":\"oracle-live\"}\n");
    let handle = Server::start(
        ServeConfig {
            mode: ServeMode::Oracle(Box::new(crate::golden::tiny("low3-5", 1989))),
            ..ServeConfig::default()
        },
        "127.0.0.1:0",
    )
    .map_err(|e| format!("stats golden: start server: {e}"))?;
    let probe = stats_probe(handle.addr());
    handle.request_shutdown();
    handle
        .join()
        .map_err(|e| format!("stats golden: drain: {e}"))?;
    let json = probe?;
    for line in json.lines() {
        if line.starts_with("{\"stats_schema\"")
            || line.starts_with("\"counters\":")
            || line.starts_with("\"gauges\":")
        {
            out.push_str(line);
            out.push('\n');
        }
    }
    Ok(out)
}

/// Scripted client conversation behind the `oracle-live` golden
/// section: HELLO(1), eight TXNs, PING, then STATS; returns the STATS
/// reply's JSON body.
fn stats_probe(addr: std::net::SocketAddr) -> Result<String, String> {
    let io = |e: std::io::Error| format!("stats golden: probe I/O: {e}");
    let mut stream = TcpStream::connect(addr).map_err(io)?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(io)?;
    let mut ask = |req: &Request| -> Result<Response, String> {
        write_frame(&mut stream, &req.encode()).map_err(io)?;
        let frame = read_frame(&mut stream)
            .map_err(io)?
            .ok_or("stats golden: server closed mid-probe")?;
        Response::parse(&frame).map_err(|e| format!("stats golden: bad reply: {e}"))
    };
    let session = match ask(&Request::Hello { sessions: 1 })? {
        Response::HelloOk { first_session } => first_session,
        other => return Err(format!("stats golden: expected HelloOk, got {other:?}")),
    };
    for i in 0..8u64 {
        match ask(&Request::Txn(TxnRequest {
            session,
            client_txn: i,
            deadline_ms: 0,
            ops: vec![TxnOp {
                write: true,
                object: i as u32,
            }],
        }))? {
            Response::TxnOk { .. } => {}
            other => return Err(format!("stats golden: expected TxnOk, got {other:?}")),
        }
    }
    match ask(&Request::Ping)? {
        Response::PingOk => {}
        other => return Err(format!("stats golden: expected PingOk, got {other:?}")),
    }
    match ask(&Request::Stats)? {
        Response::StatsOk { json, .. } => Ok(json),
        other => Err(format!("stats golden: expected StatsOk, got {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn chaos_golden_is_jobs_invariant_and_stable() {
        let a = chaos_golden_render(1).unwrap();
        let b = chaos_golden_render(8).unwrap();
        assert_eq!(a, b, "chaos plans must not depend on thread count");
        assert!(a.starts_with("{\"golden_schema\":1,\"suite\":\"chaos\"}\n"));
        // Both presets and all three seeds appear.
        assert!(a.contains("\"preset\":\"none\""));
        assert!(a.contains("\"preset\":\"chaos\""));
        assert!(a.contains("\"seed\":88473"));
    }

    #[test]
    fn load_flags_parse() {
        let cfg = load_config_from_args(&parse(
            "load --addr 127.0.0.1:9 --connections 2 --sessions 10 --txns 3 \
             --chaos chaos --pipeline 4 --seed 7 --shutdown",
        ))
        .unwrap();
        assert_eq!(cfg.connections, 2);
        assert_eq!(cfg.sessions_per_conn, 10);
        assert_eq!(cfg.txns_per_session, 3);
        assert!(cfg.chaos.enabled());
        assert!(cfg.shutdown_after);
        assert!(
            load_config_from_args(&parse("load")).is_err(),
            "--addr required"
        );
        assert!(load_config_from_args(&parse("load --addr x --chaos nope")).is_err());
    }

    #[test]
    fn serve_flags_parse() {
        let cfg = serve_config_from_args(&parse(
            "serve --workers 2 --queue-cap 32 --deadline-ms 250 --group-window-us 50",
        ))
        .unwrap();
        assert!(matches!(cfg.mode, ServeMode::Concurrent));
        assert_eq!(cfg.workers, 2);
        assert_eq!(cfg.queue_cap, 32);
        assert_eq!(cfg.default_deadline_ms, 250);
        assert_eq!(cfg.group_window_us, 50);
        assert_eq!(cfg.metrics_addr, None, "metrics endpoint off by default");
        assert_eq!(cfg.trace_requests, 0, "trace retention off by default");
        assert_eq!(cfg.drain_linger_ms, 0, "prompt drain by default");
        let cfg = serve_config_from_args(&parse("serve")).unwrap();
        assert_eq!(
            cfg.group_window_us, 0,
            "the committer forces at once by default"
        );
        let cfg = serve_config_from_args(&parse("serve --mode oracle --workload med5-10")).unwrap();
        assert!(matches!(cfg.mode, ServeMode::Oracle(_)));
        assert!(serve_config_from_args(&parse("serve --mode nope")).is_err());
        // A flag only the other mode reads is named and refused, exit 2...
        for (line, flag, needs) in [
            (
                "serve --mode oracle --workers 2",
                "--workers",
                "--mode concurrent",
            ),
            (
                "serve --mode oracle --group-window-us 50",
                "--group-window-us",
                "--mode concurrent",
            ),
            (
                "serve --mode oracle --objects 16",
                "--objects",
                "--mode concurrent",
            ),
            ("serve --seed 7", "--seed", "--mode oracle"),
        ] {
            let err = serve_config_from_args(&parse(line)).unwrap_err();
            assert_eq!(err.code, crate::error::EXIT_USAGE, "{line}: {err}");
            assert!(err.contains(flag) && err.contains(needs), "{line}: {err}");
        }
        // ...while the queue bound and the deadline now apply to both.
        let cfg = serve_config_from_args(&parse(
            "serve --mode oracle --queue-cap 2 --deadline-ms 250",
        ))
        .unwrap();
        assert_eq!((cfg.queue_cap, cfg.default_deadline_ms), (2, 250));
        let cfg = serve_config_from_args(&parse(
            "serve --metrics-addr 127.0.0.1:9100 --chrome-trace t.json --drain-linger-ms 2500",
        ))
        .unwrap();
        assert_eq!(cfg.metrics_addr.as_deref(), Some("127.0.0.1:9100"));
        assert_eq!(cfg.drain_linger_ms, 2500);
        assert_eq!(
            cfg.trace_requests, 100_000,
            "--chrome-trace turns on request-trace retention"
        );
    }

    #[test]
    fn stats_golden_synthetic_section_is_jobs_invariant() {
        // The full render boots a server; the unit test pins just the
        // clock-free synthetic section (the integration suite covers
        // the live probe). Both renders must agree byte-for-byte.
        let a = stats_golden_render(1).unwrap();
        let b = stats_golden_render(8).unwrap();
        let synth = |s: &str| {
            s.split("{\"section\":\"oracle-live\"}\n")
                .next()
                .unwrap()
                .to_string()
        };
        assert_eq!(synth(&a), synth(&b), "synthetic section is clock-free");
        assert!(a.starts_with("{\"golden_schema\":1,\"suite\":\"stats\"}\n"));
        assert!(a.contains("{\"section\":\"synthetic\"}\n"));
        assert!(a.contains("\"txn_ok\":6"), "six synthetic successes");
        assert!(a.contains("semcluster_latency_us_count{phase=\"total\"} 6"));
        // The live section kept only the wall-clock-free lines.
        let live = a.split("{\"section\":\"oracle-live\"}\n").nth(1).unwrap();
        assert!(live.contains("\"req.txn\":8"), "live section: {live}");
        assert!(!live.contains("uptime_ms"), "live section: {live}");
    }
}
