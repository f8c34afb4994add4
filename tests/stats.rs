//! Integration tests for the live-telemetry layer: server-side
//! attribution's zero-residual invariant over a real concurrent load,
//! the STATS opcode round-trip over TCP (including while draining),
//! Prometheus exposition served over HTTP that reconciles exactly with
//! client-side counts, and jobs-invariance of the stats golden.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::time::Duration;

use semcluster::serve::{
    read_frame, run_load, write_frame, LoadConfig, Request, Response, ServeConfig, Server,
    SPAN_NAMES, STATS_SCHEMA,
};
use semcluster_cli::{dispatch, Args};
use semcluster_faults::NetChaosConfig;

fn send(stream: &mut TcpStream, req: &Request) {
    write_frame(stream, &req.encode()).expect("write frame");
}

fn recv(stream: &mut TcpStream) -> Response {
    let frame = read_frame(stream)
        .expect("read frame")
        .expect("peer closed mid-conversation");
    Response::parse(&frame).expect("parse response")
}

fn connect(addr: std::net::SocketAddr, sessions: u32) -> (TcpStream, u32) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    send(&mut stream, &Request::Hello { sessions });
    match recv(&mut stream) {
        Response::HelloOk { first_session } => (stream, first_session),
        other => panic!("expected HelloOk, got {other:?}"),
    }
}

/// Minimal std-only HTTP GET against the metrics endpoint; returns the
/// response body.
fn scrape(addr: std::net::SocketAddr) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect metrics");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
        .expect("send request");
    let mut text = String::new();
    stream.read_to_string(&mut text).expect("read response");
    assert!(
        text.starts_with("HTTP/1.1 200 OK\r\n"),
        "unexpected status: {}",
        text.lines().next().unwrap_or("")
    );
    let (head, body) = text
        .split_once("\r\n\r\n")
        .expect("response has a header/body split");
    assert!(
        head.contains("Content-Type: text/plain; version=0.0.4"),
        "exposition content type missing: {head}"
    );
    body.to_string()
}

/// `metric_value("semcluster_txn_ok_total", body)` — the sample value
/// for an exact metric name (including any label set).
fn metric_value(name: &str, body: &str) -> u64 {
    body.lines()
        .find_map(|l| l.strip_prefix(name).and_then(|rest| rest.strip_prefix(' ')))
        .unwrap_or_else(|| panic!("metric {name} not found"))
        .parse()
        .unwrap_or_else(|_| panic!("metric {name} is not an integer"))
}

#[test]
fn server_side_attribution_sums_exactly_to_service_time() {
    let handle = Server::start(ServeConfig::default(), "127.0.0.1:0").expect("start server");
    let summary = run_load(&LoadConfig {
        addr: handle.addr().to_string(),
        connections: 4,
        sessions_per_conn: 16,
        txns_per_session: 4,
        pipeline: 8,
        seed: 42,
        chaos: NetChaosConfig::none(),
        ..LoadConfig::default()
    })
    .expect("run load");
    assert!(summary.acked > 0);
    handle.request_shutdown();
    let report = handle.join().expect("drain");
    assert_eq!(report.acid_violations, 0);

    // The drain-time snapshot is exact (all recorder threads joined):
    // the five span histograms must partition the total histogram with
    // ZERO residual, in both observation count and total microseconds.
    let total = report.stats.latency("total").expect("total histogram");
    assert!(total.count > 0, "load recorded no request latencies");
    let mut span_sum_us = 0u64;
    for phase in SPAN_NAMES.iter().filter(|p| **p != "total") {
        let h = report.stats.latency(phase).expect("span histogram");
        assert_eq!(
            h.count, total.count,
            "every request records every span ({phase})"
        );
        span_sum_us += h.sum_us;
    }
    assert_eq!(
        span_sum_us, total.sum_us,
        "attribution spans must sum to measured service time exactly"
    );
    // The snapshot also reconciles with the client: every TxnOk the
    // clean-network client received was counted by the server.
    assert_eq!(report.stats.counter("txn_ok"), summary.acked);
    assert_eq!(report.stats.counter("req.hello"), 4);
}

#[test]
fn the_commit_window_is_billed_to_commit_wait_alone() {
    // One worker, a 20 ms gather window, eight pipelined writes on eight
    // objects (no conflicts). Each request sits out the window exactly
    // once, in `commit_wait`; a worker parked by the commit would show
    // the same milliseconds as `admission_wait` of the requests queued
    // behind it.
    let window_us = 20_000;
    let handle = Server::start(
        ServeConfig {
            workers: 1,
            group_window_us: window_us,
            ..ServeConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("start server");
    let (mut stream, session) = connect(handle.addr(), 1);
    stream.set_nodelay(true).expect("nodelay");
    for i in 0..8u64 {
        send(
            &mut stream,
            &Request::Txn(semcluster::serve::TxnRequest {
                session,
                client_txn: i,
                deadline_ms: 10_000,
                ops: vec![semcluster::serve::TxnOp {
                    write: true,
                    object: i as u32,
                }],
            }),
        );
    }
    for _ in 0..8 {
        assert!(matches!(recv(&mut stream), Response::TxnOk { .. }));
    }
    send(&mut stream, &Request::Bye);
    assert!(matches!(recv(&mut stream), Response::ByeOk));
    handle.request_shutdown();
    let report = handle.join().expect("drain");
    let sum_us = |phase: &str| {
        let h = report.stats.latency(phase).expect("span histogram");
        assert_eq!(h.count, 8, "every request records {phase}");
        h.sum_us
    };
    let commit_wait = sum_us("commit_wait");
    assert!(
        commit_wait >= window_us,
        "eight requests waited {commit_wait} us in all for a {window_us} us window"
    );
    let on_the_worker = sum_us("lock_wait") + sum_us("engine_exec");
    assert!(
        on_the_worker < 8 * 1_000,
        "lock_wait + engine_exec took {on_the_worker} us over eight requests"
    );
    let admission_wait = sum_us("admission_wait");
    assert!(
        admission_wait < commit_wait / 4,
        "admission_wait {admission_wait} us against commit_wait {commit_wait} us"
    );
    assert_eq!(report.acid_violations, 0);
}

#[test]
fn stats_opcode_round_trips_and_counts_itself() {
    // The drain linger keeps our idle connection probeable after
    // request_shutdown(); without it, closing the connection races the
    // draining STATS probe below.
    let handle = Server::start(
        ServeConfig {
            drain_linger_ms: 30_000,
            ..ServeConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("start server");
    let (mut stream, session) = connect(handle.addr(), 2);
    send(
        &mut stream,
        &Request::Txn(semcluster::serve::TxnRequest {
            session,
            client_txn: 9,
            deadline_ms: 0,
            ops: vec![semcluster::serve::TxnOp {
                write: true,
                object: 3,
            }],
        }),
    );
    match recv(&mut stream) {
        Response::TxnOk { client_txn, .. } => assert_eq!(client_txn, 9),
        other => panic!("expected TxnOk, got {other:?}"),
    }
    send(&mut stream, &Request::Stats);
    let first = match recv(&mut stream) {
        Response::StatsOk { schema, json } => {
            assert_eq!(schema, STATS_SCHEMA, "frame carries the schema version");
            json
        }
        other => panic!("expected StatsOk, got {other:?}"),
    };
    let schema_line = format!("{{\"stats_schema\":{STATS_SCHEMA},\n");
    assert!(first.starts_with(&schema_line), "json: {first}");
    assert!(first.contains("\"req.txn\":1"), "json: {first}");
    assert!(first.contains("\"req.stats\":1"), "STATS counts itself");
    assert!(first.contains("\"sessions_live\":2"), "json: {first}");
    assert!(first.contains("\"draining\":0"), "json: {first}");
    // A second probe sees strictly monotone request counters.
    send(&mut stream, &Request::Stats);
    match recv(&mut stream) {
        Response::StatsOk { json, .. } => {
            assert!(json.contains("\"req.stats\":2"), "json: {json}");
        }
        other => panic!("expected StatsOk, got {other:?}"),
    }
    // STATS keeps answering while the server drains: observability must
    // not die exactly when it is needed most.
    handle.request_shutdown();
    send(&mut stream, &Request::Stats);
    match recv(&mut stream) {
        Response::StatsOk { json, .. } => {
            assert!(json.contains("\"draining\":1"), "json: {json}");
        }
        other => panic!("expected StatsOk while draining, got {other:?}"),
    }
    send(&mut stream, &Request::Bye);
    assert!(matches!(recv(&mut stream), Response::ByeOk));
    drop(stream);
    let report = handle.join().expect("drain");
    assert_eq!(report.acid_violations, 0);
}

#[test]
fn prometheus_endpoint_reconciles_exactly_with_client_counts() {
    let handle = Server::start(
        ServeConfig {
            metrics_addr: Some("127.0.0.1:0".to_string()),
            // Lets the pinning connection below hold the drain open
            // (it BYEs as soon as the mid-drain scrape lands).
            drain_linger_ms: 30_000,
            ..ServeConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("start server");
    let metrics = handle.metrics_addr().expect("metrics endpoint bound");

    let before = scrape(metrics);
    let summary = run_load(&LoadConfig {
        addr: handle.addr().to_string(),
        connections: 4,
        sessions_per_conn: 20,
        txns_per_session: 3,
        pipeline: 8,
        seed: 1989,
        chaos: NetChaosConfig::none(),
        ..LoadConfig::default()
    })
    .expect("run load");
    assert!(summary.acked > 0);
    let after = scrape(metrics);

    // Well-formedness: every non-comment line is `name[{labels}] value`.
    for line in after.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let (_, value) = line.rsplit_once(' ').expect("sample has a value");
        assert!(value.parse::<f64>().is_ok(), "bad sample value: {line:?}");
    }
    assert!(after.contains("# TYPE semcluster_latency_us histogram"));
    assert!(after.contains("semcluster_latency_us_bucket{phase=\"total\",le=\"+Inf\"}"));

    // Exact reconciliation on a clean network: the scrape deltas equal
    // the client's own counts. The BYE/ByeOk exchange at the end of
    // every load connection orders these counters before run_load
    // returns, so no sleep or retry is needed.
    let delta = |name: &str| metric_value(name, &after) - metric_value(name, &before);
    assert_eq!(delta("semcluster_txn_ok_total"), summary.acked);
    assert_eq!(
        delta("semcluster_errors_total{kind=\"overloaded\"}"),
        summary.rejected_overloaded
    );
    assert_eq!(
        delta("semcluster_errors_total{kind=\"deadline\"}"),
        summary.rejected_deadline
    );
    assert_eq!(delta("semcluster_requests_total{opcode=\"hello\"}"), 4);

    // The endpoint stays up through drain (drain-aware scraping). The
    // guarantee is "up until the drain completes", so pin the drain
    // open with a live client connection — otherwise an empty server
    // finishes draining before the scrape can connect.
    let (mut stream, _) = connect(handle.addr(), 1);
    handle.request_shutdown();
    let during = scrape(metrics);
    assert!(metric_value("semcluster_txn_ok_total", &during) >= summary.acked);
    send(&mut stream, &Request::Bye);
    assert!(matches!(recv(&mut stream), Response::ByeOk));
    drop(stream);
    let report = handle.join().expect("drain");
    assert_eq!(report.acid_violations, 0);
    assert_eq!(report.stats.counter("txn_ok"), summary.acked);
}

#[test]
fn stats_golden_matches_at_any_jobs_count() {
    // The committed stats golden must verify unchanged regardless of
    // the thread count the suite is rendered with.
    for jobs in ["1", "4"] {
        let args = Args::parse(
            ["golden", "--suite", "stats", "--jobs", jobs]
                .into_iter()
                .map(String::from),
        )
        .expect("parse args");
        let out = dispatch(&args).expect("stats golden verifies");
        assert!(out.contains("golden OK"), "unexpected output: {out}");
    }
}
