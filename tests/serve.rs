//! Integration tests for the multi-client serve path: oracle-mode
//! byte-identity against the simulator, concurrent-mode ACID under
//! network chaos, graceful drain, deadline and malformed-frame
//! handling over real TCP, overload shedding, the 10k-session smoke,
//! and jobs-invariance of the chaos golden.

use std::net::TcpStream;
use std::time::Duration;

use semcluster::serve::{
    read_frame, write_frame, ErrorKind, Frame, LoadConfig, Request, Response, ServeConfig,
    ServeMode, Server, TxnOp, TxnRequest,
};
use semcluster::{run_simulation, SimConfig};
use semcluster_cli::{dispatch, Args};
use semcluster_faults::NetChaosConfig;

fn small_sim() -> SimConfig {
    SimConfig {
        database_bytes: 4 * 1024 * 1024,
        buffer_pages: 32,
        warmup_txns: 100,
        measured_txns: 300,
        ..SimConfig::default()
    }
}

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

#[test]
fn oracle_report_is_byte_identical_to_the_simulator() {
    let cfg = small_sim();
    let expected = run_simulation(cfg.clone()).to_json();

    let handle = Server::start(
        ServeConfig {
            mode: ServeMode::Oracle(Box::new(cfg)),
            ..ServeConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("start oracle server");
    let (mut stream, session) = connect(handle.addr(), 1);
    // Step a prefix of the run over the wire, then ask for the report:
    // the server drives the remaining transactions itself, and the
    // bytes must equal a plain in-process `run_simulation`.
    for i in 0..5u64 {
        send(
            &mut stream,
            &Request::Txn(TxnRequest {
                session,
                client_txn: i,
                deadline_ms: 0,
                ops: vec![TxnOp {
                    write: true,
                    object: i as u32,
                }],
            }),
        );
        match recv(&mut stream) {
            Response::TxnOk {
                client_txn,
                completed,
                ..
            } => {
                assert_eq!(client_txn, i);
                assert_eq!(completed, i + 1, "oracle steps exactly one txn per TXN");
            }
            other => panic!("expected TxnOk, got {other:?}"),
        }
    }
    send(&mut stream, &Request::Report);
    match recv(&mut stream) {
        Response::ReportOk { json } => {
            assert_eq!(json, expected, "oracle REPORT drifted from run_simulation");
        }
        other => panic!("expected ReportOk, got {other:?}"),
    }
    send(&mut stream, &Request::Bye);
    assert!(matches!(recv(&mut stream), Response::ByeOk));
    handle.request_shutdown();
    let report = handle.join().expect("oracle drain");
    assert_eq!(report.acid_violations, 0);
    assert!(report.clean_drain);
}

#[test]
fn concurrent_chaos_load_drains_with_zero_acid_violations() {
    let handle = Server::start(ServeConfig::default(), "127.0.0.1:0").expect("start server");
    let summary = semcluster::serve::run_load(&LoadConfig {
        addr: handle.addr().to_string(),
        connections: 8,
        sessions_per_conn: 32,
        txns_per_session: 6,
        ops_per_txn: 4,
        chaos: NetChaosConfig::chaos(),
        pipeline: 8,
        seed: 1989,
        ..LoadConfig::default()
    })
    .expect("run load");
    assert!(summary.acked > 0, "chaos load acked nothing");
    handle.request_shutdown();
    let report = handle.join().expect("drain");
    assert_eq!(
        report.acid_violations, 0,
        "acked transactions must survive recovery even under network chaos"
    );
    assert!(report.clean_drain);
    assert!(
        report.acked <= report.committed,
        "every ack corresponds to a commit ({} acked, {} committed)",
        report.acked,
        report.committed
    );
}

#[test]
fn client_shutdown_frame_drains_the_server_gracefully() {
    let handle = Server::start(ServeConfig::default(), "127.0.0.1:0").expect("start server");
    let summary = semcluster::serve::run_load(&LoadConfig {
        addr: handle.addr().to_string(),
        connections: 4,
        sessions_per_conn: 16,
        txns_per_session: 4,
        pipeline: 8,
        seed: 7,
        shutdown_after: true,
        ..LoadConfig::default()
    })
    .expect("run load");
    assert!(summary.acked > 0);
    // The SHUTDOWN frame (connection 0) started the drain; join must
    // complete without an explicit request_shutdown.
    let report = handle.join().expect("client-initiated drain");
    assert!(report.clean_drain);
    assert_eq!(report.acid_violations, 0);
    assert!(report.acked <= report.committed);
}

#[test]
fn ten_thousand_concurrent_sessions_sustained() {
    let handle = Server::start(ServeConfig::default(), "127.0.0.1:0").expect("start server");
    let summary = semcluster::serve::run_load(&LoadConfig {
        addr: handle.addr().to_string(),
        connections: 50,
        sessions_per_conn: 200,
        txns_per_session: 1,
        ops_per_txn: 2,
        pipeline: 64,
        seed: 1989,
        ..LoadConfig::default()
    })
    .expect("run load");
    assert_eq!(summary.sessions, 10_000);
    assert!(
        summary.sessions_per_sec > 0.0,
        "sustained throughput must be reported"
    );
    handle.request_shutdown();
    let report = handle.join().expect("drain");
    assert_eq!(
        report.sessions_peak, 10_000,
        "all sessions live concurrently"
    );
    assert_eq!(report.acid_violations, 0);
}

#[test]
fn deadline_expires_mid_request_with_a_typed_error() {
    // A huge group-commit window makes every write commit take ≥300 ms;
    // a 30 ms deadline must fire first, as a typed DEADLINE error. The
    // transaction may still commit afterwards — committed-but-unacked
    // is legal; the verdict only forbids acked-but-not-durable.
    let handle = Server::start(
        ServeConfig {
            group_window_us: 300_000,
            ..ServeConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("start server");
    let (mut stream, session) = connect(handle.addr(), 1);
    send(
        &mut stream,
        &Request::Txn(TxnRequest {
            session,
            client_txn: 42,
            deadline_ms: 30,
            ops: vec![TxnOp {
                write: true,
                object: 5,
            }],
        }),
    );
    match recv(&mut stream) {
        Response::Error {
            kind,
            session: s,
            client_txn,
            ..
        } => {
            assert_eq!(kind, ErrorKind::DeadlineExceeded);
            assert_eq!(s, session);
            assert_eq!(client_txn, 42);
        }
        other => panic!("expected a DEADLINE error, got {other:?}"),
    }
    send(&mut stream, &Request::Bye);
    assert!(matches!(recv(&mut stream), Response::ByeOk));
    handle.request_shutdown();
    let report = handle.join().expect("drain");
    assert!(report.deadline_misses >= 1);
    assert_eq!(report.acid_violations, 0);
}

#[test]
fn malformed_frames_are_rejected_and_the_connection_closed() {
    let handle = Server::start(ServeConfig::default(), "127.0.0.1:0").expect("start server");
    let (mut stream, _) = connect(handle.addr(), 1);
    write_frame(
        &mut stream,
        &Frame {
            opcode: 0x7E,
            payload: vec![0xDE, 0xAD],
        },
    )
    .expect("write garbage frame");
    match recv(&mut stream) {
        Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::Malformed),
        other => panic!("expected a MALFORMED error, got {other:?}"),
    }
    // The server drops the connection after a protocol violation.
    assert!(
        read_frame(&mut stream).expect("clean EOF").is_none(),
        "connection must close after a malformed frame"
    );
    handle.request_shutdown();
    let report = handle.join().expect("drain");
    assert!(report.malformed >= 1);
    assert_eq!(report.acid_violations, 0);
}

#[test]
fn admission_control_sheds_under_pressure_without_breaking_acid() {
    // One worker, a one-slot queue, and a slow commit window guarantee
    // the bounded queue fills; admission control must shed with typed
    // OVERLOADED errors rather than queueing unboundedly, and every
    // ack that does happen must still be durable.
    let handle = Server::start(
        ServeConfig {
            workers: 1,
            queue_cap: 1,
            group_window_us: 20_000,
            ..ServeConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("start server");
    let summary = semcluster::serve::run_load(&LoadConfig {
        addr: handle.addr().to_string(),
        connections: 4,
        sessions_per_conn: 8,
        txns_per_session: 8,
        deadline_ms: 30_000,
        pipeline: 32,
        seed: 11,
        ..LoadConfig::default()
    })
    .expect("run load");
    handle.request_shutdown();
    let report = handle.join().expect("drain");
    assert!(
        report.sheds > 0,
        "a one-slot queue under pipelined load must shed"
    );
    assert_eq!(summary.rejected_overloaded, report.sheds);
    assert_eq!(report.acid_violations, 0);
    assert!(report.acked <= report.committed);
}

#[test]
fn read_only_closed_loop_is_never_shed_by_an_idle_queue() {
    // Read-only transactions finish in microseconds, so both workers sit
    // idle in `recv` and dequeue a job before its submitter has returned
    // from the send. The queue gauge must count the job by then: were it
    // entered after the send, the worker's leave would wrap it below
    // zero and admission would refuse the next window as OVERLOADED.
    let handle = Server::start(
        ServeConfig {
            workers: 2,
            queue_cap: 256,
            ..ServeConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("start server");
    let summary = semcluster::serve::run_load(&LoadConfig {
        addr: handle.addr().to_string(),
        connections: 2,
        sessions_per_conn: 8,
        txns_per_session: 2_000,
        write_pct: 0,
        pipeline: 8,
        seed: 1989,
        ..LoadConfig::default()
    })
    .expect("run load");
    handle.request_shutdown();
    let report = handle.join().expect("drain");
    assert_eq!(summary.rejected_overloaded, 0);
    assert_eq!(
        report.sheds, 0,
        "16 in flight against a 256-slot queue: nothing to shed"
    );
    assert_eq!(report.stats.gauge("queue_depth"), 0);
    assert_eq!(summary.acked, summary.attempted);
    assert!(report.clean_drain);
}

#[test]
fn chaos_golden_matches_at_any_jobs_count() {
    // The committed chaos golden must verify unchanged regardless of
    // the thread count the suite is rendered with.
    for jobs in ["1", "7"] {
        let args = Args::parse(
            ["golden", "--suite", "chaos", "--jobs", jobs]
                .into_iter()
                .map(String::from),
        )
        .expect("parse args");
        let out = dispatch(&args).expect("chaos golden verifies");
        assert!(out.contains("golden OK"), "unexpected output: {out}");
    }
}
