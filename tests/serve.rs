//! Integration tests for the multi-client serve path: oracle-mode
//! byte-identity against the simulator, concurrent-mode ACID under
//! network chaos, graceful drain, deadline and malformed-frame
//! handling over real TCP, overload shedding, the 10k-session smoke,
//! and jobs-invariance of the chaos golden.

use std::net::TcpStream;
use std::time::{Duration, Instant};

use semcluster::serve::{
    read_frame, write_frame, ErrorKind, Frame, LoadConfig, Request, Response, ServeConfig,
    ServeMode, Server, TxnOp, TxnRequest,
};
use semcluster::{run_simulation, SimConfig};
use semcluster_cli::{dispatch, Args};
use semcluster_faults::{NetChaosConfig, RetryPolicy};

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
    // Back-to-back frames must reach the server back to back: with
    // Nagle on, the second waits for the ACK of the first, which the
    // server delays until it has a reply to carry it.
    stream.set_nodelay(true).expect("nodelay");
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
fn oracle_report_is_byte_identical_with_two_interleaved_connections() {
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
    // Two connections take turns stepping the one engine; each reply is
    // read before the other connection sends, so the order is fixed.
    let mut conns = [connect(handle.addr(), 1), connect(handle.addr(), 1)];
    for i in 0..8u64 {
        let (stream, session) = &mut conns[(i % 2) as usize];
        send(stream, &write_one(*session, i, i as u32));
        match recv(stream) {
            Response::TxnOk { completed, .. } => assert_eq!(completed, i + 1),
            other => panic!("expected TxnOk, got {other:?}"),
        }
    }
    // Whichever connection asks, the report is the simulator's.
    for (stream, _) in &mut conns {
        send(stream, &Request::Report);
        match recv(stream) {
            Response::ReportOk { json } => assert_eq!(json, expected),
            other => panic!("expected ReportOk, got {other:?}"),
        }
    }
    handle.request_shutdown();
    let report = handle.join().expect("oracle drain");
    assert_eq!(report.acid_violations, 0);
    assert!(report.clean_drain);
}

/// The number after `"key":` in a STATS JSON body.
fn stats_field(json: &str, key: &str) -> u64 {
    let at = json.find(&format!("\"{key}\":")).expect(key) + key.len() + 3;
    let digits = json[at..].chars().take_while(char::is_ascii_digit);
    digits.collect::<String>().parse().expect(key)
}

#[test]
fn the_oracle_queue_is_bounded_and_sheds_like_the_concurrent_one() {
    // A two-slot queue in front of the one oracle worker, which spends
    // its first tens of milliseconds building a 16 MiB database on its
    // own thread. A connection that pipelines 64 TXNs and a STATS in one
    // write fills the queue with the first two; admission control must
    // shed the rest with typed OVERLOADED rather than queue them, the
    // gauges must show it, and a shed TXN must never step the engine.
    let handle = Server::start(
        ServeConfig {
            mode: ServeMode::Oracle(Box::new(SimConfig {
                database_bytes: 16 * 1024 * 1024,
                ..small_sim()
            })),
            queue_cap: 2,
            ..ServeConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("start oracle server");
    let (mut stream, session) = connect(handle.addr(), 1);
    let mut burst = Vec::new();
    for i in 0..64u64 {
        burst.extend(write_one(session, i, i as u32).encode().encode());
    }
    burst.extend(Request::Stats.encode().encode());
    std::io::Write::write_all(&mut stream, &burst).expect("write burst");

    let (mut answered, mut shed, mut completed_seen) = (vec![0u32; 64], 0u64, 0u64);
    let mut stats = None;
    for _ in 0..65 {
        match recv(&mut stream) {
            Response::TxnOk {
                client_txn,
                completed,
                ..
            } => {
                answered[client_txn as usize] += 1;
                completed_seen += 1;
                assert_eq!(completed, completed_seen, "a shed TXN stepped the engine");
            }
            Response::Error {
                kind: ErrorKind::Overloaded,
                client_txn,
                ..
            } => {
                answered[client_txn as usize] += 1;
                shed += 1;
            }
            Response::StatsOk { json, .. } => stats = Some(json),
            other => panic!("unexpected reply {other:?}"),
        }
    }
    assert!(answered.iter().all(|&n| n == 1), "{answered:?}");
    assert!(shed > 0, "a two-slot queue under a 64-deep burst must shed");
    assert_eq!(completed_seen + shed, 64);
    // The STATS in the burst was answered the moment it was parsed,
    // with the queue still full; one sent now counts every shed reply.
    let stats = stats.expect("a STATS reply");
    assert_eq!(stats_field(&stats, "admission_shedding"), 1);
    assert!(stats_field(&stats, "queue_depth") > 0, "{stats}");
    send(&mut stream, &Request::Stats);
    match recv(&mut stream) {
        Response::StatsOk { json, .. } => assert_eq!(stats_field(&json, "err.overloaded"), shed),
        other => panic!("expected StatsOk, got {other:?}"),
    }

    handle.request_shutdown();
    let report = handle.join().expect("oracle drain");
    assert_eq!(report.sheds, shed);
    assert_eq!(report.stats.gauge("queue_depth"), 0, "gauge back at rest");
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
    // SHUTDOWN follows the whole load, not just connection 0's share:
    // with no chaos, no peer's transaction is refused or lost to the
    // drain.
    assert_eq!(summary.attempted, 4 * 16 * 4);
    assert_eq!(summary.acked, summary.attempted);
    assert_eq!(summary.rejected_shutdown, 0);
    assert_eq!(summary.lost, 0);
    // The SHUTDOWN frame (connection 0) started the drain; join must
    // complete without an explicit request_shutdown.
    let report = handle.join().expect("client-initiated drain");
    assert!(report.clean_drain);
    assert_eq!(report.acid_violations, 0);
    assert!(report.acked <= report.committed);
}

#[test]
fn a_load_worker_that_fails_early_does_not_strand_the_shutdown_rendezvous() {
    // A listener that greets one connection and hangs up on the other:
    // that worker returns early, and the survivor must still get past
    // the rendezvous that precedes SHUTDOWN.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let server = std::thread::spawn(move || {
        let (mut greeted, _) = listener.accept().expect("first connection");
        let (refused, _) = listener.accept().expect("second connection");
        drop(refused);
        read_frame(&mut greeted).expect("HELLO").expect("HELLO");
        write_frame(
            &mut greeted,
            &Response::HelloOk { first_session: 0 }.encode(),
        )
        .expect("HelloOk");
        // Hold the greeted connection until its worker's farewell.
        read_frame(&mut greeted).expect("farewell");
    });
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let result = semcluster::serve::run_load(&LoadConfig {
            addr,
            connections: 2,
            sessions_per_conn: 1,
            txns_per_session: 0,
            shutdown_after: true,
            ..LoadConfig::default()
        });
        done_tx.send(result.is_err()).ok();
    });
    let failed = done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("run_load hung at the shutdown rendezvous");
    assert!(failed, "the refused connection is reported");
    server.join().expect("fake server");
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
    // A huge group-commit window keeps the committer gathering for
    // ≥300 ms before it forces this write (the worker itself is long back
    // at the queue); a 30 ms deadline must fire first, as a typed DEADLINE
    // error from the connection's deadline sweep. The transaction still
    // commits afterwards — committed-but-unacked is legal; the verdict
    // only forbids acked-but-not-durable.
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
    // One worker and a one-slot queue against four connections that
    // each pipeline 32: the drivers submit faster than a single worker
    // dequeues, and the slow commit window keeps written objects locked
    // for 20 ms at a time, so the worker also spends stretches waiting
    // on conflicts. The bounded queue fills; admission control must shed
    // with typed OVERLOADED errors rather than queueing unboundedly, and
    // every ack that does happen must still be durable.
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

fn write_one(session: u32, client_txn: u64, object: u32) -> Request {
    Request::Txn(TxnRequest {
        session,
        client_txn,
        deadline_ms: 10_000,
        ops: vec![TxnOp {
            write: true,
            object,
        }],
    })
}

#[test]
fn group_commit_carries_several_transactions_per_force() {
    let handle = Server::start(
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("start server");
    let summary = semcluster::serve::run_load(&LoadConfig {
        addr: handle.addr().to_string(),
        connections: 2,
        sessions_per_conn: 8,
        txns_per_session: 100,
        write_pct: 100,
        pipeline: 8,
        seed: 1989,
        ..LoadConfig::default()
    })
    .expect("run load");
    handle.request_shutdown();
    let report = handle.join().expect("drain");
    assert_eq!(summary.acked, summary.attempted);
    assert_eq!(report.group_txns, summary.acked, "every write was forced");
    // 16 writes in flight and no gather window: a batch is whatever the
    // workers handed off while the committer forced and acked the one
    // before. A force that carries one transaction means the workers
    // were parked behind it.
    assert!(
        report.group_txns >= 2 * report.group_commits,
        "{} transactions over {} forces",
        report.group_txns,
        report.group_commits
    );
    assert_eq!(report.acid_violations, 0);
    assert!(report.clean_drain);
}

#[test]
fn a_lone_write_is_forced_at_once() {
    // One write at a time, each alone in the server when it is handed
    // off: there is nothing to wait for, so its commit wait is the force
    // itself. A committer that napped before every force would bill each
    // write the whole nap.
    let handle = Server::start(ServeConfig::default(), "127.0.0.1:0").expect("start server");
    let (mut stream, session) = connect(handle.addr(), 1);
    for i in 0..100 {
        send(&mut stream, &write_one(session, i, (i % 16) as u32));
        assert!(matches!(recv(&mut stream), Response::TxnOk { .. }));
    }
    send(&mut stream, &Request::Bye);
    assert!(matches!(recv(&mut stream), Response::ByeOk));
    handle.request_shutdown();
    let report = handle.join().expect("drain");
    assert_eq!(report.acked, 100);
    let commit_wait = report.stats.latency("commit_wait").expect("span histogram");
    assert_eq!(commit_wait.count, 100);
    let p50 = commit_wait.quantile_bound(0.5);
    assert!(
        p50 < 200,
        "a lone write waited {p50} us at p50 for its force"
    );
}

#[test]
fn replies_ready_before_a_malformed_frame_reach_the_client_before_it_closes() {
    // Eight PINGs and a garbage frame in one write reach the driver as
    // one read: all nine replies wait in one buffer when the FSM closes
    // the connection, and the close must send them before the socket
    // shuts.
    let handle = Server::start(ServeConfig::default(), "127.0.0.1:0").expect("start server");
    let (mut stream, _) = connect(handle.addr(), 1);
    let mut burst = Vec::new();
    for _ in 0..8 {
        burst.extend(Request::Ping.encode().encode());
    }
    let garbage = Frame {
        opcode: 0x7E,
        payload: vec![0xDE, 0xAD],
    };
    burst.extend(garbage.encode());
    std::io::Write::write_all(&mut stream, &burst).expect("write burst");
    for i in 0..8 {
        let reply = recv(&mut stream);
        assert!(matches!(reply, Response::PingOk), "reply {i}: {reply:?}");
    }
    match recv(&mut stream) {
        Response::Error { kind, .. } => assert_eq!(kind, ErrorKind::Malformed),
        other => panic!("expected a MALFORMED error, got {other:?}"),
    }
    assert!(
        read_frame(&mut stream).expect("clean EOF").is_none(),
        "connection must close after the replies"
    );
    handle.request_shutdown();
    let report = handle.join().expect("drain");
    assert_eq!(report.malformed, 1);
    assert!(report.clean_drain);
}

#[test]
fn a_commit_window_does_not_park_the_worker() {
    // One worker, a 50 ms window, eight pipelined writes on eight
    // objects: the worker hands each to the committer and takes the next,
    // so all eight ride one force. A worker that sat out the window per
    // transaction would need eight windows (≥400 ms).
    let handle = Server::start(
        ServeConfig {
            workers: 1,
            group_window_us: 50_000,
            ..ServeConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("start server");
    let (mut stream, session) = connect(handle.addr(), 1);
    let sent = Instant::now();
    for i in 0..8 {
        send(&mut stream, &write_one(session, i, i as u32));
    }
    for _ in 0..8 {
        assert!(matches!(recv(&mut stream), Response::TxnOk { .. }));
    }
    let took = sent.elapsed();
    assert!(
        took < Duration::from_millis(200),
        "eight acks took {took:?}"
    );
    send(&mut stream, &Request::Bye);
    assert!(matches!(recv(&mut stream), Response::ByeOk));
    handle.request_shutdown();
    let report = handle.join().expect("drain");
    assert_eq!(report.acked, 8);
    assert_eq!(report.acid_violations, 0);
    assert!(report.clean_drain);
}

#[test]
fn a_lock_waiter_is_woken_by_the_release_not_by_the_clock() {
    // The second transaction conflicts with the first for one 20 ms
    // window. Its only retry interval is 500 ms long, so acquiring in
    // time takes a wake-up at the release — and one that spends no
    // attempt, or the budget of two would be gone.
    let handle = Server::start(
        ServeConfig {
            retry: RetryPolicy {
                max_attempts: 2,
                backoff_us: 500_000,
                ..RetryPolicy::default()
            },
            group_window_us: 20_000,
            ..ServeConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("start server");
    let (mut stream, session) = connect(handle.addr(), 1);
    let sent = Instant::now();
    send(&mut stream, &write_one(session, 1, 9));
    send(&mut stream, &write_one(session, 2, 9));
    for _ in 0..2 {
        let reply = recv(&mut stream);
        assert!(matches!(reply, Response::TxnOk { .. }), "got {reply:?}");
    }
    let took = sent.elapsed();
    assert!(took < Duration::from_millis(250), "two acks took {took:?}");
    send(&mut stream, &Request::Bye);
    assert!(matches!(recv(&mut stream), Response::ByeOk));
    handle.request_shutdown();
    let report = handle.join().expect("drain");
    assert_eq!(report.retry_exhausted, 0);
    assert_eq!(report.acked, 2);
    assert_eq!(report.acid_violations, 0);
}

#[test]
fn the_retry_budget_still_bites_under_continuous_conflict() {
    // Whichever write takes the lock keeps it for the whole 300 ms
    // window; the other has two attempts 5 ms apart, so it must be
    // refused — after those 5 ms, not at its first conflict, and long
    // before the winner commits. (Two workers dequeue the pair, so either
    // may win; the loser's first conflict follows the second send.)
    let handle = Server::start(
        ServeConfig {
            retry: RetryPolicy {
                max_attempts: 2,
                backoff_us: 5_000,
                ..RetryPolicy::default()
            },
            group_window_us: 300_000,
            ..ServeConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("start server");
    let (mut stream, session) = connect(handle.addr(), 1);
    send(&mut stream, &write_one(session, 1, 9));
    let sent = Instant::now();
    send(&mut stream, &write_one(session, 2, 9));
    let loser = match recv(&mut stream) {
        Response::Error {
            kind, client_txn, ..
        } => {
            assert_eq!(kind, ErrorKind::RetryExhausted);
            client_txn
        }
        other => panic!("expected RETRY_EXHAUSTED first, got {other:?}"),
    };
    let refused = sent.elapsed();
    assert!(
        refused >= Duration::from_millis(5),
        "refused in {refused:?}"
    );
    assert!(
        refused < Duration::from_millis(200),
        "refused in {refused:?}"
    );
    match recv(&mut stream) {
        Response::TxnOk { client_txn, .. } => assert_eq!(client_txn, 3 - loser),
        other => panic!("expected TxnOk for the other write, got {other:?}"),
    }
    send(&mut stream, &Request::Bye);
    assert!(matches!(recv(&mut stream), Response::ByeOk));
    handle.request_shutdown();
    let report = handle.join().expect("drain");
    assert_eq!(report.retry_exhausted, 1);
    assert_eq!(report.acked, 1, "the winner is acknowledged");
    assert_eq!(report.acid_violations, 0, "and durable");
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
fn an_idle_server_accepts_a_connection_the_moment_it_arrives() {
    // Each HELLO reaches an acceptor that has been idle since the last
    // one. A server that polled its listener would make nearly every
    // one wait out most of a nap (5 ms, for the poll this server once
    // had); a blocking accept answers at once. The median is bounded,
    // not the total: a loaded machine stalls a few round trips, which a
    // total adds up, but it does not stall half of them.
    let handle = Server::start(ServeConfig::default(), "127.0.0.1:0").expect("start server");
    let mut round_trips: Vec<Duration> = (0..50)
        .map(|_| {
            let started = Instant::now();
            drop(connect(handle.addr(), 1));
            started.elapsed()
        })
        .collect();
    round_trips.sort_unstable();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < Duration::from_micros(2_500),
        "median connect + HELLO round trip {median:?}, sorted: {round_trips:?}"
    );
    handle.request_shutdown();
    let report = handle.join().expect("drain");
    assert_eq!(report.connections, 50);
    assert!(report.clean_drain);
}

#[test]
fn a_shutdown_frame_wakes_both_acceptors_and_no_wake_is_counted() {
    let cfg = ServeConfig {
        metrics_addr: Some("127.0.0.1:0".into()),
        ..ServeConfig::default()
    };
    let handle = Server::start(cfg, "127.0.0.1:0").expect("start server");
    let (mut idle, _) = connect(handle.addr(), 1);
    let (mut stream, _) = connect(handle.addr(), 1);
    // Nothing else connects: the frame alone must end both blocking
    // accepts, the server's and the metrics listener's.
    let draining = Instant::now();
    send(&mut stream, &Request::Shutdown);
    assert!(matches!(recv(&mut stream), Response::ShutdownOk));
    let report = handle.join().expect("client-initiated drain");
    let took = draining.elapsed();
    assert!(took < Duration::from_secs(1), "drain took {took:?}");
    assert_eq!(report.connections, 2, "wake connections are not clients");
    assert!(report.clean_drain);
    // The drain closed the idle connection too.
    assert!(matches!(read_frame(&mut idle), Ok(None) | Err(_)));
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
