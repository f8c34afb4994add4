//! One connection: a reader thread, a driver thread, and the producer
//! side of the one request path.
//!
//! The reader turns socket bytes into [`ConnEvent`]s; the driver feeds
//! them — and executor results, ticks and the drain signal — to the pure
//! [`ConnFsm`] and performs the actions it emits: buffer a reply, answer
//! STATS from the registry, or submit. Each pass of the driver takes
//! every event already on its channel (up to [`BATCH_EVENTS`]) and sends
//! all their replies with one write; only once that write succeeded are
//! its TxnOks counted, acked and latency-attributed ([`Replies`]).
//! [`submit_txn`] is the only way a transaction
//! reaches an executor, in either mode: shutdown check →
//! [`AdmissionControl::admit`](super::AdmissionControl::admit) over the
//! queue-depth gauge → `queue_enter` → `try_send` into the bounded
//! queue. Nothing blocks there and nothing queues without bound: a full
//! queue or a shedding controller is a typed OVERLOADED at once. A
//! REPORT the backend must order behind the queued transactions
//! ([`submit_report`]) is the one blocking send — it is never shed.

use std::collections::VecDeque;
use std::io::Write as _;
use std::net::{Shutdown as SockShutdown, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use super::exec::{Job, TxnJob};
use super::protocol::{ErrorKind, Frame, TxnRequest, OP_OK_HELLO, OP_OK_TXN};
use super::server::{lock, wake, Shared, TICK_MS};
use super::session::{ConnFsm, ExecResult, FsmAction, FsmInput};
use super::stats::{RequestCounts, RequestStamps, RequestTraceRecord};
use super::ServeError;

pub(super) enum ConnEvent {
    Bytes(Vec<u8>),
    Eof,
    Executed {
        session: u32,
        client_txn: u64,
        result: ExecResult,
        /// Attribution stamps through t4 on commit; the driver fills
        /// `replied_us` when the reply is written.
        stamps: Option<RequestStamps>,
    },
    ReportReady {
        json: String,
    },
    StatsReady {
        json: String,
    },
    Shutdown,
    Tick,
}

/// A thread body handed to a [`Spawner`].
pub(super) type Task = Box<dyn FnOnce() + Send>;
/// How [`open_conn`] starts a connection's threads: `server::spawn` in
/// the server, a failing stand-in in the tests.
pub(super) type Spawner<'a> = &'a mut dyn FnMut(String, Task) -> Result<JoinHandle<()>, ServeError>;

/// An admitted connection: its event channel (for the drain signal) and
/// the two threads to join.
pub(super) struct Conn {
    pub(super) tx: Sender<ConnEvent>,
    pub(super) driver: JoinHandle<()>,
    pub(super) reader: JoinHandle<()>,
}

/// Admit one accepted connection: start its driver, then its reader. If
/// either cannot be started the socket is closed and the error returned;
/// the accept loop carries on with the next connection.
pub(super) fn open_conn(
    stream: TcpStream,
    conn_no: u32,
    shared: &Arc<Shared>,
    spawn: Spawner<'_>,
) -> Result<Conn, ServeError> {
    stream.set_nodelay(true).ok();
    let reader_stream = stream
        .try_clone()
        .map_err(|e| ServeError::net("clone connection socket", &e))?;
    let (tx, rx) = mpsc::channel::<ConnEvent>();
    // Session-id space is striped per connection so HELLO can register
    // any count without collisions.
    let session_base = conn_no.wrapping_mul(1_000_000).wrapping_add(1);
    let (tx_self, tx_reader, shared) = (tx.clone(), tx.clone(), Arc::clone(shared));
    // A failed driver spawn drops its closure, and with it the socket.
    let driver = spawn(
        format!("serve-conn-{conn_no}"),
        Box::new(move || conn_driver(stream, rx, tx_self, session_base, shared)),
    )?;
    let reader = spawn(
        format!("serve-read-{conn_no}"),
        Box::new(move || reader_thread(reader_stream, tx_reader)),
    );
    match reader {
        Ok(reader) => Ok(Conn { tx, driver, reader }),
        Err(e) => {
            // Nobody will ever read this socket: the driver sees EOF,
            // closes it and ends.
            let _ = tx.send(ConnEvent::Eof);
            let _ = driver.join();
            Err(e)
        }
    }
}

fn reader_thread(stream: TcpStream, tx: Sender<ConnEvent>) {
    let mut stream = stream;
    let mut buf = [0u8; 4096];
    loop {
        match std::io::Read::read(&mut stream, &mut buf) {
            Ok(0) | Err(_) => {
                let _ = tx.send(ConnEvent::Eof);
                return;
            }
            Ok(n) => {
                if tx.send(ConnEvent::Bytes(buf[..n].to_vec())).is_err() {
                    return;
                }
            }
        }
    }
}

/// The most events one pass of the driver takes off its channel before
/// it writes, so a client that never pauses still gets its replies.
const BATCH_EVENTS: usize = 64;
/// Reply bytes at which a pass stops handling events and writes.
const BATCH_BYTES: usize = 64 * 1024;

/// A TxnOk in the reply buffer, and what to record once the write that
/// carries it succeeds.
#[derive(Default)]
struct TxnAck {
    /// The group-commit token the drain verdict judges (a write).
    token: Option<u64>,
    /// `(session, client_txn, stamps through t4)`; the write stamps t5.
    stamps: Option<(u32, u64, RequestStamps)>,
}

/// The replies of one driver pass: frames appended to one reused buffer
/// and sent with one write.
#[derive(Default)]
struct Replies {
    bytes: Vec<u8>,
    txn_oks: Vec<TxnAck>,
}

impl Replies {
    fn push(&mut self, frame: &Frame, txn_ok: Option<TxnAck>) {
        frame.encode_into(&mut self.bytes);
        self.txn_oks.extend(txn_ok);
    }

    /// Write every buffered reply at once. Only if the write succeeded
    /// are its TxnOks counted, their tokens acked and their t5 stamped;
    /// `false` means the peer is gone.
    fn flush(&mut self, stream: &mut TcpStream, shared: &Shared) -> bool {
        if self.bytes.is_empty() {
            return true;
        }
        let wrote = stream.write_all(&self.bytes).is_ok() && stream.flush().is_ok();
        self.bytes.clear();
        if !wrote {
            self.txn_oks.clear();
            return false;
        }
        // t5: the write that carried the replies has returned.
        let replied_us = shared.now_us();
        let cfg = &shared.cfg;
        for ack in self.txn_oks.drain(..) {
            shared.stats.record_txn_ok();
            if let Some(token) = ack.token {
                lock(&shared.acked_tokens).push(token);
                shared.stats.record_ack();
            }
            let Some((session, client_txn, mut stamps)) = ack.stamps else {
                continue;
            };
            stamps.replied_us = replied_us;
            let spans = shared.stats.record_request_latency(&stamps);
            if cfg.trace_requests > 0 {
                let mut trace = lock(&shared.request_trace);
                if trace.len() < cfg.trace_requests {
                    trace.push(RequestTraceRecord {
                        session,
                        client_txn,
                        start_us: stamps.submitted_us,
                        spans,
                    });
                }
            }
        }
        true
    }
}

#[allow(clippy::too_many_lines)]
fn conn_driver(
    mut stream: TcpStream,
    rx: Receiver<ConnEvent>,
    tx_self: Sender<ConnEvent>,
    session_base: u32,
    shared: Arc<Shared>,
) {
    let cfg = &shared.cfg;
    let mut fsm = ConnFsm::new(
        session_base,
        cfg.default_deadline_ms,
        cfg.max_inflight_per_conn,
        cfg.drain_linger_ms,
    );
    shared.stats.conn_opened();
    let exec = lock(&shared.exec).clone();
    let mut registered_sessions = 0u64;
    let mut actions: Vec<FsmAction> = Vec::new();
    let mut inputs: VecDeque<ConnEvent> = VecDeque::new();
    let mut replies = Replies::default();
    // The FSM counts parsed requests per opcode; diffing successive
    // copies keeps the registry exact even when one read carries many
    // frames.
    let mut prev_counts = RequestCounts::default();

    'conn: loop {
        if inputs.is_empty() {
            match rx.recv_timeout(Duration::from_millis(TICK_MS)) {
                Ok(ev) => inputs.push_back(ev),
                Err(RecvTimeoutError::Timeout) => inputs.push_back(ConnEvent::Tick),
                Err(RecvTimeoutError::Disconnected) => break 'conn,
            }
        }
        // Whatever else is already on the channel joins this pass.
        let room = BATCH_EVENTS.saturating_sub(inputs.len());
        inputs.extend(rx.try_iter().take(room));
        let mut closed = false;
        'pass: while let Some(ev) = inputs.pop_front() {
            let now_ms = shared.now_ms();
            // A committed transaction's token and stamps ride with its
            // TxnOk until the write that carries it.
            let mut ack = TxnAck::default();
            actions.clear();
            match ev {
                ConnEvent::Bytes(b) => fsm.on_input(FsmInput::Bytes(&b), now_ms, &mut actions),
                ConnEvent::Eof => fsm.on_input(FsmInput::Eof, now_ms, &mut actions),
                ConnEvent::Executed {
                    session,
                    client_txn,
                    result,
                    stamps,
                } => {
                    if let ExecResult::Committed { token, .. } = &result {
                        ack.token = *token;
                        ack.stamps = stamps.map(|s| (session, client_txn, s));
                    }
                    let input = FsmInput::Executed {
                        session,
                        client_txn,
                        result,
                    };
                    fsm.on_input(input, now_ms, &mut actions);
                }
                ConnEvent::ReportReady { json } => {
                    fsm.on_input(FsmInput::ReportReady { json }, now_ms, &mut actions)
                }
                ConnEvent::StatsReady { json } => {
                    fsm.on_input(FsmInput::StatsReady { json }, now_ms, &mut actions)
                }
                ConnEvent::Shutdown => fsm.on_input(FsmInput::Shutdown, now_ms, &mut actions),
                ConnEvent::Tick => fsm.on_input(FsmInput::Tick, now_ms, &mut actions),
            }
            let counts = fsm.request_counts();
            shared.stats.add_requests(&prev_counts, &counts);
            prev_counts = counts;
            for action in actions.drain(..) {
                match action {
                    FsmAction::Reply(frame) => {
                        match frame.opcode {
                            OP_OK_HELLO => {
                                registered_sessions = u64::from(fsm.sessions());
                                shared.stats.bump_sessions(registered_sessions);
                            }
                            op => {
                                if let Some(kind) = ErrorKind::from_opcode(op) {
                                    shared.stats.record_error(kind);
                                }
                            }
                        }
                        let txn_ok = (frame.opcode == OP_OK_TXN).then(|| std::mem::take(&mut ack));
                        replies.push(&frame, txn_ok);
                    }
                    FsmAction::Submit(txn) => {
                        let (session, client_txn) = (txn.session, txn.client_txn);
                        if let Some(result) = submit_txn(&shared, exec.as_ref(), &tx_self, txn) {
                            inputs.push_back(ConnEvent::Executed {
                                session,
                                client_txn,
                                result,
                                stamps: None,
                            });
                        }
                    }
                    FsmAction::SubmitReport => {
                        if let Some(json) = submit_report(&shared, exec.as_ref(), &tx_self) {
                            inputs.push_back(ConnEvent::ReportReady { json });
                        }
                    }
                    // Answered synchronously from the registry: STATS never
                    // queues behind the executor, so it stays responsive
                    // under overload and during drain.
                    FsmAction::SubmitStats => inputs.push_back(ConnEvent::StatsReady {
                        json: shared.stats_json(),
                    }),
                    FsmAction::RequestShutdown => wake(&shared.shutdown, shared.listen_addr),
                    FsmAction::Close => {
                        closed = true;
                        break 'pass;
                    }
                }
            }
            if replies.bytes.len() >= BATCH_BYTES {
                break;
            }
        }
        // Replies buffered before a close still go out, then the socket
        // shuts.
        if !replies.flush(&mut stream, &shared) {
            // Peer is gone; the FSM sees EOF and closes.
            inputs.push_back(ConnEvent::Eof);
        }
        if closed {
            break 'conn;
        }
    }
    let _ = stream.shutdown(SockShutdown::Both);
    shared.stats.drop_sessions(registered_sessions);
    shared.stats.conn_closed();
}

/// Route a transaction to the executor. `Some(result)` means it was
/// resolved synchronously (shed / draining / queue full) and must be
/// fed straight back to the FSM.
fn submit_txn(
    shared: &Shared,
    exec: Option<&SyncSender<Job>>,
    tx_self: &Sender<ConnEvent>,
    txn: TxnRequest,
) -> Option<ExecResult> {
    let exec = match exec {
        Some(exec) if !shared.shutdown.load(Ordering::SeqCst) => exec,
        _ => return Some(ExecResult::ShuttingDown),
    };
    let depth = shared.stats.queue_depth() as usize;
    let admitted = lock(&shared.admission).admit(depth);
    shared.stats.set_admission_shedding(!admitted);
    if !admitted {
        return Some(ExecResult::Overloaded);
    }
    let deadline_ms = if txn.deadline_ms == 0 {
        shared.cfg.default_deadline_ms
    } else {
        txn.deadline_ms
    };
    let job = Job::Txn(TxnJob {
        session: txn.session,
        client_txn: txn.client_txn,
        ops: txn.ops,
        deadline_at: Instant::now() + Duration::from_millis(u64::from(deadline_ms)),
        submitted_at_us: shared.now_us(),
        reply: tx_self.clone(),
    });
    // Enter the gauge before the send: an idle worker can dequeue and
    // `queue_leave` before `try_send` even returns, and a leave on a
    // gauge still at 0 wraps it to 2^64 - 1, which admission then reads
    // as a full queue.
    shared.stats.queue_enter();
    match exec.try_send(job) {
        Ok(()) => None,
        Err(refused) => {
            shared.stats.queue_leave();
            Some(match refused {
                TrySendError::Full(_) => ExecResult::Overloaded,
                TrySendError::Disconnected(_) => ExecResult::ShuttingDown,
            })
        }
    }
}

/// Answer a REPORT: `Some(json)` now, or `None` once it is queued behind
/// the transactions submitted before it (the worker answers with
/// `ReportReady`). A queued REPORT waits for room rather than being
/// shed; with no executor left to ask, the report is empty.
fn submit_report(
    shared: &Shared,
    exec: Option<&SyncSender<Job>>,
    tx_self: &Sender<ConnEvent>,
) -> Option<String> {
    if let Some(json) = shared.backend.report_now(shared) {
        return Some(json);
    }
    shared.stats.queue_enter();
    if exec.is_some_and(|exec| exec.send(Job::Report(tx_self.clone())).is_ok()) {
        return None;
    }
    shared.stats.queue_leave();
    Some(String::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::protocol::{read_frame, write_frame, Request, Response};
    use crate::serve::server::ServeConfig;
    use crate::serve::spawn;
    use std::io::{self, Read as _};
    use std::net::TcpListener;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn a_connection_whose_threads_cannot_start_is_closed_and_the_next_is_served() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local_addr");
        let accepted = || {
            let client = TcpStream::connect(addr).expect("connect");
            client
                .set_read_timeout(Some(Duration::from_secs(30)))
                .expect("read timeout");
            (client, listener.accept().expect("accept").0)
        };
        let stopping = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(Shared::new(ServeConfig::default(), stopping, None));
        // The OS refuses the first thread (the driver), then the second
        // (the reader, with the driver already running).
        for refused in [1, 2] {
            let (mut client, stream) = accepted();
            let mut asked = 0;
            let mut spawner = |name: String, task: Task| {
                asked += 1;
                if asked == refused {
                    let source = io::Error::other("no threads left");
                    return Err(ServeError::net(format!("spawn {name}"), &source));
                }
                spawn(name, task)
            };
            let err = open_conn(stream, 0, &shared, &mut spawner).err();
            assert!(
                matches!(err, Some(ServeError::Net { .. })),
                "spawn {refused} refused: {err:?}"
            );
            // The server's end is closed — not left open until a timeout.
            match client.read(&mut [0u8; 1]) {
                Ok(0) => {}
                Err(e) if e.kind() == io::ErrorKind::ConnectionReset => {}
                other => panic!("spawn {refused} refused: socket left open ({other:?})"),
            }
            // ...and whatever did start has ended and been accounted for.
            assert_eq!(shared.snapshot().gauge("connections_live"), 0);
        }
        // With threads to be had again, the next connection is served.
        let (mut client, stream) = accepted();
        let conn = open_conn(stream, 0, &shared, &mut |name, task| spawn(name, task))
            .expect("threads available");
        let mut ask = |request: Request| {
            write_frame(&mut client, &request.encode()).expect("write frame");
            let frame = read_frame(&mut client).expect("read frame");
            Response::parse(&frame.expect("a reply")).expect("parse reply")
        };
        let hello = ask(Request::Hello { sessions: 1 });
        assert!(matches!(hello, Response::HelloOk { .. }), "{hello:?}");
        assert!(matches!(ask(Request::Bye), Response::ByeOk));
        assert!(conn.driver.join().is_ok() && conn.reader.join().is_ok());
    }
}
