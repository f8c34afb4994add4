//! The multi-client TCP server.
//!
//! Std-only threading: one accept loop, one reader + one driver thread
//! per connection, a bank of executor workers over a bounded job queue,
//! and a group-commit coordinator batching WAL forces across
//! concurrently committing transactions. Two modes share the wire
//! protocol:
//!
//! * **Oracle** — a single executor thread owns a deterministic
//!   [`Engine`] and advances it one transaction per TXN request; REPORT
//!   returns [`crate::RunReport::to_json`] bytes that must be
//!   byte-identical to an in-process [`crate::run_simulation`] of the
//!   same config. This is the equivalence contract that keeps the
//!   simulator the correctness oracle for the served path.
//! * **Concurrent** — worker threads drive one shared core (lock
//!   manager + WAL + object values) with conservative all-or-nothing
//!   locking, bounded retries with exponential backoff, and group
//!   commit. At drain the server replays its own durable log through
//!   [`semcluster_wal::recover`] and reports any acknowledged
//!   transaction that recovery does not consider a winner as an ACID
//!   violation.
//!
//! Hardening on every path: per-request deadlines (expired work is
//! dropped, typed timeout replies), admission control with hysteresis
//! ([`AdmissionControl`]), a bounded queue with backpressure, and
//! drain-then-close shutdown (in-flight transactions finish and are
//! acked; new work is rejected with a typed shutting-down error).

use std::collections::VecDeque;
use std::io::Write as _;
use std::net::{Shutdown as SockShutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use semcluster_faults::{DegradationPolicy, RetryPolicy};
use semcluster_lock::{LockManager, LockMode, TxnId};
use semcluster_obs::{ServePoint, ServeTimeline};
use semcluster_storage::PageId;
use semcluster_vdm::ObjectId;
use semcluster_wal::{recover, LogConfig, LogManager, TxnToken};

use super::admission::AdmissionControl;
use super::protocol::{
    write_frame, ErrorKind, TxnOp, TxnRequest, OP_ERR_DEADLINE, OP_ERR_INTERNAL, OP_ERR_MALFORMED,
    OP_ERR_OVERLOADED, OP_ERR_RETRY_EXHAUSTED, OP_ERR_SHUTTING_DOWN, OP_OK_HELLO, OP_OK_TXN,
};
use super::session::{ConnFsm, ExecResult, FsmAction, FsmInput};
use super::slo::SloTracker;
use super::stats::{RequestCounts, RequestStamps, RequestTraceRecord, ServeStats, StatsSnapshot};
use super::ServeError;
use crate::config::SimConfig;
use crate::engine::Engine;

/// What backs transaction execution.
#[derive(Debug, Clone)]
pub enum ServeMode {
    /// Deterministic single-engine mode: the simulator is the server.
    Oracle(Box<SimConfig>),
    /// Threaded shared-core mode with locking, WAL and group commit.
    Concurrent,
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Execution backend.
    pub mode: ServeMode,
    /// Executor worker threads (concurrent mode).
    pub workers: usize,
    /// Bounded execution-queue capacity; also the admission-control
    /// enter threshold.
    pub queue_cap: usize,
    /// Default per-request deadline when a TXN carries none.
    pub default_deadline_ms: u32,
    /// Per-connection pipelining bound (in-flight transactions).
    pub max_inflight_per_conn: usize,
    /// Hysteresis parameters for admission control (reuses the
    /// degradation-policy shape: exit at `exit_pct`% of the enter
    /// level after `window_txns` calm observations).
    pub admission: DegradationPolicy,
    /// Retry budget for lock conflicts.
    pub retry: RetryPolicy,
    /// Group-commit gather window, in wall-clock microseconds.
    pub group_window_us: u64,
    /// Object-id space for concurrent-mode transactions.
    pub objects: u32,
    /// Driver tick (deadline sweep) interval, in milliseconds.
    pub tick_ms: u64,
    /// Timeline sampling interval in milliseconds (0 = off).
    pub timeline_interval_ms: u64,
    /// Optional address for the Prometheus text-exposition listener
    /// (`None` = no metrics endpoint).
    pub metrics_addr: Option<String>,
    /// SLO sliding-window length, in sampler ticks.
    pub slo_window: usize,
    /// Per-request attribution records to retain for the Chrome-trace
    /// server lane (0 = off).
    pub trace_requests: usize,
    /// How long an idle connection stays open for read-only probes
    /// (STATS/PING) once the drain begins, before the server closes it.
    /// 0 (the default) closes idle connections the moment the drain
    /// starts; a BYE always closes immediately regardless.
    pub drain_linger_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            mode: ServeMode::Concurrent,
            workers: 4,
            queue_cap: 256,
            default_deadline_ms: 1_000,
            max_inflight_per_conn: 1_024,
            admission: DegradationPolicy {
                window_txns: 16,
                search_budget_us: 0,
                exit_pct: 50,
            },
            retry: RetryPolicy::default(),
            group_window_us: 200,
            objects: 4_096,
            tick_ms: 20,
            timeline_interval_ms: 0,
            metrics_addr: None,
            slo_window: 30,
            trace_requests: 0,
            drain_linger_ms: 0,
        }
    }
}

/// Final server report, produced when the accept loop drains.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Peak simultaneous logical sessions.
    pub sessions_peak: u64,
    /// Transactions made durable (group-commit flushed).
    pub committed: u64,
    /// Transactions acknowledged to clients (ack strictly after the
    /// commit force).
    pub acked: u64,
    /// Requests shed with the typed overloaded error.
    pub sheds: u64,
    /// Deadline-expiry replies sent.
    pub deadline_misses: u64,
    /// Malformed-frame rejections.
    pub malformed: u64,
    /// Retry-budget exhaustions.
    pub retry_exhausted: u64,
    /// Requests rejected because the server was draining.
    pub shutdown_rejected: u64,
    /// Group-commit batches flushed.
    pub group_commits: u64,
    /// Physical log forces those batches cost.
    pub group_forces: u64,
    /// Transactions carried by those batches.
    pub group_txns: u64,
    /// Acked transactions that recovery does not count as winners.
    /// Must be zero: an ack is a durability promise.
    pub acid_violations: u64,
    /// All connections drained and joined cleanly.
    pub clean_drain: bool,
    /// Wall-clock health samples, when sampling was enabled.
    pub timeline: Option<ServeTimeline>,
    /// Final telemetry snapshot (the same shape STATS serves live),
    /// taken after every recorder thread joined, so it is exact.
    pub stats: StatsSnapshot,
    /// Retained per-request attribution records, when
    /// [`ServeConfig::trace_requests`] was nonzero.
    pub request_trace: Vec<RequestTraceRecord>,
}

impl ServeReport {
    /// Canonical JSON (stable field order).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"connections\": {},\n", self.connections));
        out.push_str(&format!("  \"sessions_peak\": {},\n", self.sessions_peak));
        out.push_str(&format!("  \"committed\": {},\n", self.committed));
        out.push_str(&format!("  \"acked\": {},\n", self.acked));
        out.push_str(&format!("  \"sheds\": {},\n", self.sheds));
        out.push_str(&format!(
            "  \"deadline_misses\": {},\n",
            self.deadline_misses
        ));
        out.push_str(&format!("  \"malformed\": {},\n", self.malformed));
        out.push_str(&format!(
            "  \"retry_exhausted\": {},\n",
            self.retry_exhausted
        ));
        out.push_str(&format!(
            "  \"shutdown_rejected\": {},\n",
            self.shutdown_rejected
        ));
        out.push_str(&format!("  \"group_commits\": {},\n", self.group_commits));
        out.push_str(&format!("  \"group_forces\": {},\n", self.group_forces));
        out.push_str(&format!("  \"group_txns\": {},\n", self.group_txns));
        out.push_str(&format!(
            "  \"acid_violations\": {},\n",
            self.acid_violations
        ));
        out.push_str(&format!("  \"clean_drain\": {}\n", self.clean_drain));
        out.push_str("}\n");
        out
    }
}

// ------------------------------------------------------------- executor

/// The state every concurrent-mode transaction contends on: the lock
/// table arbitrates access, the WAL makes effects durable, `values` is
/// the object store the transactions actually read and write.
struct SharedCore {
    locks: LockManager,
    log: LogManager,
    values: Vec<u64>,
    next_lock_txn: u64,
}

struct Job {
    session: u32,
    client_txn: u64,
    ops: Vec<TxnOp>,
    deadline_at: Instant,
    /// Admission time (µs since server start): t0 of the attribution
    /// stamp chain.
    submitted_at_us: u64,
    reply: Sender<ConnEvent>,
}

enum OracleJob {
    Txn {
        session: u32,
        client_txn: u64,
        submitted_at_us: u64,
        reply: Sender<ConnEvent>,
    },
    Report {
        reply: Sender<ConnEvent>,
    },
}

#[derive(Clone)]
enum ExecHandle {
    Concurrent(SyncSender<Job>),
    Oracle(Sender<OracleJob>),
}

/// Group-commit coordinator: the first committer in an idle window
/// becomes leader, sleeps the gather window, then flushes the whole
/// batch with one [`LogManager::commit_group`] call. Followers block
/// until their epoch is flushed. Object locks are held across the wait
/// (strict two-phase locking through commit), which is exactly the
/// contention the lock manager's all-or-nothing acquisition arbitrates.
struct GroupCommitter {
    state: Mutex<GroupState>,
    cv: Condvar,
    window_us: u64,
}

struct GroupState {
    batch: Vec<TxnToken>,
    epoch: u64,
    completed_epoch: u64,
    leader: bool,
    last_lsn: u64,
}

impl GroupCommitter {
    fn new(window_us: u64) -> Self {
        GroupCommitter {
            state: Mutex::new(GroupState {
                batch: Vec::new(),
                epoch: 1,
                completed_epoch: 0,
                leader: false,
                last_lsn: 0,
            }),
            cv: Condvar::new(),
            window_us,
        }
    }

    fn commit(&self, token: TxnToken, core: &Mutex<SharedCore>, stats: &ServeStats) -> u64 {
        let (my_epoch, am_leader) = {
            let mut st = self.state.lock().unwrap();
            st.batch.push(token);
            let e = st.epoch;
            let lead = !st.leader;
            if lead {
                st.leader = true;
            }
            (e, lead)
        };
        if am_leader {
            loop {
                if self.window_us > 0 {
                    thread::sleep(Duration::from_micros(self.window_us));
                }
                let (batch, epoch) = {
                    let mut st = self.state.lock().unwrap();
                    if st.batch.is_empty() {
                        st.leader = false;
                        break;
                    }
                    let b = std::mem::take(&mut st.batch);
                    let e = st.epoch;
                    st.epoch += 1;
                    (b, e)
                };
                let (lsn, forces) = {
                    let mut core = core.lock().unwrap();
                    let forces = core.log.commit_group(&batch);
                    (core.log.current_lsn(), forces)
                };
                stats.record_group_flush(batch.len() as u64, u64::from(forces));
                let mut st = self.state.lock().unwrap();
                st.completed_epoch = epoch;
                st.last_lsn = lsn;
                self.cv.notify_all();
            }
            self.state.lock().unwrap().last_lsn
        } else {
            let mut st = self.state.lock().unwrap();
            while st.completed_epoch < my_epoch {
                st = self.cv.wait(st).unwrap();
            }
            st.last_lsn
        }
    }
}

/// Build the (deduplicated, mode-joined) lock set for a transaction.
fn lockset(ops: &[TxnOp], objects: u32) -> Vec<(ObjectId, LockMode)> {
    let mut set: Vec<(ObjectId, LockMode)> = Vec::with_capacity(ops.len());
    for op in ops {
        let id = ObjectId(op.object % objects.max(1));
        let mode = if op.write {
            LockMode::Exclusive
        } else {
            LockMode::Shared
        };
        match set.iter_mut().find(|(o, _)| *o == id) {
            Some((_, m)) => *m = m.join(mode),
            None => set.push((id, mode)),
        }
    }
    set
}

/// Execute one transaction against the shared core. On commit, returns
/// the attribution stamps with everything up to t4 (`committed_us`)
/// filled in — `submitted_us`/`dequeued_us` are copied from the job, and
/// the driver stamps `replied_us` when the TxnOk actually hits the
/// socket. Non-commit outcomes carry no stamps (nothing was serviced).
fn execute_txn(
    ops: &[TxnOp],
    shared: &Shared,
    core: &Mutex<SharedCore>,
    group: &GroupCommitter,
    submitted_at_us: u64,
    dequeued_us: u64,
) -> (ExecResult, Option<RequestStamps>) {
    let objects = shared.cfg.objects;
    let retry = &shared.cfg.retry;
    let stats = &shared.stats;
    let requests = lockset(ops, objects);
    let has_write = ops.iter().any(|op| op.write);
    let mut attempt = 1u32;
    let mut stamps = RequestStamps {
        submitted_us: submitted_at_us,
        dequeued_us,
        ..RequestStamps::default()
    };
    let token: Option<TxnToken> = loop {
        let mut c = core.lock().unwrap();
        let lock_id = TxnId(c.next_lock_txn);
        if c.locks.try_acquire_all(lock_id, &requests) {
            stamps.locked_us = shared.now_us();
            c.next_lock_txn += 1;
            if !has_write {
                // Read-only commit fast-path: no update records means
                // recovery has nothing to redo, so the transaction
                // never enters the log and never waits for a force.
                // Its "commit LSN" is whatever is already durable.
                for op in ops {
                    let _ = c.values[(op.object % objects.max(1)) as usize];
                }
                let lsn = c.log.current_lsn();
                c.locks.release_all(lock_id);
                drop(c);
                stamps.executed_us = shared.now_us();
                // No group-commit wait on the fast path: t4 == t3.
                stamps.committed_us = stamps.executed_us;
                let completed = stats.record_commit();
                return (
                    ExecResult::Committed {
                        token: None,
                        commit_lsn: lsn,
                        completed,
                        done: false,
                    },
                    Some(stamps),
                );
            }
            let token = c.log.begin();
            for op in ops {
                let slot = (op.object % objects.max(1)) as usize;
                if op.write {
                    c.values[slot] = c.values[slot].wrapping_add(1);
                    c.log.log_update(token, PageId((slot as u32) >> 4), 64);
                } else {
                    // Reads still go through the lock: hold S until commit.
                    let _ = c.values[slot];
                }
            }
            drop(c);
            stamps.executed_us = shared.now_us();
            let lsn = group.commit(token, core, stats);
            let completed = stats.record_commit();
            core.lock().unwrap().locks.release_all(lock_id);
            stamps.committed_us = shared.now_us();
            return (
                ExecResult::Committed {
                    token: Some(token.raw()),
                    commit_lsn: lsn,
                    completed,
                    done: false,
                },
                Some(stamps),
            );
        }
        drop(c);
        if attempt >= retry.max_attempts.max(1) {
            break None;
        }
        // Exponential backoff on the transient conflict, capped so a
        // pathological config cannot stall a worker for seconds.
        thread::sleep(Duration::from_micros(
            retry.backoff_after(attempt).min(20_000),
        ));
        attempt += 1;
    };
    debug_assert!(token.is_none());
    (ExecResult::RetryExhausted { attempts: attempt }, None)
}

// ------------------------------------------------------------ conn glue

enum ConnEvent {
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

struct Shared {
    cfg: ServeConfig,
    stats: ServeStats,
    shutdown: Arc<AtomicBool>,
    start: Instant,
    admission: Mutex<AdmissionControl>,
    acked_tokens: Mutex<Vec<u64>>,
    exec: Mutex<Option<ExecHandle>>,
    slo: Mutex<SloTracker>,
    request_trace: Mutex<Vec<RequestTraceRecord>>,
}

impl Shared {
    fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    /// Full telemetry snapshot: registry + rolling SLO summary. The
    /// only wall-clock read is `uptime_ms`, injected here — the
    /// snapshot/render code itself stays pure.
    fn snapshot(&self) -> StatsSnapshot {
        let mut snap = self
            .stats
            .snapshot(self.now_ms(), self.shutdown.load(Ordering::SeqCst));
        snap.slo = Some(self.slo.lock().unwrap().summary());
        snap
    }

    fn stats_json(&self) -> String {
        self.snapshot().to_json()
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
    let exec = shared.exec.lock().unwrap().clone();
    let mut registered_sessions = 0u64;
    let mut actions: Vec<FsmAction> = Vec::new();
    let mut inputs: VecDeque<ConnEvent> = VecDeque::new();
    // The FSM counts parsed requests per opcode; diffing successive
    // copies keeps the registry exact even when one read carries many
    // frames.
    let mut prev_counts = RequestCounts::default();

    'conn: loop {
        if inputs.is_empty() {
            match rx.recv_timeout(Duration::from_millis(cfg.tick_ms.max(1))) {
                Ok(ev) => inputs.push_back(ev),
                Err(RecvTimeoutError::Timeout) => inputs.push_back(ConnEvent::Tick),
                Err(RecvTimeoutError::Disconnected) => break 'conn,
            }
        }
        let ev = inputs.pop_front().expect("non-empty input queue");
        let now_ms = shared.now_ms();
        // Token and stamps of a just-committed transaction; recorded as
        // acked / latency-attributed only after the TxnOk reply is
        // actually written.
        let mut commit_token: Option<u64> = None;
        let mut commit_stamps: Option<(u32, u64, RequestStamps)> = None;
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
                    commit_token = *token;
                    commit_stamps = stamps.map(|s| (session, client_txn, s));
                }
                fsm.on_input(
                    FsmInput::Executed {
                        session,
                        client_txn,
                        result,
                    },
                    now_ms,
                    &mut actions,
                );
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
                        OP_ERR_DEADLINE => shared.stats.record_error(ErrorKind::DeadlineExceeded),
                        OP_ERR_MALFORMED => shared.stats.record_error(ErrorKind::Malformed),
                        OP_ERR_OVERLOADED => shared.stats.record_error(ErrorKind::Overloaded),
                        OP_ERR_SHUTTING_DOWN => shared.stats.record_error(ErrorKind::ShuttingDown),
                        OP_ERR_RETRY_EXHAUSTED => {
                            shared.stats.record_error(ErrorKind::RetryExhausted)
                        }
                        OP_ERR_INTERNAL => shared.stats.record_error(ErrorKind::Internal),
                        _ => {}
                    }
                    let wrote = write_frame(&mut stream, &frame).is_ok() && stream.flush().is_ok();
                    if wrote {
                        if frame.opcode == OP_OK_TXN {
                            shared.stats.record_txn_ok();
                            if let Some(token) = commit_token.take() {
                                shared.acked_tokens.lock().unwrap().push(token);
                                shared.stats.record_ack();
                            }
                            if let Some((session, client_txn, mut stamps)) = commit_stamps.take() {
                                // t5: the reply actually hit the socket.
                                stamps.replied_us = shared.now_us();
                                let spans = shared.stats.record_request_latency(&stamps);
                                if cfg.trace_requests > 0 {
                                    let mut trace = shared.request_trace.lock().unwrap();
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
                        }
                    } else {
                        // Peer is gone; the FSM sees EOF and closes.
                        inputs.push_back(ConnEvent::Eof);
                    }
                }
                FsmAction::Submit(txn) => {
                    if let Some(result) = submit_txn(&shared, exec.as_ref(), &tx_self, &txn) {
                        inputs.push_back(ConnEvent::Executed {
                            session: txn.session,
                            client_txn: txn.client_txn,
                            result,
                            stamps: None,
                        });
                    }
                }
                FsmAction::SubmitReport => match exec.as_ref() {
                    Some(ExecHandle::Oracle(tx)) => {
                        if tx
                            .send(OracleJob::Report {
                                reply: tx_self.clone(),
                            })
                            .is_err()
                        {
                            inputs.push_back(ConnEvent::ReportReady {
                                json: String::new(),
                            });
                        }
                    }
                    _ => inputs.push_back(ConnEvent::ReportReady {
                        json: shared.stats_json(),
                    }),
                },
                // Answered synchronously from the registry: STATS never
                // queues behind the executor, so it stays responsive
                // under overload and during drain.
                FsmAction::SubmitStats => inputs.push_back(ConnEvent::StatsReady {
                    json: shared.stats_json(),
                }),
                FsmAction::RequestShutdown => shared.shutdown.store(true, Ordering::SeqCst),
                FsmAction::Close => {
                    let _ = stream.shutdown(SockShutdown::Both);
                    break 'conn;
                }
            }
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
    exec: Option<&ExecHandle>,
    tx_self: &Sender<ConnEvent>,
    txn: &TxnRequest,
) -> Option<ExecResult> {
    if shared.shutdown.load(Ordering::SeqCst) {
        return Some(ExecResult::ShuttingDown);
    }
    match exec {
        Some(ExecHandle::Concurrent(job_tx)) => {
            let depth = shared.stats.queue_depth() as usize;
            let admitted = shared.admission.lock().unwrap().admit(depth);
            shared.stats.set_admission_shedding(!admitted);
            if !admitted {
                return Some(ExecResult::Overloaded);
            }
            let deadline_ms = if txn.deadline_ms == 0 {
                shared.cfg.default_deadline_ms
            } else {
                txn.deadline_ms
            };
            let job = Job {
                session: txn.session,
                client_txn: txn.client_txn,
                ops: txn.ops.clone(),
                deadline_at: Instant::now() + Duration::from_millis(u64::from(deadline_ms)),
                submitted_at_us: shared.now_us(),
                reply: tx_self.clone(),
            };
            // Enter the gauge before the send: an idle worker can dequeue
            // and `queue_leave` before `try_send` even returns, and a leave
            // on a gauge still at 0 wraps it to 2^64 - 1, which admission
            // then reads as a full queue.
            shared.stats.queue_enter();
            match job_tx.try_send(job) {
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
        Some(ExecHandle::Oracle(tx)) => {
            if tx
                .send(OracleJob::Txn {
                    session: txn.session,
                    client_txn: txn.client_txn,
                    submitted_at_us: shared.now_us(),
                    reply: tx_self.clone(),
                })
                .is_err()
            {
                return Some(ExecResult::ShuttingDown);
            }
            None
        }
        None => Some(ExecResult::ShuttingDown),
    }
}

fn worker_thread(
    rx: Arc<Mutex<Receiver<Job>>>,
    core: Arc<Mutex<SharedCore>>,
    group: Arc<GroupCommitter>,
    shared: Arc<Shared>,
) {
    loop {
        let job = match rx.lock().unwrap().recv() {
            Ok(job) => job,
            Err(_) => return,
        };
        shared.stats.queue_leave();
        // t1: the job left the queue — everything before this instant
        // is admission wait.
        let dequeued_us = shared.now_us();
        let (result, stamps) = if Instant::now() >= job.deadline_at {
            // Deadline expired while queued: drop the work unexecuted.
            (ExecResult::DeadlineExceeded, None)
        } else {
            execute_txn(
                &job.ops,
                &shared,
                &core,
                &group,
                job.submitted_at_us,
                dequeued_us,
            )
        };
        let _ = job.reply.send(ConnEvent::Executed {
            session: job.session,
            client_txn: job.client_txn,
            result,
            stamps,
        });
    }
}

fn oracle_thread(rx: Receiver<OracleJob>, cfg: SimConfig, shared: Arc<Shared>) {
    // The engine is built on this thread (trace sinks are not Send);
    // all requests serialize through this one channel, which is what
    // makes the served event sequence identical to `run_simulation`.
    let mut engine = Some(Engine::new(cfg));
    let mut cached_report: Option<String> = None;
    let mut final_completed = 0u64;
    for job in rx {
        match job {
            OracleJob::Txn {
                session,
                client_txn,
                submitted_at_us,
                reply,
            } => {
                // Oracle attribution: no queue, no locks, no group
                // commit — everything between dequeue and reply is
                // engine execution.
                let dequeued_us = shared.now_us();
                let (completed, done) = match engine.as_mut() {
                    Some(eng) => {
                        eng.step_transaction();
                        let c = eng.completed_txns();
                        (c, c >= eng.target_txns())
                    }
                    None => (final_completed, true),
                };
                final_completed = completed;
                let executed_us = shared.now_us();
                let stamps = RequestStamps {
                    submitted_us: submitted_at_us,
                    dequeued_us,
                    locked_us: dequeued_us,
                    executed_us,
                    committed_us: executed_us,
                    ..RequestStamps::default()
                };
                let _ = reply.send(ConnEvent::Executed {
                    session,
                    client_txn,
                    result: ExecResult::Committed {
                        token: None,
                        commit_lsn: 0,
                        completed,
                        done,
                    },
                    stamps: Some(stamps),
                });
            }
            OracleJob::Report { reply } => {
                if cached_report.is_none() {
                    if let Some(eng) = engine.take() {
                        let report = eng.run();
                        final_completed = report.txns;
                        cached_report = Some(report.to_json());
                    }
                }
                let _ = reply.send(ConnEvent::ReportReady {
                    json: cached_report.clone().unwrap_or_default(),
                });
            }
        }
    }
}

// --------------------------------------------------------------- server

/// A running server, owned by the thread that called [`Server::start`].
pub struct ServerHandle {
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    shutdown: Arc<AtomicBool>,
    join: JoinHandle<ServeReport>,
}

impl ServerHandle {
    /// The bound address (useful with `addr = "127.0.0.1:0"`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound Prometheus-exposition address, when
    /// [`ServeConfig::metrics_addr`] was set.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Begin graceful drain: stop accepting, finish in-flight
    /// transactions, reject new work, close connections.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Whether drain has been requested (by signal, client SHUTDOWN
    /// frame, or [`ServerHandle::request_shutdown`]).
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Wait for drain to finish and collect the final report (with the
    /// ACID verdict from replaying the durable log through recovery).
    pub fn join(self) -> Result<ServeReport, ServeError> {
        self.join
            .join()
            .map_err(|_| ServeError::Internal("server thread panicked".into()))
    }
}

/// The TCP server front-end.
pub struct Server;

impl Server {
    /// Bind `addr` and start serving in background threads. Returns
    /// once the listener is bound.
    pub fn start(cfg: ServeConfig, addr: &str) -> Result<ServerHandle, ServeError> {
        let listener = TcpListener::bind(addr).map_err(|e| ServeError::Net {
            context: format!("bind {addr}"),
            source: e.to_string(),
        })?;
        let bound = listener.local_addr().map_err(|e| ServeError::Net {
            context: "local_addr".into(),
            source: e.to_string(),
        })?;
        listener
            .set_nonblocking(true)
            .map_err(|e| ServeError::Net {
                context: "set_nonblocking".into(),
                source: e.to_string(),
            })?;
        // Bind the metrics endpoint up front so the caller learns the
        // resolved port (metrics_addr may be ":0") before any traffic.
        let metrics_listener = match &cfg.metrics_addr {
            Some(addr) => {
                let l = TcpListener::bind(addr).map_err(|e| ServeError::Net {
                    context: format!("bind metrics {addr}"),
                    source: e.to_string(),
                })?;
                l.set_nonblocking(true).map_err(|e| ServeError::Net {
                    context: "set_nonblocking metrics".into(),
                    source: e.to_string(),
                })?;
                Some(l)
            }
            None => None,
        };
        let metrics_addr = metrics_listener.as_ref().and_then(|l| l.local_addr().ok());
        let shutdown = Arc::new(AtomicBool::new(false));
        let shutdown2 = Arc::clone(&shutdown);
        let join = thread::Builder::new()
            .name("serve-accept".into())
            .spawn(move || accept_loop(listener, metrics_listener, cfg, shutdown2))
            .map_err(|e| ServeError::Net {
                context: "spawn accept thread".into(),
                source: e.to_string(),
            })?;
        Ok(ServerHandle {
            addr: bound,
            metrics_addr,
            shutdown,
            join,
        })
    }
}

/// Minimal read-only HTTP/1.0-style responder for Prometheus scrapes.
/// One request per connection: read whatever the scraper sends (the
/// request line and headers are ignored — every path serves the same
/// exposition), write one `200 OK` with the rendered snapshot, close.
fn metrics_conn(mut stream: TcpStream, shared: &Shared) {
    stream
        .set_read_timeout(Some(Duration::from_millis(500)))
        .ok();
    let mut buf = [0u8; 1024];
    let _ = std::io::Read::read(&mut stream, &mut buf);
    let body = shared.snapshot().to_prometheus();
    let resp = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    );
    let _ = stream.write_all(resp.as_bytes());
    let _ = stream.flush();
    let _ = stream.shutdown(SockShutdown::Both);
}

/// Accept loop for the metrics listener. Scrapes are served until the
/// stop flag flips — which happens only after the drain completes, so
/// operators can watch the drain itself through this endpoint.
fn metrics_loop(listener: TcpListener, shared: Arc<Shared>, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => metrics_conn(stream, &shared),
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(5));
            }
            Err(_) => thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Executor plumbing built before `Shared` exists; workers are spawned
/// right after, once the `Shared` handle they need is constructed.
enum ExecSetup {
    Oracle(Receiver<OracleJob>, Box<SimConfig>),
    Concurrent(
        Arc<Mutex<Receiver<Job>>>,
        Arc<Mutex<SharedCore>>,
        Arc<GroupCommitter>,
    ),
}

#[allow(clippy::too_many_lines)]
fn accept_loop(
    listener: TcpListener,
    metrics_listener: Option<TcpListener>,
    cfg: ServeConfig,
    shutdown: Arc<AtomicBool>,
) -> ServeReport {
    let timeline_interval = cfg.timeline_interval_ms;
    // Executor backend.
    let mut worker_handles: Vec<JoinHandle<()>> = Vec::new();
    let mut core_for_verdict: Option<Arc<Mutex<SharedCore>>> = None;
    let (exec, setup) = match &cfg.mode {
        ServeMode::Oracle(sim) => {
            let (tx, rx) = mpsc::channel::<OracleJob>();
            (ExecHandle::Oracle(tx), ExecSetup::Oracle(rx, sim.clone()))
        }
        ServeMode::Concurrent => {
            let (tx, rx) = mpsc::sync_channel::<Job>(cfg.queue_cap.max(1));
            let rx = Arc::new(Mutex::new(rx));
            let core = Arc::new(Mutex::new(SharedCore {
                locks: LockManager::new(),
                log: LogManager::with_retention(LogConfig::default()),
                values: vec![0; cfg.objects.max(1) as usize],
                next_lock_txn: 1,
            }));
            core_for_verdict = Some(Arc::clone(&core));
            let group = Arc::new(GroupCommitter::new(cfg.group_window_us));
            (
                ExecHandle::Concurrent(tx),
                ExecSetup::Concurrent(rx, core, group),
            )
        }
    };
    let shared = Arc::new(Shared {
        admission: Mutex::new(AdmissionControl::new(cfg.queue_cap.max(1), &cfg.admission)),
        slo: Mutex::new(SloTracker::new(cfg.slo_window)),
        cfg,
        stats: ServeStats::new(),
        shutdown: Arc::clone(&shutdown),
        start: Instant::now(),
        acked_tokens: Mutex::new(Vec::new()),
        exec: Mutex::new(Some(exec)),
        request_trace: Mutex::new(Vec::new()),
    });
    match setup {
        ExecSetup::Oracle(rx, sim) => {
            let shared2 = Arc::clone(&shared);
            worker_handles.push(
                thread::Builder::new()
                    .name("serve-oracle".into())
                    .spawn(move || oracle_thread(rx, *sim, shared2))
                    .expect("spawn oracle thread"),
            );
        }
        ExecSetup::Concurrent(rx, core, group) => {
            for w in 0..shared.cfg.workers.max(1) {
                let rx = Arc::clone(&rx);
                let core = Arc::clone(&core);
                let group = Arc::clone(&group);
                let shared = Arc::clone(&shared);
                worker_handles.push(
                    thread::Builder::new()
                        .name(format!("serve-worker-{w}"))
                        .spawn(move || worker_thread(rx, core, group, shared))
                        .expect("spawn worker"),
                );
            }
        }
    }
    // Sampler: always runs — it is what advances the SLO window — and
    // additionally records timeline points when sampling was requested.
    let sampler_stop = Arc::new(AtomicBool::new(false));
    let sampler = {
        let shared2 = Arc::clone(&shared);
        let stop = Arc::clone(&sampler_stop);
        let interval = if timeline_interval > 0 {
            timeline_interval
        } else {
            shared.cfg.tick_ms.max(1)
        };
        let timeline = if timeline_interval > 0 {
            Some(Arc::new(Mutex::new(ServeTimeline::new(timeline_interval))))
        } else {
            None
        };
        let timeline2 = timeline.clone();
        let handle = thread::Builder::new()
            .name("serve-timeline".into())
            .spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    let snap = shared2
                        .stats
                        .snapshot(shared2.now_ms(), shared2.shutdown.load(Ordering::SeqCst));
                    shared2.slo.lock().unwrap().observe(&snap);
                    if let Some(timeline) = &timeline2 {
                        timeline.lock().unwrap().push(ServePoint {
                            t_ms: snap.uptime_ms,
                            queue_depth: snap.gauge("queue_depth"),
                            connections: snap.gauge("connections_live"),
                            sessions: snap.gauge("sessions_live"),
                            acked: snap.counter("acked"),
                            sheds: snap.counter("err.overloaded"),
                            deadline_misses: snap.counter("err.deadline"),
                        });
                    }
                    thread::sleep(Duration::from_millis(interval));
                }
            })
            .expect("spawn timeline sampler");
        (handle, timeline)
    };
    // Prometheus exposition endpoint, served until the drain completes.
    let metrics_stop = Arc::new(AtomicBool::new(false));
    let metrics_handle = metrics_listener.map(|l| {
        let shared2 = Arc::clone(&shared);
        let stop = Arc::clone(&metrics_stop);
        thread::Builder::new()
            .name("serve-metrics".into())
            .spawn(move || metrics_loop(l, shared2, stop))
            .expect("spawn metrics listener")
    });

    // Accept until drain is requested.
    let mut conn_txs: Vec<Sender<ConnEvent>> = Vec::new();
    let mut driver_handles: Vec<JoinHandle<()>> = Vec::new();
    let mut reader_handles: Vec<JoinHandle<()>> = Vec::new();
    let mut next_conn = 0u32;
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                stream.set_nodelay(true).ok();
                let (tx, rx) = mpsc::channel::<ConnEvent>();
                let reader_stream = match stream.try_clone() {
                    Ok(s) => s,
                    Err(_) => continue,
                };
                let tx_reader = tx.clone();
                reader_handles.push(
                    thread::Builder::new()
                        .name(format!("serve-read-{next_conn}"))
                        .spawn(move || reader_thread(reader_stream, tx_reader))
                        .expect("spawn reader"),
                );
                // Session-id space is striped per connection so HELLO
                // can register any count without collisions.
                let session_base = next_conn.wrapping_mul(1_000_000).wrapping_add(1);
                let shared2 = Arc::clone(&shared);
                let tx_self = tx.clone();
                driver_handles.push(
                    thread::Builder::new()
                        .name(format!("serve-conn-{next_conn}"))
                        .spawn(move || conn_driver(stream, rx, tx_self, session_base, shared2))
                        .expect("spawn conn driver"),
                );
                conn_txs.push(tx);
                next_conn = next_conn.wrapping_add(1);
            }
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(5));
            }
            Err(_) => thread::sleep(Duration::from_millis(5)),
        }
    }

    // Drain: tell every connection, wait for them, then retire the
    // executor and compute the ACID verdict.
    for tx in &conn_txs {
        let _ = tx.send(ConnEvent::Shutdown);
    }
    for h in driver_handles {
        let _ = h.join();
    }
    for h in reader_handles {
        let _ = h.join();
    }
    shared.exec.lock().unwrap().take();
    let mut clean_drain = true;
    for h in worker_handles {
        clean_drain &= h.join().is_ok();
    }
    sampler_stop.store(true, Ordering::SeqCst);
    let timeline = {
        let (handle, timeline) = sampler;
        let _ = handle.join();
        timeline.map(|t| t.lock().unwrap().clone())
    };

    // ACID verdict: replay the durable log through recovery; every
    // acked transaction must be a winner.
    let acid_violations = match core_for_verdict {
        Some(core) => {
            let mut core = core.lock().unwrap();
            let durable = core.log.crash();
            let outcome = recover(&durable);
            let mut winners: Vec<u64> = outcome.winners.iter().map(|t| t.raw()).collect();
            winners.sort_unstable();
            let acked = shared.acked_tokens.lock().unwrap();
            acked
                .iter()
                .filter(|t| winners.binary_search(t).is_err())
                .count() as u64
        }
        None => 0,
    };

    // Keep serving scrapes through the drain; stop only once the final
    // (exact — all recorders joined) snapshot is about to be taken.
    metrics_stop.store(true, Ordering::SeqCst);
    if let Some(h) = metrics_handle {
        let _ = h.join();
    }

    let stats = shared.snapshot();
    let request_trace = std::mem::take(&mut *shared.request_trace.lock().unwrap());
    ServeReport {
        connections: stats.counter("connections"),
        sessions_peak: stats.gauge("sessions_peak"),
        committed: stats.counter("committed"),
        acked: stats.counter("acked"),
        sheds: stats.counter("err.overloaded"),
        deadline_misses: stats.counter("err.deadline"),
        malformed: stats.counter("err.malformed"),
        retry_exhausted: stats.counter("err.retry_exhausted"),
        shutdown_rejected: stats.counter("err.shutting_down"),
        group_commits: stats.counter("group_commits"),
        group_forces: stats.counter("group_forces"),
        group_txns: stats.counter("group_txns"),
        acid_violations,
        clean_drain,
        timeline,
        stats,
        request_trace,
    }
}
