//! The multi-client TCP server.
//!
//! Std-only threading: one accept loop, one reader + one driver thread
//! per connection, a bank of executor workers over a bounded job queue,
//! and one committer thread batching WAL forces across concurrently
//! committing transactions. Two modes share the wire protocol:
//!
//! * **Oracle** — a single executor thread owns a deterministic
//!   [`Engine`] and advances it one transaction per TXN request; REPORT
//!   returns [`crate::RunReport::to_json`] bytes that must be
//!   byte-identical to an in-process [`crate::run_simulation`] of the
//!   same config. This is the equivalence contract that keeps the
//!   simulator the correctness oracle for the served path.
//! * **Concurrent** — worker threads drive one shared core (lock
//!   manager + WAL + object values) with conservative all-or-nothing
//!   locking, and the executor is event-driven: no worker blocks on a
//!   log force, and no lock waiter sleeps past the release it waits
//!   for. A worker applies a write transaction under the core mutex
//!   (its one acquisition), hands it down a channel to the committer
//!   and goes back to the queue; the committer gathers for the window,
//!   then commits the whole batch, releases its locks and acknowledges
//!   its members under a single mutex hold (`commit_thread`). A worker
//!   whose lock set conflicts waits on a condvar that every lock
//!   release signals, within a retry budget counted in elapsed time
//!   (`acquire_locks`). At drain the server replays its own durable
//!   log through [`semcluster_wal::recover`] and reports any
//!   acknowledged transaction that recovery does not consider a winner
//!   as an ACID violation.
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
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use semcluster_faults::{DegradationPolicy, RetryPolicy};
use semcluster_lock::{LockManager, LockMode, TxnId};
use semcluster_obs::{ServePoint, ServeTimeline};
use semcluster_storage::PageId;
use semcluster_vdm::ObjectId;
use semcluster_wal::{recover, LogConfig, LogManager, TxnToken};

use super::admission::AdmissionControl;
use super::protocol::{write_frame, ErrorKind, TxnOp, TxnRequest, OP_OK_HELLO, OP_OK_TXN};
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
    /// Retry budget for lock conflicts, counted in elapsed time: attempt
    /// `k` lasts `backoff_after(k)` µs of waiting for a release, and the
    /// request's deadline ends the wait early.
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

/// Retained-log records reserved when the server starts (≈1.3 MB of
/// address space; its pages are touched only as records land), so no
/// flush regrows — and re-copies — the log under the core mutex.
const RETAINED_LOG_RESERVE: usize = 1 << 15;

/// The state every concurrent-mode transaction contends on: the lock
/// table arbitrates access, the WAL makes effects durable, `values` is
/// the object store the transactions actually read and write.
struct SharedCore {
    locks: LockManager,
    log: LogManager,
    values: Vec<u64>,
    next_lock_txn: u64,
    /// Workers parked on [`Core::released`] right now. Read by whoever
    /// releases locks, under the same mutex, so a release with nobody
    /// waiting costs no wake-up call.
    lock_waiters: usize,
}

/// The shared core paired with the condvar its lock releases signal: a
/// worker whose lock set conflicted waits here and re-tries at the
/// release it was waiting for, not at a timer.
struct Core {
    state: Mutex<SharedCore>,
    released: Condvar,
}

impl Core {
    fn new(objects: u32) -> Core {
        let mut log = LogManager::with_retention(LogConfig::default());
        log.reserve_retained(RETAINED_LOG_RESERVE);
        Core {
            state: Mutex::new(SharedCore {
                locks: LockManager::new(),
                log,
                values: vec![0; objects.max(1) as usize],
                next_lock_txn: 1,
                lock_waiters: 0,
            }),
            released: Condvar::new(),
        }
    }

    /// Unlock the core after releasing object locks, waking the workers
    /// parked on a conflict (once the mutex is free for them to take).
    fn unlock_after_release(&self, c: MutexGuard<'_, SharedCore>) {
        let wake = c.lock_waiters > 0;
        drop(c);
        if wake {
            self.released.notify_all();
        }
    }
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

impl Job {
    fn resolve(self, result: ExecResult, stamps: Option<RequestStamps>) {
        let _ = self.reply.send(ConnEvent::Executed {
            session: self.session,
            client_txn: self.client_txn,
            result,
            stamps,
        });
    }
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

/// A write transaction a worker has applied under its locks and handed
/// to the committer: its update records are in the log tail, its commit
/// record is not yet forced, and its object locks stay held until it is
/// (strict two-phase locking through the durability point).
struct PendingCommit {
    job: Job,
    token: TxnToken,
    lock_id: TxnId,
    /// Stamps through t3; the committer fills `committed_us`.
    stamps: RequestStamps,
}

/// The group committer: the one thread that forces the log. It blocks
/// for the first pending commit, gathers for the window, drains whatever
/// else the workers handed off meanwhile, and then holds the core mutex
/// **once** for the whole batch — one [`LogManager::commit_group`], then
/// every member's locks released — before acknowledging each member to
/// its connection (ack strictly after the force). Workers never wait for
/// it; it exits when the last worker drops its sender.
fn commit_thread(rx: Receiver<PendingCommit>, core: Arc<Core>, shared: Arc<Shared>) {
    let window = Duration::from_micros(shared.cfg.group_window_us);
    let mut batch: Vec<PendingCommit> = Vec::new();
    let mut tokens: Vec<TxnToken> = Vec::new();
    while let Ok(first) = rx.recv() {
        batch.push(first);
        if !window.is_zero() {
            thread::sleep(window);
        }
        batch.extend(rx.try_iter());
        tokens.extend(batch.iter().map(|p| p.token));
        // A worker that panicked under the core mutex poisoned it: the
        // batch cannot be made durable, so its members are failed (typed
        // INTERNAL) rather than the committer dying too and stranding
        // every session behind it.
        let commit_lsn = core.state.lock().ok().map(|mut c| {
            let forces = c.log.commit_group(&tokens);
            let lsn = c.log.current_lsn();
            for p in &batch {
                c.locks.release_all(p.lock_id);
            }
            core.unlock_after_release(c);
            shared
                .stats
                .record_group_flush(tokens.len() as u64, u64::from(forces));
            lsn
        });
        tokens.clear();
        let committed_us = shared.now_us();
        for mut p in batch.drain(..) {
            match commit_lsn {
                Some(commit_lsn) => {
                    p.stamps.committed_us = committed_us;
                    let result = ExecResult::Committed {
                        token: Some(p.token.raw()),
                        commit_lsn,
                        completed: shared.stats.record_commit(),
                        done: false,
                    };
                    p.job.resolve(result, Some(p.stamps));
                }
                None => p.job.resolve(
                    ExecResult::Failed("core mutex poisoned before the commit force".into()),
                    None,
                ),
            }
        }
    }
}

/// Build the (deduplicated, mode-joined) lock set for a transaction into
/// `set`, a buffer the worker reuses from job to job. Sorted by object:
/// acquisition is all-or-nothing, so no order is relied on.
fn lockset(ops: &[TxnOp], objects: u32, set: &mut Vec<(ObjectId, LockMode)>) {
    set.clear();
    set.extend(ops.iter().map(|op| {
        let mode = if op.write {
            LockMode::Exclusive
        } else {
            LockMode::Shared
        };
        (ObjectId(op.object % objects.max(1)), mode)
    }));
    set.sort_unstable_by_key(|&(object, _)| object);
    set.dedup_by(|dup, kept| {
        let same = dup.0 == kept.0;
        if same {
            kept.1 = kept.1.join(dup.1);
        }
        same
    });
}

/// Take every lock in `requests` or none, returning the core still
/// locked. A conflict waits on [`Core::released`] instead of sleeping,
/// and the retry budget is a *time* budget: attempt `k` lasts until
/// `retry.backoff_after(k)` has elapsed, a release re-tries without
/// consuming an attempt, and only an elapsed interval does — so
/// `RETRY_EXHAUSTED` means the conflict lasted the whole budget
/// (2 + 4 + 8 ms under the default policy), however many releases woke
/// the waiter meanwhile. The wait is also cut short by the job's
/// deadline. All-or-nothing acquisition means no hold-and-wait, hence no
/// deadlock.
fn acquire_locks<'a>(
    core: &'a Core,
    requests: &[(ObjectId, LockMode)],
    retry: &RetryPolicy,
    deadline_at: Instant,
) -> Result<(MutexGuard<'a, SharedCore>, TxnId), ExecResult> {
    let max_attempts = retry.max_attempts.max(1);
    let mut attempt = 1u32;
    let mut attempt_ends: Option<Instant> = None;
    let mut c = core.state.lock().unwrap();
    loop {
        let lock_id = TxnId(c.next_lock_txn);
        if c.locks.try_acquire_all(lock_id, requests) {
            c.next_lock_txn += 1;
            return Ok((c, lock_id));
        }
        if attempt >= max_attempts {
            return Err(ExecResult::RetryExhausted { attempts: attempt });
        }
        let now = Instant::now();
        if now >= deadline_at {
            return Err(ExecResult::DeadlineExceeded);
        }
        let ends = *attempt_ends
            .get_or_insert_with(|| now + Duration::from_micros(retry.backoff_after(attempt)));
        if now < ends {
            c.lock_waiters += 1;
            let wait = ends.min(deadline_at) - now;
            c = core.released.wait_timeout(c, wait).unwrap().0;
            c.lock_waiters -= 1;
        }
        if Instant::now() >= ends {
            attempt += 1;
            attempt_ends = None;
        }
    }
}

/// How a worker left a transaction.
enum Executed {
    /// Resolved on the worker. A commit (the read-only fast path)
    /// carries its attribution stamps through t4; other outcomes carry
    /// none (nothing was serviced).
    Resolved(ExecResult, Option<RequestStamps>),
    /// A write transaction, applied and logged under its locks, whose
    /// commit record the committer has yet to force.
    AwaitingForce {
        token: TxnToken,
        lock_id: TxnId,
        /// Stamps through t3 (`executed_us`).
        stamps: RequestStamps,
    },
}

/// Execute one transaction against the shared core, taking the core
/// mutex once. `submitted_us`/`dequeued_us` of the stamps are copied from
/// the job; the committer stamps `committed_us` after the force and the
/// driver stamps `replied_us` when the TxnOk actually hits the socket.
fn execute_txn(
    job: &Job,
    dequeued_us: u64,
    requests: &mut Vec<(ObjectId, LockMode)>,
    core: &Core,
    shared: &Shared,
) -> Executed {
    let objects = shared.cfg.objects.max(1);
    let ops = &job.ops;
    lockset(ops, objects, requests);
    let mut stamps = RequestStamps {
        submitted_us: job.submitted_at_us,
        dequeued_us,
        ..RequestStamps::default()
    };
    let (mut c, lock_id) = match acquire_locks(core, requests, &shared.cfg.retry, job.deadline_at) {
        Ok(held) => held,
        Err(result) => return Executed::Resolved(result, None),
    };
    stamps.locked_us = shared.now_us();
    if !ops.iter().any(|op| op.write) {
        // Read-only commit fast-path: no update records means recovery
        // has nothing to redo, so the transaction never enters the log
        // and never waits for a force. Its "commit LSN" is whatever is
        // already durable.
        for op in ops {
            let _ = c.values[(op.object % objects) as usize];
        }
        let commit_lsn = c.log.current_lsn();
        c.locks.release_all(lock_id);
        core.unlock_after_release(c);
        stamps.executed_us = shared.now_us();
        // No group-commit wait on the fast path: t4 == t3.
        stamps.committed_us = stamps.executed_us;
        let result = ExecResult::Committed {
            token: None,
            commit_lsn,
            completed: shared.stats.record_commit(),
            done: false,
        };
        return Executed::Resolved(result, Some(stamps));
    }
    let token = c.log.begin();
    for op in ops {
        let slot = (op.object % objects) as usize;
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
    Executed::AwaitingForce {
        token,
        lock_id,
        stamps,
    }
}

/// Everything a worker does with a dequeued job: execute it, then either
/// resolve it to its connection or hand it to the committer and move on.
fn process_job(
    job: Job,
    dequeued_us: u64,
    requests: &mut Vec<(ObjectId, LockMode)>,
    core: &Core,
    commits: &Sender<PendingCommit>,
    shared: &Shared,
) {
    if Instant::now() >= job.deadline_at {
        // Deadline expired while queued: drop the work unexecuted.
        return job.resolve(ExecResult::DeadlineExceeded, None);
    }
    match execute_txn(&job, dequeued_us, requests, core, shared) {
        Executed::Resolved(result, stamps) => job.resolve(result, stamps),
        Executed::AwaitingForce {
            token,
            lock_id,
            stamps,
        } => {
            let pending = PendingCommit {
                job,
                token,
                lock_id,
                stamps,
            };
            if let Err(mpsc::SendError(p)) = commits.send(pending) {
                // The committer is gone, so nothing will ever force this
                // transaction: give its locks back and fail it now (typed
                // INTERNAL) instead of leaving the client to its deadline.
                let mut c = core.state.lock().unwrap();
                c.log.abort(p.token);
                c.locks.release_all(p.lock_id);
                core.unlock_after_release(c);
                p.job
                    .resolve(ExecResult::Failed("commit thread is gone".into()), None);
            }
        }
    }
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
    fn new(cfg: ServeConfig, shutdown: Arc<AtomicBool>, exec: Option<ExecHandle>) -> Shared {
        Shared {
            admission: Mutex::new(AdmissionControl::new(cfg.queue_cap.max(1), &cfg.admission)),
            slo: Mutex::new(SloTracker::new(cfg.slo_window)),
            cfg,
            stats: ServeStats::new(),
            shutdown,
            start: Instant::now(),
            acked_tokens: Mutex::new(Vec::new()),
            exec: Mutex::new(exec),
            request_trace: Mutex::new(Vec::new()),
        }
    }

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
                        op => {
                            if let Some(kind) = ErrorKind::from_opcode(op) {
                                shared.stats.record_error(kind);
                            }
                        }
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
    txn: TxnRequest,
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
                ops: txn.ops,
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
    core: Arc<Core>,
    commits: Sender<PendingCommit>,
    shared: Arc<Shared>,
) {
    let mut requests = Vec::new();
    loop {
        let job = match rx.lock().unwrap().recv() {
            Ok(job) => job,
            Err(_) => return,
        };
        shared.stats.queue_leave();
        // t1: the job left the queue — everything before this instant
        // is admission wait.
        let dequeued_us = shared.now_us();
        process_job(job, dequeued_us, &mut requests, &core, &commits, &shared);
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
    Concurrent(Arc<Mutex<Receiver<Job>>>, Arc<Core>),
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
    let mut core_for_verdict: Option<Arc<Core>> = None;
    let (exec, setup) = match &cfg.mode {
        ServeMode::Oracle(sim) => {
            let (tx, rx) = mpsc::channel::<OracleJob>();
            (ExecHandle::Oracle(tx), ExecSetup::Oracle(rx, sim.clone()))
        }
        ServeMode::Concurrent => {
            let (tx, rx) = mpsc::sync_channel::<Job>(cfg.queue_cap.max(1));
            let rx = Arc::new(Mutex::new(rx));
            // Built (and its retained log reserved) here, on the accept
            // thread: what lives as long as the server is sized once, by
            // the thread that lives as long, not regrown by a worker.
            let core = Arc::new(Core::new(cfg.objects));
            core_for_verdict = Some(Arc::clone(&core));
            (ExecHandle::Concurrent(tx), ExecSetup::Concurrent(rx, core))
        }
    };
    let shared = Arc::new(Shared::new(cfg, Arc::clone(&shutdown), Some(exec)));
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
        ExecSetup::Concurrent(rx, core) => {
            // The workers hold the only senders, so the committer exits
            // once the last of them has; pushed last, it is joined last.
            let (commits, commit_rx) = mpsc::channel::<PendingCommit>();
            for w in 0..shared.cfg.workers.max(1) {
                let rx = Arc::clone(&rx);
                let core = Arc::clone(&core);
                let commits = commits.clone();
                let shared = Arc::clone(&shared);
                worker_handles.push(
                    thread::Builder::new()
                        .name(format!("serve-worker-{w}"))
                        .spawn(move || worker_thread(rx, core, commits, shared))
                        .expect("spawn worker"),
                );
            }
            drop(commits);
            let shared2 = Arc::clone(&shared);
            worker_handles.push(
                thread::Builder::new()
                    .name("serve-commit".into())
                    .spawn(move || commit_thread(commit_rx, core, shared2))
                    .expect("spawn commit thread"),
            );
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
            // A thread that died under the mutex already reads as an
            // unclean drain; the log it leaves is still the one to judge.
            let mut core = core.state.lock().unwrap_or_else(PoisonError::into_inner);
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

#[cfg(test)]
mod tests {
    use super::*;

    fn op(write: bool, object: u32) -> TxnOp {
        TxnOp { write, object }
    }

    fn shared(retry: RetryPolicy) -> Shared {
        let cfg = ServeConfig {
            retry,
            objects: 16,
            ..ServeConfig::default()
        };
        Shared::new(cfg, Arc::new(AtomicBool::new(false)), None)
    }

    /// No second chance: a lock conflict resolves at once.
    fn one_attempt() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    fn job(client_txn: u64, ops: Vec<TxnOp>, reply: &Sender<ConnEvent>) -> Job {
        Job {
            session: 1,
            client_txn,
            ops,
            deadline_at: Instant::now() + Duration::from_secs(30),
            submitted_at_us: 0,
            reply: reply.clone(),
        }
    }

    fn executed(replies: &Receiver<ConnEvent>) -> (u64, ExecResult) {
        match replies.try_recv() {
            Ok(ConnEvent::Executed {
                client_txn, result, ..
            }) => (client_txn, result),
            _ => panic!("expected an Executed event"),
        }
    }

    #[test]
    fn lockset_dedups_and_joins_modes_whatever_the_op_order() {
        let mut set = vec![(ObjectId(99), LockMode::Shared)];
        // Object 3 is read, written (as 19 % 16) and read again; object 1
        // is only read; object 5 only written.
        let ops = [
            op(false, 3),
            op(false, 1),
            op(true, 19),
            op(true, 5),
            op(false, 3),
        ];
        lockset(&ops, 16, &mut set);
        let expect = vec![
            (ObjectId(1), LockMode::Shared),
            (ObjectId(3), LockMode::Exclusive),
            (ObjectId(5), LockMode::Exclusive),
        ];
        assert_eq!(set, expect, "the reused buffer holds only this lock set");
        let mut reversed = Vec::new();
        let rev: Vec<TxnOp> = ops.iter().rev().copied().collect();
        lockset(&rev, 16, &mut reversed);
        assert_eq!(reversed, expect, "op order does not show in the set");
        // Nor does acquisition lean on it: any order takes the same locks.
        let mut locks = LockManager::new();
        let backwards: Vec<_> = expect.iter().rev().copied().collect();
        assert!(locks.try_acquire_all(TxnId(1), &backwards));
        assert!(!locks.try_acquire_all(TxnId(2), &[(ObjectId(1), LockMode::Exclusive)]));
        locks.release_all(TxnId(1));
        assert!(locks.try_acquire_all(TxnId(2), &expect));
        // `objects == 0` is read as 1: everything maps to object 0.
        lockset(&[op(false, 7), op(true, 9)], 0, &mut set);
        assert_eq!(set, vec![(ObjectId(0), LockMode::Exclusive)]);
    }

    #[test]
    fn a_dead_committer_fails_the_transaction_and_frees_its_locks() {
        let shared = shared(one_attempt());
        let core = Core::new(shared.cfg.objects);
        let (reply, replies) = mpsc::channel();
        let mut requests = Vec::new();
        let (commits, commit_rx) = mpsc::channel();
        drop(commit_rx);
        process_job(
            job(1, vec![op(true, 7)], &reply),
            0,
            &mut requests,
            &core,
            &commits,
            &shared,
        );
        let (client_txn, result) = executed(&replies);
        assert_eq!(client_txn, 1);
        assert!(
            matches!(result, ExecResult::Failed(_)),
            "expected Failed, got {result:?}"
        );
        assert_eq!(core.state.lock().unwrap().log.open_transactions(), 0);

        // The same object is free at once: with a single attempt a held
        // lock would resolve this job as RetryExhausted, not hand it off.
        let (commits, commit_rx) = mpsc::channel();
        process_job(
            job(2, vec![op(true, 7)], &reply),
            0,
            &mut requests,
            &core,
            &commits,
            &shared,
        );
        assert!(replies.try_recv().is_err(), "handed off, not yet resolved");
        let pending = commit_rx.try_recv().expect("handed to the committer");
        assert_eq!(pending.job.client_txn, 2);
        // ...and while that one awaits its force, a third conflicts.
        process_job(
            job(3, vec![op(false, 7)], &reply),
            0,
            &mut requests,
            &core,
            &commits,
            &shared,
        );
        assert_eq!(
            executed(&replies),
            (3, ExecResult::RetryExhausted { attempts: 1 })
        );
    }

    #[test]
    fn the_committer_survives_a_poisoned_core_and_fails_its_batch() {
        let shared = Arc::new(shared(one_attempt()));
        let core = Arc::new(Core::new(shared.cfg.objects));
        let (reply, replies) = mpsc::channel();
        let (commits, commit_rx) = mpsc::channel();
        process_job(
            job(1, vec![op(true, 2)], &reply),
            0,
            &mut Vec::new(),
            &core,
            &commits,
            &shared,
        );
        let poisoner = Arc::clone(&core);
        let died = thread::spawn(move || {
            let _held = poisoner.state.lock().unwrap();
            panic!("a worker dies under the core mutex");
        })
        .join();
        assert!(died.is_err() && core.state.is_poisoned());
        drop(commits);
        let committer = {
            let (core, shared) = (Arc::clone(&core), Arc::clone(&shared));
            thread::spawn(move || commit_thread(commit_rx, core, shared))
        };
        assert!(committer.join().is_ok(), "no second panic");
        let (client_txn, result) = executed(&replies);
        assert_eq!(client_txn, 1);
        assert!(matches!(result, ExecResult::Failed(_)), "got {result:?}");
        assert_eq!(shared.stats.snapshot(0, false).counter("committed"), 0);
    }

    #[test]
    fn a_lock_wait_ends_at_the_deadline_or_when_the_time_budget_is_spent() {
        let core = Core::new(16);
        let x = [(ObjectId(4), LockMode::Exclusive)];
        let far = Instant::now() + Duration::from_secs(30);
        let (c, holder) = acquire_locks(&core, &x, &one_attempt(), far).expect("free object");
        drop(c);
        // Two attempts, 5 ms apart: exhausted only once 5 ms have passed.
        let retry = RetryPolicy {
            max_attempts: 2,
            backoff_us: 5_000,
            backoff_mult: 2,
        };
        let began = Instant::now();
        let err = acquire_locks(&core, &x, &retry, far).err();
        assert_eq!(err, Some(ExecResult::RetryExhausted { attempts: 2 }));
        assert!(began.elapsed() >= Duration::from_millis(5));
        // A deadline inside the first interval cuts the wait short.
        let began = Instant::now();
        let err = acquire_locks(&core, &x, &retry, began + Duration::from_millis(1)).err();
        assert_eq!(err, Some(ExecResult::DeadlineExceeded));
        assert!(began.elapsed() >= Duration::from_millis(1));
        assert_eq!(core.state.lock().unwrap().lock_waiters, 0);
        // Once released, the object is granted immediately.
        let mut c = core.state.lock().unwrap();
        c.locks.release_all(holder);
        core.unlock_after_release(c);
        assert!(acquire_locks(&core, &x, &one_attempt(), far).is_ok());
    }

    #[test]
    fn a_release_wakes_the_waiter_long_before_its_attempt_would_end() {
        let core = Arc::new(Core::new(16));
        let x = [(ObjectId(4), LockMode::Exclusive)];
        let far = Instant::now() + Duration::from_secs(600);
        let (c, holder) = acquire_locks(&core, &x, &one_attempt(), far).expect("free object");
        drop(c);
        // One 60 s interval and then no attempt left: only a wake-up by
        // the release — one that spends no attempt — lets this succeed.
        let retry = RetryPolicy {
            max_attempts: 2,
            backoff_us: 60_000_000,
            backoff_mult: 2,
        };
        let waiter = {
            let core = Arc::clone(&core);
            thread::spawn(move || acquire_locks(&core, &x, &retry, far).map(|(_, id)| id))
        };
        let began = Instant::now();
        loop {
            let mut c = core.state.lock().unwrap();
            if c.lock_waiters == 1 {
                c.locks.release_all(holder);
                core.unlock_after_release(c);
                break;
            }
            drop(c);
            thread::yield_now();
        }
        let granted = waiter.join().expect("waiter thread");
        assert!(granted.is_ok(), "got {granted:?}");
        assert!(began.elapsed() < Duration::from_secs(30));
    }
}
