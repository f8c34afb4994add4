//! The executor: the consumer side of the one bounded queue — the
//! worker loop, and the backend seam behind it.
//!
//! Every admitted transaction, in either [`ServeMode`], arrives here as
//! a [`Job`] on the one queue the accept thread created. A worker
//! ([`worker_thread`]) takes it off, lowers the queue gauge, stamps t1,
//! drops it unexecuted (typed DEADLINE) if its deadline passed while it
//! waited, and otherwise hands it to the backend. [`Backend`] is
//! everything the two modes differ in — how a job executes, how REPORT
//! is answered, what the drain verdict is — and nothing else here asks
//! which mode it is in. *Stub* (concurrent mode): workers drive one
//! shared [`Core`] — lock manager, WAL and a counter array — taking all
//! of a transaction's locks or none ([`acquire_locks`]) and applying it
//! under one hold of the core mutex; a write is then handed to
//! [`commit_thread`], which forces the log for a whole batch, so no
//! worker waits on a force. *Oracle*: one worker owns a deterministic
//! [`Engine`] and steps it once per job.

use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use semcluster_faults::RetryPolicy;
use semcluster_lock::{LockManager, LockMode, TxnId};
use semcluster_storage::PageId;
use semcluster_vdm::ObjectId;
use semcluster_wal::{LogConfig, LogManager, TxnToken};

use super::conn::ConnEvent;
use super::protocol::TxnOp;
use super::server::{ServeConfig, ServeMode, Shared};
use super::session::ExecResult;
use super::stats::RequestStamps;
use super::{spawn, ServeError};
use crate::config::SimConfig;
use crate::engine::Engine;

/// The state every concurrent-mode transaction contends on: the lock
/// table arbitrates access, the WAL makes effects durable, `values` is
/// the object store the transactions actually read and write.
pub(super) struct SharedCore {
    locks: LockManager,
    log: LogManager,
    values: Vec<u64>,
    next_lock_txn: u64,
    /// Workers parked on [`Core::released`] right now. Read by whoever
    /// releases locks, under the same mutex, so a release with nobody
    /// waiting costs no wake-up call.
    lock_waiters: usize,
    /// Every token a [`LogManager::commit_group`] forced, recorded under
    /// the same hold: what the drain verdict judges acks against.
    forced: Vec<u64>,
}

/// The shared core paired with the condvar its lock releases signal: a
/// worker whose lock set conflicted waits here and re-tries at the
/// release it was waiting for, not at a timer.
pub(super) struct Core {
    state: Mutex<SharedCore>,
    released: Condvar,
}

impl Core {
    fn new(objects: u32) -> Core {
        Core {
            state: Mutex::new(SharedCore {
                locks: LockManager::new(),
                log: LogManager::new(LogConfig::default()),
                values: vec![0; objects.max(1) as usize],
                next_lock_txn: 1,
                lock_waiters: 0,
                forced: Vec::new(),
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

/// What a worker resolves a job to (typed INTERNAL) once another, by
/// panicking under the core mutex, has poisoned it: the core's state
/// cannot be trusted, so nothing more executes on it, but the survivors
/// keep draining the queue and answering — as the committer does —
/// rather than dying in turn and stranding every session behind them.
fn core_poisoned<T>(_: PoisonError<T>) -> ExecResult {
    ExecResult::Failed("core mutex poisoned by a panicked worker".into())
}

/// What travels down the one execution queue.
pub(super) enum Job {
    /// An admitted transaction.
    Txn(TxnJob),
    /// A REPORT the backend cannot answer off the queue (see
    /// [`Backend::report_now`]); answered with `ConnEvent::ReportReady`.
    Report(Sender<ConnEvent>),
}

pub(super) struct TxnJob {
    pub(super) session: u32,
    pub(super) client_txn: u64,
    pub(super) ops: Vec<TxnOp>,
    pub(super) deadline_at: Instant,
    /// Admission time (µs since server start): t0 of the attribution
    /// stamp chain.
    pub(super) submitted_at_us: u64,
    pub(super) reply: Sender<ConnEvent>,
}

impl TxnJob {
    fn resolve(self, result: ExecResult, stamps: Option<RequestStamps>) {
        let _ = self.reply.send(ConnEvent::Executed {
            session: self.session,
            client_txn: self.client_txn,
            result,
            stamps,
        });
    }

    /// Resolve as committed here, on the worker, with no group-commit
    /// wait: t3 is now and t4 == t3.
    fn resolve_committed(
        self,
        commit_lsn: u64,
        completed: u64,
        done: bool,
        mut stamps: RequestStamps,
        shared: &Shared,
    ) {
        stamps.executed_us = shared.now_us();
        stamps.committed_us = stamps.executed_us;
        let result = ExecResult::Committed {
            token: None,
            commit_lsn,
            completed,
            done,
        };
        self.resolve(result, Some(stamps));
    }
}

/// A write transaction a worker has applied under its locks and handed
/// to the committer: its update records are in the log tail, its commit
/// record is not yet forced, and its object locks stay held until it is
/// (strict two-phase locking through the durability point).
struct PendingCommit {
    job: TxnJob,
    token: TxnToken,
    lock_id: TxnId,
    /// Stamps through t3; the committer fills `committed_us`.
    stamps: RequestStamps,
}

/// The group committer: the one thread that forces the log. It blocks
/// for the first pending commit, takes whatever else the workers handed
/// off meanwhile — while the previous force and its acks ran — and
/// forces at once (a nonzero `group_window_us` first waits that long, to
/// stand in for a slower log device). It holds the core mutex
/// **once** for the whole batch — one [`LogManager::commit_group`], its
/// tokens recorded as forced, then every member's locks released —
/// before acknowledging each member to its connection (ack strictly
/// after the force). Workers never wait for it; it exits when the last
/// worker drops its sender.
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
            c.forced.extend(tokens.iter().map(|t| t.raw()));
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
/// deadlock. A poisoned core fails the job ([`core_poisoned`]).
fn acquire_locks<'a>(
    core: &'a Core,
    requests: &[(ObjectId, LockMode)],
    retry: &RetryPolicy,
    deadline_at: Instant,
) -> Result<(MutexGuard<'a, SharedCore>, TxnId), ExecResult> {
    let max_attempts = retry.max_attempts.max(1);
    let mut attempt = 1u32;
    let mut attempt_ends: Option<Instant> = None;
    let mut c = core.state.lock().map_err(core_poisoned)?;
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
            c = core
                .released
                .wait_timeout(c, wait)
                .map_err(core_poisoned)?
                .0;
            c.lock_waiters -= 1;
        }
        // An interval that ends after the deadline is never spent: a
        // late wake-up past both answers with the deadline, which came
        // first, not with the budget.
        if Instant::now() >= ends && ends < deadline_at {
            attempt += 1;
            attempt_ends = None;
        }
    }
}

/// The per-worker half of the backend: what a dequeued job runs against.
/// Built on the worker's own thread (an [`Engine`] is not `Send`).
trait Executor {
    /// Run a live transaction and resolve it to its connection.
    fn execute(&mut self, job: TxnJob, stamps: RequestStamps, shared: &Shared);
    /// Answer a queued REPORT ([`Backend::report_now`] said `None`).
    fn report(&mut self, shared: &Shared) -> String;
}

struct StubWorker {
    core: Arc<Core>,
    commits: Sender<PendingCommit>,
    /// Lock-set buffer reused from job to job.
    requests: Vec<(ObjectId, LockMode)>,
}

impl Executor for StubWorker {
    /// Takes the core mutex once, then resolves the transaction (a
    /// lock-wait failure, or the read-only fast path) or hands it to the
    /// committer and moves on. The committer stamps `committed_us` after
    /// the force and the driver stamps `replied_us` when the TxnOk
    /// actually hits the socket.
    fn execute(&mut self, job: TxnJob, mut stamps: RequestStamps, shared: &Shared) {
        let core = &*self.core;
        let objects = shared.cfg.objects.max(1);
        lockset(&job.ops, objects, &mut self.requests);
        let held = acquire_locks(core, &self.requests, &shared.cfg.retry, job.deadline_at);
        let (mut c, lock_id) = match held {
            Ok(held) => held,
            // Nothing was serviced, so the outcome carries no stamps.
            Err(result) => return job.resolve(result, None),
        };
        stamps.locked_us = shared.now_us();
        if !job.ops.iter().any(|op| op.write) {
            // Read-only commit fast-path: no update records means
            // recovery has nothing to redo, so the transaction never
            // enters the log and never waits for a force. Its "commit
            // LSN" is whatever is already durable.
            for op in &job.ops {
                let _ = c.values[(op.object % objects) as usize];
            }
            let commit_lsn = c.log.current_lsn();
            c.locks.release_all(lock_id);
            core.unlock_after_release(c);
            let completed = shared.stats.record_commit();
            return job.resolve_committed(commit_lsn, completed, false, stamps, shared);
        }
        let token = c.log.begin();
        for op in &job.ops {
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
        let pending = PendingCommit {
            job,
            token,
            lock_id,
            stamps,
        };
        if let Err(mpsc::SendError(p)) = self.commits.send(pending) {
            // The committer is gone, so nothing will ever force this
            // transaction: give its locks back and fail it now (typed
            // INTERNAL) instead of leaving the client to its deadline.
            // (On a core poisoned meanwhile there is nobody left to give
            // them to: every later job fails before it asks.)
            if let Ok(mut c) = core.state.lock() {
                c.log.abort(p.token);
                c.locks.release_all(p.lock_id);
                core.unlock_after_release(c);
            }
            p.job
                .resolve(ExecResult::Failed("commit thread is gone".into()), None);
        }
    }

    fn report(&mut self, shared: &Shared) -> String {
        shared.stats_json()
    }
}

struct OracleWorker {
    /// `None` once a REPORT has run the engine to its end.
    engine: Option<Engine>,
    completed: u64,
    /// The final report, rendered once.
    report: String,
}

impl Executor for OracleWorker {
    /// One simulated transaction per TXN, whatever its ops say; once a
    /// REPORT has consumed the engine the count stands still and every
    /// reply says `done`.
    fn execute(&mut self, job: TxnJob, stamps: RequestStamps, shared: &Shared) {
        let done = match &mut self.engine {
            Some(engine) => {
                engine.step_transaction();
                self.completed = engine.completed_txns();
                self.completed >= engine.target_txns()
            }
            None => true,
        };
        job.resolve_committed(0, self.completed, done, stamps, shared);
    }

    /// The server drives the rest of the run itself, once.
    fn report(&mut self, _: &Shared) -> String {
        if let Some(engine) = self.engine.take() {
            let run = engine.run();
            self.completed = run.txns;
            self.report = run.to_json();
        }
        self.report.clone()
    }
}

/// Everything a worker does with a dequeued job: answer a REPORT, drop a
/// transaction that expired in the queue, run a live one.
fn process_job(job: Job, dequeued_us: u64, exec: &mut impl Executor, shared: &Shared) {
    let job = match job {
        Job::Txn(job) => job,
        Job::Report(reply) => {
            let json = exec.report(shared);
            let _ = reply.send(ConnEvent::ReportReady { json });
            return;
        }
    };
    if Instant::now() >= job.deadline_at {
        // Deadline expired while queued: drop the work unexecuted.
        return job.resolve(ExecResult::DeadlineExceeded, None);
    }
    // No lock wait yet: t2 == t1 unless the backend takes locks.
    let stamps = RequestStamps {
        submitted_us: job.submitted_at_us,
        dequeued_us,
        locked_us: dequeued_us,
        ..RequestStamps::default()
    };
    exec.execute(job, stamps, shared);
}

fn worker_thread(jobs: &Mutex<Receiver<Job>>, mut exec: impl Executor, shared: &Shared) {
    loop {
        // A poisoned queue mutex still guards a sound receiver (a panic
        // cannot leave it half-updated), so the survivors keep draining.
        let next = jobs.lock().unwrap_or_else(PoisonError::into_inner).recv();
        let Ok(job) = next else { return };
        shared.stats.queue_leave();
        // t1: the job left the queue — everything before this instant
        // is admission wait.
        let dequeued_us = shared.now_us();
        process_job(job, dequeued_us, &mut exec, shared);
    }
}

/// The seam between the one request path and what executes behind it:
/// three operations (`spawn_workers`, `report_now`, `drain_verdict`).
/// Built once per server, on the accept thread: what lives as long as
/// the server (the core) is built once, by the thread that lives as
/// long.
pub(super) enum Backend {
    /// Concurrent mode: the shared core.
    Stub(Arc<Core>),
    /// Oracle mode: what the one worker builds its engine from.
    Oracle(Box<SimConfig>),
}

impl Backend {
    pub(super) fn new(cfg: &ServeConfig) -> Backend {
        match &cfg.mode {
            ServeMode::Concurrent => Backend::Stub(Arc::new(Core::new(cfg.objects))),
            ServeMode::Oracle(sim) => Backend::Oracle(sim.clone()),
        }
    }

    /// *Execute a job*: start the workers that drain `jobs`, each with
    /// its [`Executor`], pushing each handle onto `handles` as it starts
    /// so a failure part-way leaves the caller the ones to join.
    pub(super) fn spawn_workers(
        &self,
        jobs: Receiver<Job>,
        shared: &Arc<Shared>,
        handles: &mut Vec<JoinHandle<()>>,
    ) -> Result<(), ServeError> {
        let jobs = Arc::new(Mutex::new(jobs));
        match self {
            Backend::Stub(core) => {
                // The workers hold the only senders, so the committer
                // exits once the last of them has; pushed last, it is
                // joined last.
                let (commits, commit_rx) = mpsc::channel::<PendingCommit>();
                for w in 0..shared.cfg.workers.max(1) {
                    let (jobs, shared) = (Arc::clone(&jobs), Arc::clone(shared));
                    let (core, commits) = (Arc::clone(core), commits.clone());
                    handles.push(spawn(format!("serve-worker-{w}"), move || {
                        let exec = StubWorker {
                            core,
                            commits,
                            requests: Vec::new(),
                        };
                        worker_thread(&jobs, exec, &shared)
                    })?);
                }
                drop(commits);
                let (core, shared) = (Arc::clone(core), Arc::clone(shared));
                handles.push(spawn("serve-commit".into(), move || {
                    commit_thread(commit_rx, core, shared)
                })?);
            }
            Backend::Oracle(sim) => {
                // Exactly one worker, whatever `cfg.workers` says: all
                // requests serialising through it is what makes the
                // served event sequence identical to `run_simulation`.
                let (sim, shared) = (sim.clone(), Arc::clone(shared));
                handles.push(spawn("serve-worker-0".into(), move || {
                    let exec = OracleWorker {
                        engine: Some(Engine::new(*sim)),
                        completed: 0,
                        report: String::new(),
                    };
                    worker_thread(&jobs, exec, &shared)
                })?);
            }
        }
        Ok(())
    }

    /// *Answer REPORT*, when that can be done without the queue. The
    /// stub's report is the live stats JSON. The oracle's is
    /// [`crate::RunReport::to_json`], which only its worker can produce
    /// and which must follow every TXN before it: `None` sends the
    /// caller to queue a [`Job::Report`], which is never shed.
    pub(super) fn report_now(&self, shared: &Shared) -> Option<String> {
        match self {
            Backend::Stub(_) => Some(shared.stats_json()),
            Backend::Oracle(_) => None,
        }
    }

    /// *Drain verdict*: how many of the `acked` tokens no group force
    /// committed (see `SharedCore::forced`). The oracle acknowledged
    /// nothing durable.
    pub(super) fn drain_verdict(&self, acked: &[u64]) -> u64 {
        let Backend::Stub(core) = self else { return 0 };
        // A thread that died under the mutex already reads as an
        // unclean drain; the forces it leaves are still the ones to judge.
        let mut core = core.state.lock().unwrap_or_else(PoisonError::into_inner);
        let forced = &mut core.forced;
        forced.sort_unstable();
        acked
            .iter()
            .filter(|t| forced.binary_search(t).is_err())
            .count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

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

    fn job(client_txn: u64, ops: Vec<TxnOp>, reply: &Sender<ConnEvent>) -> TxnJob {
        TxnJob {
            session: 1,
            client_txn,
            ops,
            deadline_at: Instant::now() + Duration::from_secs(30),
            submitted_at_us: 0,
            reply: reply.clone(),
        }
    }

    /// A stub worker's executor over `core`, handing off to `commits`.
    fn stub(core: &Arc<Core>, commits: &Sender<PendingCommit>) -> StubWorker {
        StubWorker {
            core: Arc::clone(core),
            commits: commits.clone(),
            requests: Vec::new(),
        }
    }

    /// Poison the core mutex the way production would: a thread panics
    /// while holding it.
    fn poison(core: &Arc<Core>) {
        let poisoner = Arc::clone(core);
        let died = thread::spawn(move || {
            let _held = poisoner.state.lock().unwrap();
            panic!("a worker dies under the core mutex");
        })
        .join();
        assert!(died.is_err() && core.state.is_poisoned());
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
        let core = Arc::new(Core::new(shared.cfg.objects));
        let (reply, replies) = mpsc::channel();
        let (commits, commit_rx) = mpsc::channel();
        drop(commit_rx);
        process_job(
            Job::Txn(job(1, vec![op(true, 7)], &reply)),
            0,
            &mut stub(&core, &commits),
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
        let mut exec = stub(&core, &commits);
        process_job(
            Job::Txn(job(2, vec![op(true, 7)], &reply)),
            0,
            &mut exec,
            &shared,
        );
        assert!(replies.try_recv().is_err(), "handed off, not yet resolved");
        let pending = commit_rx.try_recv().expect("handed to the committer");
        assert_eq!(pending.job.client_txn, 2);
        // ...and while that one awaits its force, a third conflicts.
        process_job(
            Job::Txn(job(3, vec![op(false, 7)], &reply)),
            0,
            &mut exec,
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
            Job::Txn(job(1, vec![op(true, 2)], &reply)),
            0,
            &mut stub(&core, &commits),
            &shared,
        );
        poison(&core);
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
    fn the_drain_verdict_counts_the_acks_no_group_force_covered() {
        let shared = Arc::new(shared(one_attempt()));
        let core = Arc::new(Core::new(shared.cfg.objects));
        let (reply, replies) = mpsc::channel();
        let (commits, commit_rx) = mpsc::channel();
        process_job(
            Job::Txn(job(1, vec![op(true, 2)], &reply)),
            0,
            &mut stub(&core, &commits),
            &shared,
        );
        drop(commits);
        commit_thread(commit_rx, Arc::clone(&core), Arc::clone(&shared));
        let token = match executed(&replies) {
            // One update record and one commit record: LSN 2.
            (
                1,
                ExecResult::Committed {
                    token: Some(t),
                    commit_lsn: 2,
                    ..
                },
            ) => t,
            other => panic!("got {other:?}"),
        };
        let backend = Backend::Stub(core);
        assert_eq!(backend.drain_verdict(&[token]), 0);
        assert_eq!(backend.drain_verdict(&[token, token + 1]), 1);
    }

    #[test]
    fn a_worker_survives_a_poisoned_core_and_fails_each_job_it_drains() {
        let shared = shared(one_attempt());
        let core = Arc::new(Core::new(shared.cfg.objects));
        poison(&core);
        let (reply, replies) = mpsc::channel();
        let (commits, _commit_rx) = mpsc::channel();
        let (queue, jobs) = mpsc::channel();
        for (client_txn, write) in [(1, true), (2, false)] {
            shared.stats.queue_enter();
            let txn = job(client_txn, vec![op(write, 7)], &reply);
            queue.send(Job::Txn(txn)).expect("receiver alive");
        }
        drop(queue);
        // Returns, rather than panics, once the closed queue is drained.
        worker_thread(&Mutex::new(jobs), stub(&core, &commits), &shared);
        for expect in [1, 2] {
            let (client_txn, result) = executed(&replies);
            assert_eq!(client_txn, expect, "a failed job does not end the drain");
            assert!(matches!(result, ExecResult::Failed(_)), "got {result:?}");
        }
        assert_eq!(shared.stats.queue_depth(), 0);
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
    fn a_late_wake_past_the_deadline_and_the_attempt_answers_deadline() {
        let core = Arc::new(Core::new(16));
        let x = [(ObjectId(4), LockMode::Exclusive)];
        let far = Instant::now() + Duration::from_secs(30);
        let (c, _holder) = acquire_locks(&core, &x, &one_attempt(), far).expect("free object");
        drop(c);
        // The deadline (50 ms) comes before the first interval ends
        // (100 ms); the waiter cannot wake before 200 ms, past both.
        let retry = RetryPolicy {
            max_attempts: 2,
            backoff_us: 100_000,
            backoff_mult: 2,
        };
        let deadline_at = Instant::now() + Duration::from_millis(50);
        let waiter = {
            let core = Arc::clone(&core);
            thread::spawn(move || acquire_locks(&core, &x, &retry, deadline_at).map(|(_, id)| id))
        };
        while !waiter.is_finished() {
            let c = core.state.lock().unwrap();
            if c.lock_waiters == 1 {
                thread::sleep(Duration::from_millis(200));
                break;
            }
            drop(c);
            thread::yield_now();
        }
        let err = waiter.join().expect("waiter thread").err();
        assert_eq!(err, Some(ExecResult::DeadlineExceeded));
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

    #[test]
    fn the_oracle_drops_an_expired_job_without_stepping_the_engine() {
        let sim = SimConfig {
            database_bytes: 2 * 1024 * 1024,
            buffer_pages: 24,
            warmup_txns: 40,
            measured_txns: 120,
            ..SimConfig::default()
        };
        let shared = shared(one_attempt());
        let (reply, replies) = mpsc::channel();
        let mut exec = OracleWorker {
            engine: Some(Engine::new(sim.clone())),
            completed: 0,
            report: String::new(),
        };
        let committed = |completed| ExecResult::Committed {
            token: None,
            commit_lsn: 0,
            completed,
            done: false,
        };
        process_job(Job::Txn(job(1, Vec::new(), &reply)), 0, &mut exec, &shared);
        assert_eq!(executed(&replies), (1, committed(1)));
        // Already past its deadline when the worker dequeues it: typed
        // DEADLINE, and the next reply shows the engine stood still.
        let mut late = job(2, Vec::new(), &reply);
        late.deadline_at = Instant::now();
        process_job(Job::Txn(late), 0, &mut exec, &shared);
        assert_eq!(executed(&replies), (2, ExecResult::DeadlineExceeded));
        process_job(Job::Txn(job(3, Vec::new(), &reply)), 0, &mut exec, &shared);
        assert_eq!(executed(&replies), (3, committed(2)));
        // The dropped job left no mark on the run either: the queued
        // REPORT is still the simulator's, byte for byte.
        process_job(Job::Report(reply.clone()), 0, &mut exec, &shared);
        match replies.try_recv() {
            Ok(ConnEvent::ReportReady { json }) => {
                assert_eq!(json, crate::run_simulation(sim).to_json());
            }
            _ => panic!("expected a ReportReady event"),
        }
        // With the engine consumed, a TXN no longer steps anything.
        process_job(Job::Txn(job(4, Vec::new(), &reply)), 0, &mut exec, &shared);
        let (_, result) = executed(&replies);
        assert!(
            matches!(result, ExecResult::Committed { done: true, .. }),
            "got {result:?}"
        );
    }
}
