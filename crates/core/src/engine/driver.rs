//! The discrete-event driver: pops think/op/txn-done events, asks the
//! generator what a user submits, takes (or parks on) its locks, hands
//! it to the executor one operation per event on a fresh operation
//! clock, commits or aborts it and sends the user back to thinking. Owns
//! the crash points.

use super::charge::OpClock;
use super::observe::fault_op;
use super::{ActiveTxn, Engine, Event, RW_WINDOW};
use crate::error::EngineError;
use crate::metrics::SpanBreakdown;
use semcluster_faults::CrashPoint;
use semcluster_lock::{LockManager, LockMode, TxnId};
use semcluster_obs::{AbortCause, LogFlushKind, Phase, TraceEvent};
use semcluster_sim::SimTime;
use semcluster_storage::PageId;
use semcluster_workload::{Transaction, TxnOp};
use std::collections::VecDeque;

impl Engine {
    pub(super) fn drive(&mut self) {
        while self.step_event() {}
    }

    /// Process exactly one simulation event. Returns `false` when the
    /// run is over: the transaction target was reached, the event queue
    /// drained, or a crash point fired. This is the single loop body
    /// behind [`Engine::drive`] **and** the serialized stepping API
    /// ([`Engine::step_transaction`]) — both paths execute the identical
    /// event sequence, which is what makes the simulator a byte-exact
    /// oracle for the wire-protocol server's serialized mode.
    pub(super) fn step_event(&mut self) -> bool {
        if self.completed >= self.target_txns() {
            return false;
        }
        let tok = self.prof_enter(Phase::EventPop);
        let popped = self.queue.pop();
        self.prof_exit(tok, 0);
        let Some((now, ev)) = popped else {
            return false; // all users idle — cannot happen in a closed network
        };
        // Pre-grow the pool's and the lock table's dense indexes outside
        // the profiled phases so in-phase self-growth (which would charge
        // its allocation to the phase it happens in) never fires: the
        // headroom covers every object/page a single event can create.
        self.pool.ensure_page_capacity(self.store.page_count() + 64);
        self.locks
            .ensure_object_capacity(self.db.object_count() + 64);
        match ev {
            Event::ThinkDone(u) => self.on_think_done(u, now),
            Event::OpDone(u) => self.on_op_done(u, now),
            Event::TxnDone(u) => self.on_txn_done(u, now),
        }
        self.events_seen += 1;
        self.sample_timeline(now);
        if let CrashPoint::Event(k) = self.crash_point {
            if self.events_seen >= k {
                self.crash_pending = true;
            }
        }
        if let Some(m) = &self.mirror {
            // The fs fault layer pulled the plug at an injected
            // syscall boundary: stop at this event boundary too.
            if m.crashed() {
                self.crash_pending = true;
            }
        }
        // Crash point fired: stop at this event boundary.
        !self.crash_pending
    }

    /// A user stopped thinking: ask the generator what they submit, then
    /// execute it (or park it until its locks are free).
    fn on_think_done(&mut self, u: u32, now: SimTime) {
        let txn = self
            .generator
            .next_transaction(u, self.completed, &self.db, &mut self.rng);
        if !self.try_lock(u, &txn) {
            // Conservative pre-declaration failed: park until a release.
            self.users[u as usize].parked = Some((txn, now));
            self.parked_fifo.push_back(u);
            self.registry.bump(self.counters.lock_wait);
            self.emit(|| TraceEvent::LockWait { at: now, user: u });
            return;
        }
        self.begin_txn(u, txn, now, now);
    }

    /// Start a transaction whose locks are held. `submitted` is when the
    /// user submitted it (response time includes any lock wait).
    fn begin_txn(&mut self, u: u32, txn: Transaction, submitted: SimTime, now: SimTime) {
        let is_read = txn.is_read();
        let token = (!is_read).then(|| self.log.begin());
        self.txn_seq += 1;
        let id = self.txn_seq;
        // Any gap between submission and lock grant is the lock-wait
        // component of the transaction's response time.
        let span = SpanBreakdown {
            lock_wait_us: now.since(submitted).as_micros(),
            ..SpanBreakdown::default()
        };
        self.emit(|| TraceEvent::TxnBegin {
            at: now,
            user: u,
            txn: id,
            is_read,
            ops: txn.ops.len() as u32,
        });
        self.users[u as usize].txn = Some(ActiveTxn {
            txn,
            next_op: 0,
            started: submitted,
            is_read,
            token,
            id,
            span,
        });
        self.run_next_op(u, now);
    }

    /// Execute the next operation of user `u`'s transaction from `now`
    /// and schedule its completion — or abort the transaction where the
    /// operation clock stopped.
    fn run_next_op(&mut self, u: u32, now: SimTime) {
        self.clock = OpClock::issued_at(now);
        let outcome = self.execute_next_op(u).map(|()| self.finish_op());
        // On failure too — the waits up to the failure were real.
        self.drain_span(u);
        match outcome {
            Ok(done) => self.queue.schedule(done, Event::OpDone(u)),
            Err(err) => self.abort_txn(u, err, self.clock.now()),
        }
    }

    /// Move the attribution the last operation (or the commit force)
    /// accumulated into the owning transaction's span.
    fn drain_span(&mut self, u: u32) {
        let span = std::mem::take(&mut self.cur_span);
        self.users[u as usize].active().span.add(&span);
    }

    /// Hierarchical conservative lock acquisition for a transaction's
    /// pre-declared object set.
    fn try_lock(&mut self, u: u32, txn: &Transaction) -> bool {
        let tok = self.prof_enter(Phase::LockAcquire);
        let mut requests = std::mem::take(&mut self.lock_requests);
        requests.clear();
        for op in &txn.ops {
            let (object, mode) = match *op {
                TxnOp::Read { root, .. } => (root, LockMode::Shared),
                TxnOp::Create { anchor, .. } => (anchor, LockMode::Exclusive),
                TxnOp::Update { target } | TxnOp::Delete { target } => {
                    (target, LockMode::Exclusive)
                }
            };
            LockManager::hierarchical_lockset_into(&self.db, object, mode, &mut requests);
        }
        let granted = self.locks.try_acquire_all(TxnId(u as u64), &requests);
        self.lock_requests = requests;
        // Lock acquisition is instantaneous in simulated time (any wait
        // is charged to the parked transaction, not this phase).
        self.prof_exit(tok, 0);
        granted
    }

    fn on_op_done(&mut self, u: u32, now: SimTime) {
        let txn = self.users[u as usize].active();
        if txn.next_op < txn.txn.ops.len() {
            self.run_next_op(u, now);
            return;
        }
        // Commit.
        self.clock = OpClock::issued_at(now);
        if let Some(token) = txn.token {
            let ios = self.log.commit(token);
            self.commits_seen += 1;
            if let Some(m) = self.mirror.as_mut() {
                // The durable commit force is the acknowledgement
                // gate: a failed fsync (fsyncgate) means the token
                // must never be acked, and is never retried.
                if !m.commit(token.raw()) {
                    self.mirror_failed.push(token);
                }
            }
            if self.crash_point == CrashPoint::Commit(self.commits_seen) {
                self.crash_pending = true;
            }
            for _ in 0..ios {
                self.submit_log_io(LogFlushKind::Commit);
            }
        }
        // The commit force is part of the transaction's log component.
        self.drain_span(u);
        self.queue.schedule(self.clock.now(), Event::TxnDone(u));
    }

    fn on_txn_done(&mut self, u: u32, now: SimTime) {
        let txn = self.users[u as usize].take_active();
        let response = now.since(txn.started);
        // Every microsecond of response time is attributed to exactly one
        // component: the op chain only ever advances through the charge_*
        // helpers, which account each advance as they make it.
        debug_assert_eq!(
            txn.span.total_us(),
            response.as_micros(),
            "span components must sum exactly to the response time"
        );
        self.emit(|| TraceEvent::TxnCommit {
            at: now,
            user: u,
            txn: txn.id,
            response_us: response.as_micros(),
            cpu_us: txn.span.cpu_us,
            data_read_us: txn.span.data_read_us,
            dirty_flush_us: txn.span.dirty_flush_us,
            cluster_search_us: txn.span.cluster_search_us,
            log_us: txn.span.log_us,
            lock_wait_us: txn.span.lock_wait_us,
        });
        if self.cfg.retain_log {
            // This is the moment the client sees the commit: durable by
            // construction (the force completed before TxnDone was
            // scheduled), so recovery must never lose it.
            if let Some(token) = txn.token {
                if self.mirror_failed.contains(&token) {
                    // The durable backend could not force this commit:
                    // the simulation proceeds, but the client was never
                    // acknowledged — recovery owes it nothing.
                    self.unacked_commits.push(token);
                } else {
                    self.acked_commits.push(token);
                }
            }
        }
        self.retire_txn(u, txn, true, now);
    }

    /// Abort the transaction in flight for user `u` after a run-path
    /// failure (retry exhaustion, infeasible placement): write an abort
    /// record, release locks, and send the user back to thinking. The
    /// simulation keeps going — a fault aborts one transaction, not the
    /// run.
    ///
    /// Aborted transactions are *not* recorded in the response metrics
    /// (reports describe committed work); their count and reasons are
    /// reported separately via [`crate::RunReport::faults`].
    fn abort_txn(&mut self, u: u32, err: EngineError, now: SimTime) {
        let txn = self.users[u as usize].take_active();
        // The failed op charged its waits (attempts + backoff) as they
        // accrued, so attribution still sums exactly; only the CPU tail
        // of the aborted op is abandoned.
        debug_assert_eq!(
            txn.span.total_us(),
            now.since(txn.started).as_micros(),
            "abort-time span components must sum exactly to the elapsed response"
        );
        if let Some(token) = txn.token {
            self.log.abort(token);
            if let Some(m) = self.mirror.as_mut() {
                m.abort(token.raw());
            }
            if self.cfg.retain_log {
                self.aborted_tokens.push(token);
            }
        }
        self.registry.bump(self.counters.fault_txn_abort);
        if self.abort_reasons.len() < 8 {
            self.abort_reasons.push(err.to_string());
        }
        self.emit(|| TraceEvent::TxnAbort {
            at: now,
            user: u,
            txn: txn.id,
            cause: match err {
                EngineError::Io(e) => AbortCause::Io {
                    op: fault_op(e.op),
                    page: PageId(e.page),
                    disk: e.disk,
                },
                EngineError::Placement { object, .. } => AbortCause::Placement { object },
            },
        });
        self.retire_txn(u, txn, false, now);
    }

    /// What commit and abort share: free the locks, count the
    /// transaction, hand its op list back to the generator, send the user
    /// back to thinking. An abort counts
    /// toward run progress (the closed network must not wedge) but not
    /// toward the measured response statistics.
    fn retire_txn(&mut self, u: u32, txn: ActiveTxn, committed: bool, now: SimTime) {
        self.observe_degradation(txn.span.cluster_search_us, now);
        self.locks.release_all(TxnId(u as u64));
        self.wake_parked(now);
        if self.recent_kinds.len() == RW_WINDOW {
            self.recent_kinds.pop_front();
        }
        self.recent_kinds.push_back(txn.is_read);
        self.completed += 1;
        // Only now: a transaction the wake above restarted may already
        // have aborted and opened the measurement window.
        self.record_retired(&txn, committed, now);
        self.generator.finish_transaction(
            u,
            &self.db,
            &mut self.rng,
            &mut self.walk,
            &mut self.read_objects,
        );
        self.generator.recycle(txn.txn.ops);
        let think = self.rng.exp_duration(self.cfg.think_time);
        self.queue.schedule(now + think, Event::ThinkDone(u));
    }

    /// Retry parked transactions in FIFO order; each success starts its
    /// transaction at `now` (the lock wait is inside its response time).
    fn wake_parked(&mut self, now: SimTime) {
        let mut still_parked = VecDeque::new();
        while let Some(u) = self.parked_fifo.pop_front() {
            let Some((txn, submitted)) = self.users[u as usize].parked.take() else {
                continue;
            };
            if self.try_lock(u, &txn) {
                self.record_lock_wait(now - submitted);
                self.emit(|| TraceEvent::LockGrant {
                    at: now,
                    user: u,
                    wait_us: now.since(submitted).as_micros(),
                });
                self.begin_txn(u, txn, submitted, now);
            } else {
                self.users[u as usize].parked = Some((txn, submitted));
                still_parked.push_back(u);
            }
        }
        self.parked_fifo = still_parked;
    }

    /// Feed a finished transaction's cluster-search time into the
    /// graceful-degradation window; record any mode transition.
    fn observe_degradation(&mut self, search_us: u64, now: SimTime) {
        if let Some(entered) = self.faults.observe_txn_search(search_us) {
            self.registry.bump(if entered {
                self.counters.fault_degrade_enter
            } else {
                self.counters.fault_degrade_exit
            });
            self.emit(|| TraceEvent::Degrade { at: now, entered });
        }
    }
}
