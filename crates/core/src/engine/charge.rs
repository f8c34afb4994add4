//! Time-and-I/O charging: a logical page access expands into 0–3
//! physical I/Os (dirty-page flush, log I/O, demand read); the helpers
//! here submit them to the FCFS servers through the fault layer's retry
//! loop and account every microsecond waited to one component of the
//! transaction's span. Also what an access does for *later* accesses:
//! prefetch and context-sensitive boosting.

use super::{fault_op, Engine, CONTEXT_BOOST_FANOUT};
use crate::error::EngineError;
use semcluster_buffer::{
    apply_prefetch, prefetch_group, Access, AccessHint, PrefetchScope, ReplacementPolicy,
};
use semcluster_faults::{CrashPoint, IoError, IoOp};
use semcluster_obs::{FlushCause, LogFlushKind, Phase, ReadCause, TraceEvent};
use semcluster_sim::{SimDuration, SimTime};
use semcluster_storage::PageId;
use semcluster_vdm::ObjectId;
use semcluster_wal::TxnToken;
use semcluster_workload::QueryKind;

impl Engine {
    /// The prefetch scope in force right now: degradation narrows
    /// database-wide prefetch to within-buffer (no extra disk traffic
    /// while the disks are the problem).
    fn effective_prefetch(&self) -> PrefetchScope {
        if self.faults.degraded() && self.cfg.prefetch == PrefetchScope::WithinDatabase {
            PrefetchScope::WithinBuffer
        } else {
            self.cfg.prefetch
        }
    }

    /// Run one disk I/O with fault injection: degraded/spike service
    /// multipliers per attempt, transient failures from the fault plan,
    /// and bounded retry with deterministic backoff charged in
    /// simulated time. Returns the completion time of the successful
    /// attempt, or the [`IoError`] after the budget is exhausted. Every
    /// failed attempt still occupies the disk for its full (possibly
    /// spiked) service time. With an inert fault config this reduces
    /// exactly to one `submit_to` call.
    fn faulty_disk_io(
        &mut self,
        op: IoOp,
        page: PageId,
        d: usize,
        mut t: SimTime,
    ) -> Result<SimTime, IoError> {
        let retry = self.faults.retry();
        let max_attempts = retry.max_attempts.max(1);
        let mut attempt = 1u32;
        loop {
            let mult = self.faults.service_mult(d as u32);
            let done = self.disks.submit_to(d, t, self.disk_service.times(mult));
            let failed = match op {
                IoOp::Read => self.faults.read_fails(d as u32),
                IoOp::Write => self.faults.write_fails(d as u32),
                IoOp::Log => unreachable!("log I/O stalls, it does not fail"),
            };
            if !failed {
                return Ok(done);
            }
            self.registry.bump(match op {
                IoOp::Read => self.counters.fault_io_read_error,
                IoOp::Write => self.counters.fault_io_write_error,
                IoOp::Log => unreachable!(),
            });
            self.emit(|| TraceEvent::IoFault {
                at: done,
                op: fault_op(op),
                page,
                disk: d as u32,
                attempt,
            });
            if attempt >= max_attempts {
                return Err(IoError {
                    op,
                    page: page.0,
                    disk: d as u32,
                    attempts: attempt,
                    at_us: done.as_micros(),
                });
            }
            let backoff = retry.backoff_after(attempt);
            t = done + SimDuration::from_micros(backoff);
            attempt += 1;
            self.faults.stats.retries += 1;
            self.registry.bump(self.counters.fault_io_retry);
            self.emit(|| TraceEvent::IoRetry {
                at: t,
                op: fault_op(op),
                page,
                disk: d as u32,
                attempt,
                backoff_us: backoff,
            });
        }
    }

    /// Fault `page` through the pool, chaining any physical I/O after `t`.
    /// Returns the time the page is available. `cause` decides whether the
    /// read is a demand read or a clustering-search read — the two are
    /// charged to different response components and counters. Under fault
    /// injection the read may retry with backoff (all of it charged to
    /// the same component) or fail the owning transaction.
    pub(super) fn charge_access(
        &mut self,
        page: PageId,
        t: SimTime,
        cause: ReadCause,
    ) -> Result<SimTime, EngineError> {
        let tok = self.prof_enter(Phase::BufferLookup);
        match self.pool.access(page) {
            Access::Hit => {
                self.registry.bump(self.counters.buffer_hit);
                self.tl.hits += 1;
                self.prof_exit(tok, 0);
                Ok(t)
            }
            Access::Miss { evicted_dirty } => {
                self.registry.bump(self.counters.buffer_miss);
                self.tl.misses += 1;
                let issued = t;
                let mut ios = 1u32;
                let mut t = t;
                if let Some(victim) = evicted_dirty {
                    match self.charge_flush(victim, t, FlushCause::Evict) {
                        Ok(done) => t = done,
                        Err(e) => {
                            // Failed write-back aborts the access; the
                            // phase still closes (its span was already
                            // charged to the transaction by charge_flush).
                            self.prof_exit(tok, 0);
                            return Err(e);
                        }
                    }
                    ios += 1;
                }
                let d = self.layout.disk_of(page) as usize;
                let read_issued = t;
                let outcome = self.faulty_disk_io(IoOp::Read, page, d, t);
                let end = match &outcome {
                    Ok(done) => *done,
                    Err(e) => SimTime::from_micros(e.at_us),
                };
                // The whole retry saga (attempts + backoff) is read wait,
                // charged even when the I/O ultimately fails — the
                // transaction really did spend that time.
                let wait = end.since(read_issued).as_micros();
                match cause {
                    ReadCause::Demand => {
                        self.registry.bump(self.counters.io_read_demand);
                        self.cur_span.data_read_us += wait;
                    }
                    ReadCause::ClusterSearch => {
                        self.registry
                            .bump(self.counters.cluster_search_candidate_io);
                        self.cur_span.cluster_search_us += wait;
                    }
                }
                // Phase self cost covers the whole miss expansion
                // (eviction write-back + read wait), even when the read
                // ultimately fails — close before the `?` propagates.
                self.prof_exit(tok, end.since(issued).as_micros());
                let t = outcome?;
                self.emit(|| TraceEvent::IoExpand {
                    at: issued,
                    page,
                    ios,
                });
                self.emit(|| TraceEvent::PageRead {
                    at: read_issued,
                    page,
                    disk: d as u32,
                    cause,
                    done: t,
                });
                Ok(t)
            }
        }
    }

    /// Write a dirty page back on the transaction's critical path.
    pub(super) fn charge_flush(
        &mut self,
        page: PageId,
        t: SimTime,
        cause: FlushCause,
    ) -> Result<SimTime, EngineError> {
        if let Some(m) = self.mirror.as_mut() {
            // Stealing a dirty page to disk: the mirror logs a page
            // snapshot (so a torn page write is always repairable) and
            // queues the real write behind the force that makes it
            // durable.
            m.steal(&self.store, page);
        }
        let d = self.layout.disk_of(page) as usize;
        let outcome = self.faulty_disk_io(IoOp::Write, page, d, t);
        let end = match &outcome {
            Ok(done) => *done,
            Err(e) => SimTime::from_micros(e.at_us),
        };
        self.cur_span.dirty_flush_us += end.since(t).as_micros();
        let done = outcome?;
        match cause {
            FlushCause::Evict => {
                self.registry.bump(self.counters.buffer_evict_dirty);
            }
            FlushCause::Split => {
                self.registry.bump(self.counters.split_io);
            }
            FlushCause::Prefetch => unreachable!("prefetch write-backs are asynchronous"),
        }
        self.emit(|| TraceEvent::PageFlush {
            at: t,
            page,
            disk: d as u32,
            cause,
            done,
        });
        Ok(done)
    }

    /// Admit a page the engine just created (no disk image yet).
    pub(super) fn charge_install(
        &mut self,
        page: PageId,
        mut t: SimTime,
    ) -> Result<SimTime, EngineError> {
        if let Some(victim) = self.pool.install(page) {
            t = self.charge_flush(victim, t, FlushCause::Evict)?;
        }
        Ok(t)
    }

    /// One physical log-device I/O of the given kind, chained after `t`.
    /// Log I/O never fails (the device is redundant in the model) but an
    /// injected stall can delay it; the stall is charged to the log
    /// component in simulated time.
    pub(super) fn submit_log_io(&mut self, t: SimTime, kind: LogFlushKind) -> SimTime {
        let tok = self.prof_enter(Phase::WalFlush);
        self.log_flushes_seen += 1;
        if let CrashPoint::MidFlush(k) = self.crash_point {
            if self.log_flushes_seen == k {
                self.crash_pending = true;
            }
        }
        let stall = self.faults.log_stall_us();
        let issue = if stall > 0 {
            self.registry.bump(self.counters.fault_log_stall);
            self.emit(|| TraceEvent::LogStall {
                at: t,
                stall_us: stall,
            });
            t + SimDuration::from_micros(stall)
        } else {
            t
        };
        let done = self.log_disk.submit(issue, self.disk_service);
        self.registry.bump(match kind {
            LogFlushKind::BeforeImage => self.counters.wal_flush_before_image,
            LogFlushKind::Full => self.counters.wal_flush_full,
            LogFlushKind::Commit => self.counters.wal_flush_commit,
        });
        self.cur_span.log_us += done.since(t).as_micros();
        self.prof_exit(tok, done.since(t).as_micros());
        self.emit(|| TraceEvent::LogFlush { at: t, kind, done });
        done
    }

    /// Log an update and charge the physical log I/Os it caused
    /// (first-touch before-image and/or log-buffer wraps).
    pub(super) fn charge_log(
        &mut self,
        token: TxnToken,
        page: PageId,
        bytes: u32,
        mut t: SimTime,
    ) -> SimTime {
        let tok = self.prof_enter(Phase::WalAppend);
        let io = self.log.log_update_detail(token, page, bytes);
        if io.before_image {
            t = self.submit_log_io(t, LogFlushKind::BeforeImage);
        }
        for _ in 0..io.wrap_flushes {
            t = self.submit_log_io(t, LogFlushKind::Full);
        }
        // Physical flush time nests under `wal_flush`; the append itself
        // is bookkeeping with zero simulated self cost.
        self.prof_exit(tok, 0);
        t
    }

    /// Context-sensitive relationship boosting: pages of objects related
    /// to the one just touched survive longer.
    pub(super) fn context_boost(&mut self, obj: ObjectId) {
        if self.pool.policy() != ReplacementPolicy::ContextSensitive {
            return;
        }
        // Walk the adjacency slices directly (same order `related()`
        // returns) and stop at the fanout cap — no materialised list.
        let db = &self.db;
        let store = &self.store;
        let pool = &mut self.pool;
        let mut left = CONTEXT_BOOST_FANOUT;
        db.graph().for_each_related(obj, |_, _, other| {
            if let Some(page) = store.page_of(other) {
                pool.boost(page);
            }
            left -= 1;
            left > 0
        });
    }

    /// Asynchronous prefetch for an access to `obj` arriving via `kind`.
    /// Honours graceful degradation: while degraded, database-wide
    /// prefetch narrows to within-buffer (see [`Self::effective_prefetch`]).
    pub(super) fn do_prefetch(&mut self, obj: ObjectId, kind: QueryKind, t: SimTime) {
        let tok = self.prof_enter(Phase::Prefetch);
        self.do_prefetch_inner(obj, kind, t);
        // Prefetch I/O is asynchronous: zero simulated self cost on the
        // issuing transaction's path.
        self.prof_exit(tok, 0);
    }

    fn do_prefetch_inner(&mut self, obj: ObjectId, kind: QueryKind, t: SimTime) {
        let scope = self.effective_prefetch();
        if scope == PrefetchScope::None {
            return;
        }
        let hint = match kind {
            QueryKind::CompositeRetrieval | QueryKind::ComponentRetrieval => {
                AccessHint::ByConfiguration
            }
            QueryKind::AncestorRetrieval | QueryKind::DescendantRetrieval => {
                AccessHint::ByVersionHistory
            }
            QueryKind::CorrespondentRetrieval => AccessHint::ByCorrespondence,
            QueryKind::SimpleLookup | QueryKind::Mutation => return,
        };
        let group = prefetch_group(&self.db, &self.store, obj, hint);
        if group.is_empty() {
            return;
        }
        let effect = apply_prefetch(&mut self.pool, &group, scope);
        if !effect.fetched.is_empty() || !effect.write_backs.is_empty() {
            self.registry.bump(self.counters.prefetch_issue);
            self.emit(|| TraceEvent::PrefetchIssue {
                at: t,
                fetched: effect.fetched.len() as u32,
                write_backs: effect.write_backs.len() as u32,
            });
        }
        // Prefetch I/Os are issued asynchronously: they load the disks but
        // do not extend this transaction's critical path. They never fail
        // or retry, but a persistently degraded disk still serves them
        // slowly (static multiplier — no fault-plan draws).
        let reads = effect.fetched.iter().map(|&page| (page, false));
        let write_backs = effect.write_backs.iter().map(|&victim| (victim, true));
        for (page, write_back) in reads.chain(write_backs) {
            let d = self.layout.disk_of(page) as usize;
            let service = self.disk_service.times(self.faults.disk_mult(d as u32));
            let done = self.disks.submit_to(d, t, service);
            self.registry.bump(self.counters.prefetch_io);
            self.emit(|| TraceEvent::PrefetchIo {
                at: t,
                page,
                disk: d as u32,
                write_back,
                done,
            });
        }
    }
}
