//! The cost model: a logical page access expands into 0–3 physical I/Os
//! (dirty-page flush, log I/O, demand read); the helpers here submit
//! them and the CPU service to the FCFS servers, advance the [`OpClock`]
//! and account every microsecond waited to one span component. Also
//! what an access does for *later* accesses: prefetch and boosting.

use super::observe::fault_op;
use super::{Engine, CONTEXT_BOOST_FANOUT};
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

/// Extra CPU service for running a page-split partition.
const CPU_PER_SPLIT: SimDuration = SimDuration::from_millis(5);

/// Where the operation in flight stands in simulated time. Only the
/// helpers in this module advance it, accounting each advance to one
/// span component as they make it.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct OpClock {
    /// Issue time: CPU service and asynchronous prefetch start here.
    issued: SimTime,
    /// End of the serial I/O chain so far; where a failure stopped it.
    at: SimTime,
    /// When the operation's CPU service completes.
    cpu_done: SimTime,
}

impl OpClock {
    /// A fresh clock for an operation issued at `now`.
    pub(super) fn issued_at(now: SimTime) -> Self {
        OpClock {
            issued: now,
            at: now,
            cpu_done: now,
        }
    }

    /// When the operation was issued.
    pub(super) fn issued(&self) -> SimTime {
        self.issued
    }

    /// The end of the I/O chain so far.
    pub(super) fn now(&self) -> SimTime {
        self.at
    }
}

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

    /// Submit the CPU service of `accesses` logical page accesses at the
    /// operation's issue time; it overlaps the I/O chain.
    pub(super) fn charge_cpu(&mut self, accesses: u64) {
        let service = self.cfg.cpu_per_access.times(accesses);
        self.clock.cpu_done = self.cpu.submit(self.clock.issued, service);
    }

    /// Run a page-split partition on the CPU: the I/O chain waits for
    /// it, and the wait is CPU time.
    pub(super) fn charge_split_cpu(&mut self) {
        let split_cpu = self.cpu.submit(self.clock.issued, CPU_PER_SPLIT);
        let chained = self.clock.at.max(split_cpu);
        self.cur_span.cpu_us += chained.since(self.clock.at).as_micros();
        self.clock.at = chained;
    }

    /// Close an operation and return when it completes: any time the
    /// CPU keeps the transaction busy beyond its I/O chain is the
    /// operation's CPU component.
    pub(super) fn finish_op(&mut self) -> SimTime {
        let done = self.clock.cpu_done.max(self.clock.at);
        self.cur_span.cpu_us += done.since(self.clock.at).as_micros();
        done
    }

    /// Run one disk I/O with fault injection: degraded/spike service
    /// multipliers per attempt, transient failures from the fault plan,
    /// and bounded retry with deterministic backoff charged in
    /// simulated time. The clock is left at the end of the last attempt,
    /// successful or not; after the budget is exhausted the
    /// [`IoError`] is returned. Every failed attempt still occupies the
    /// disk for its full (possibly spiked) service time. With an inert
    /// fault config this reduces exactly to one `submit_to` call.
    fn faulty_disk_io(&mut self, op: IoOp, page: PageId, d: usize) -> Result<(), IoError> {
        let retry = self.faults.retry();
        let max_attempts = retry.max_attempts.max(1);
        let mut attempt = 1u32;
        let mut t = self.clock.at;
        loop {
            let (mult, spiked) = self.faults.service_mult(d as u32);
            if spiked {
                self.registry.bump(self.counters.fault_io_spike);
            }
            let done = self.disks.submit_to(d, t, self.disk_service.times(mult));
            self.clock.at = done;
            let failed = match op {
                IoOp::Read => self.faults.read_fails(d as u32),
                IoOp::Write => self.faults.write_fails(d as u32),
                IoOp::Log => unreachable!("log I/O stalls, it does not fail"),
            };
            if !failed {
                return Ok(());
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

    /// Fault `page` through the pool, chaining any physical I/O onto the
    /// clock. `cause` decides whether the read is a demand read or a
    /// clustering-search read — the two are charged to different
    /// response components and counters. Under fault injection the read
    /// may retry with backoff (all of it charged to the same component)
    /// or fail the owning transaction.
    pub(super) fn charge_access(
        &mut self,
        page: PageId,
        cause: ReadCause,
    ) -> Result<(), EngineError> {
        let tok = self.prof_enter(Phase::BufferLookup);
        match self.pool.access(page) {
            Access::Hit => {
                self.registry.bump(self.counters.buffer_hit);
                self.prof_exit(tok, 0);
                Ok(())
            }
            Access::Miss { evicted_dirty } => {
                self.registry.bump(self.counters.buffer_miss);
                let issued = self.clock.at;
                let mut ios = 1u32;
                if let Some(victim) = evicted_dirty {
                    if let Err(e) = self.charge_flush(victim, FlushCause::Evict) {
                        // Failed write-back aborts the access; the
                        // phase still closes (its span was already
                        // charged to the transaction by charge_flush).
                        self.prof_exit(tok, 0);
                        return Err(e);
                    }
                    ios += 1;
                }
                let d = self.layout.disk_of(page) as usize;
                let read_issued = self.clock.at;
                let outcome = self.faulty_disk_io(IoOp::Read, page, d);
                let done = self.clock.at;
                // The whole retry saga (attempts + backoff) is read wait,
                // charged even when the I/O ultimately fails — the
                // transaction really did spend that time.
                let wait = done.since(read_issued).as_micros();
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
                self.prof_exit(tok, done.since(issued).as_micros());
                outcome?;
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
                    done,
                });
                Ok(())
            }
        }
    }

    /// Write a dirty page back on the transaction's critical path.
    pub(super) fn charge_flush(
        &mut self,
        page: PageId,
        cause: FlushCause,
    ) -> Result<(), EngineError> {
        if let Some(m) = self.mirror.as_mut() {
            // Stealing a dirty page to disk: the mirror logs a page
            // snapshot (so a torn page write is always repairable) and
            // queues the real write behind the force that makes it
            // durable.
            m.steal(&self.store, page);
        }
        let d = self.layout.disk_of(page) as usize;
        let issued = self.clock.at;
        let outcome = self.faulty_disk_io(IoOp::Write, page, d);
        let done = self.clock.at;
        self.cur_span.dirty_flush_us += done.since(issued).as_micros();
        outcome?;
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
            at: issued,
            page,
            disk: d as u32,
            cause,
            done,
        });
        Ok(())
    }

    /// Admit a page the engine just created (no disk image yet).
    pub(super) fn charge_install(&mut self, page: PageId) -> Result<(), EngineError> {
        if let Some(victim) = self.pool.install(page) {
            self.charge_flush(victim, FlushCause::Evict)?;
        }
        Ok(())
    }

    /// One physical log-device I/O of the given kind, chained onto the
    /// clock. Log I/O never fails (the device is redundant in the model)
    /// but an injected stall can delay it; the stall is charged to the
    /// log component in simulated time.
    pub(super) fn submit_log_io(&mut self, kind: LogFlushKind) {
        let tok = self.prof_enter(Phase::WalFlush);
        self.log_flushes_seen += 1;
        if self.crash_point == CrashPoint::MidFlush(self.log_flushes_seen) {
            self.crash_pending = true;
        }
        let t = self.clock.at;
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
        self.clock.at = done;
        self.registry.bump(match kind {
            LogFlushKind::BeforeImage => self.counters.wal_flush_before_image,
            LogFlushKind::Full => self.counters.wal_flush_full,
            LogFlushKind::Commit => self.counters.wal_flush_commit,
        });
        self.cur_span.log_us += done.since(t).as_micros();
        self.prof_exit(tok, done.since(t).as_micros());
        self.emit(|| TraceEvent::LogFlush { at: t, kind, done });
    }

    /// Log an update and charge the physical log I/Os it caused
    /// (first-touch before-image and/or log-buffer wraps).
    pub(super) fn charge_log(&mut self, token: TxnToken, page: PageId, bytes: u32) {
        let tok = self.prof_enter(Phase::WalAppend);
        let io = self.log.log_update_detail(token, page, bytes);
        if io.before_image {
            self.submit_log_io(LogFlushKind::BeforeImage);
        }
        for _ in 0..io.wrap_flushes {
            self.submit_log_io(LogFlushKind::Full);
        }
        // Physical flush time nests under `wal_flush`; the append itself
        // is bookkeeping with zero simulated self cost.
        self.prof_exit(tok, 0);
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

    /// Asynchronous prefetch for an access to `obj` arriving via `kind`,
    /// issued with the operation. Honours graceful degradation: while
    /// degraded, database-wide prefetch narrows to within-buffer (see
    /// [`Self::effective_prefetch`]).
    pub(super) fn do_prefetch(&mut self, obj: ObjectId, kind: QueryKind) {
        let tok = self.prof_enter(Phase::Prefetch);
        self.do_prefetch_inner(obj, kind);
        // Prefetch I/O is asynchronous: zero simulated self cost on the
        // issuing transaction's path.
        self.prof_exit(tok, 0);
    }

    fn do_prefetch_inner(&mut self, obj: ObjectId, kind: QueryKind) {
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
            QueryKind::SimpleLookup => return,
        };
        let group = prefetch_group(&self.db, &self.store, obj, hint);
        if group.is_empty() {
            return;
        }
        let t = self.clock.issued;
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
