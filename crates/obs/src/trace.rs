//! Typed trace events and sinks.
//!
//! Every event is stamped in **simulated time** (integer microseconds),
//! so a trace is a pure function of the configuration and seed: two
//! same-seed runs emit byte-identical JSONL. Sinks must not perturb the
//! simulation — they observe completed scheduling decisions and never
//! feed anything back.

use crate::json::ObjWriter;
use semcluster_sim::SimTime;
use semcluster_storage::PageId;
use std::cell::RefCell;
use std::io::Write;
use std::rc::Rc;

/// Why a physical page read was issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadCause {
    /// Demand fault on the transaction's critical path.
    Demand,
    /// Candidate-page read during a clustering placement search.
    ClusterSearch,
}

impl ReadCause {
    fn as_str(self) -> &'static str {
        match self {
            ReadCause::Demand => "demand",
            ReadCause::ClusterSearch => "cluster_search",
        }
    }
}

/// Why a physical page write was issued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushCause {
    /// Dirty victim written back at eviction.
    Evict,
    /// Freshly split page forced to disk.
    Split,
    /// Dirty victim displaced by an asynchronous prefetch.
    Prefetch,
}

impl FlushCause {
    fn as_str(self) -> &'static str {
        match self {
            FlushCause::Evict => "evict",
            FlushCause::Split => "split",
            FlushCause::Prefetch => "prefetch",
        }
    }
}

/// Which logging action forced a physical log I/O.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogFlushKind {
    /// First-touch before-image of an updated page.
    BeforeImage,
    /// The circular log buffer wrapped (filled completely).
    Full,
    /// Commit forced the buffered tail.
    Commit,
}

impl LogFlushKind {
    fn as_str(self) -> &'static str {
        match self {
            LogFlushKind::BeforeImage => "before_image",
            LogFlushKind::Full => "full",
            LogFlushKind::Commit => "commit",
        }
    }
}

/// Which kind of physical I/O a fault event concerns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// A data-page read.
    Read,
    /// A data-page write.
    Write,
    /// A physical log I/O.
    Log,
}

impl FaultOp {
    fn as_str(self) -> &'static str {
        match self {
            FaultOp::Read => "read",
            FaultOp::Write => "write",
            FaultOp::Log => "log",
        }
    }
}

/// Why a transaction aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortCause {
    /// A page I/O exhausted its retry budget.
    Io {
        /// The I/O kind that exhausted its retries.
        op: FaultOp,
        /// Page whose I/O failed.
        page: PageId,
        /// Disk that failed.
        disk: u32,
    },
    /// No feasible placement: the object (for a create on a deleted
    /// anchor, the anchor) could not be placed.
    Placement {
        /// The object the placement concerned.
        object: u32,
    },
}

/// Convert an affinity/gain value to integer milli-units for export.
/// Negative values clamp to zero (placement scores are magnitudes).
pub fn milli(v: f64) -> u64 {
    if v <= 0.0 {
        0
    } else {
        (v * 1000.0).round() as u64
    }
}

/// Which placement decision a [`TraceEvent::Placement`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditKind {
    /// Initial placement of a newly created object.
    Create,
    /// Update-time reclustering of an existing object.
    Recluster,
}

impl AuditKind {
    /// The label used in JSON and table renderings.
    pub fn as_str(self) -> &'static str {
        match self {
            AuditKind::Create => "create",
            AuditKind::Recluster => "recluster",
        }
    }
}

/// Outcome of the split check attached to a placement decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitVerdict {
    /// No full preferred page, so a split was never on the table.
    NotConsidered,
    /// A full preferred page existed but the split policy declined.
    Declined,
    /// The preferred page was split and this new page allocated.
    Executed {
        /// The freshly allocated page.
        new_page: PageId,
    },
}

/// One candidate page the placement search examined. Scores are
/// fixed-point milli-units (see [`milli`]) so the JSON stays
/// integer-only and byte-stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CandidateAudit {
    /// The candidate page.
    pub page: PageId,
    /// Its affinity (create) or expected gain (recluster), milli-units.
    pub score_milli: u64,
    /// Whether the object fit on the page at decision time.
    pub fits: bool,
}

/// One observable moment of the simulation. All `at` fields are
/// simulated time; `done` fields are the completion times the FCFS
/// servers computed for the corresponding physical I/O.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A transaction left its think phase and acquired its locks.
    TxnBegin {
        /// Start of execution.
        at: SimTime,
        /// Submitting user (workstation).
        user: u32,
        /// Global transaction sequence number.
        txn: u64,
        /// Whether every operation is a read.
        is_read: bool,
        /// Number of operations in the transaction.
        ops: u32,
    },
    /// A transaction committed; its response time is fully attributed.
    TxnCommit {
        /// Commit completion time.
        at: SimTime,
        /// Submitting user.
        user: u32,
        /// Global transaction sequence number.
        txn: u64,
        /// End-to-end response in microseconds (includes lock wait).
        response_us: u64,
        /// CPU component (service + queueing beyond the I/O chain).
        cpu_us: u64,
        /// Demand page-read component.
        data_read_us: u64,
        /// Dirty-eviction write-back component.
        dirty_flush_us: u64,
        /// Clustering candidate-search read component.
        cluster_search_us: u64,
        /// Log-device component (before-images, wraps, commit force).
        log_us: u64,
        /// Time parked waiting for locks.
        lock_wait_us: u64,
    },
    /// A logical page access missed and expanded into physical I/Os.
    IoExpand {
        /// When the access was issued.
        at: SimTime,
        /// The faulted page.
        page: PageId,
        /// Physical I/Os the miss expanded into (read + optional
        /// write-back).
        ios: u32,
    },
    /// Physical page read.
    PageRead {
        /// Issue time.
        at: SimTime,
        /// Page read.
        page: PageId,
        /// Disk that served it.
        disk: u32,
        /// Why it was read.
        cause: ReadCause,
        /// Completion time (after disk queueing + service).
        done: SimTime,
    },
    /// Physical page write.
    PageFlush {
        /// Issue time.
        at: SimTime,
        /// Page written.
        page: PageId,
        /// Disk that served it.
        disk: u32,
        /// Why it was written.
        cause: FlushCause,
        /// Completion time.
        done: SimTime,
    },
    /// A prefetch batch was issued for one object's related group.
    PrefetchIssue {
        /// Issue time.
        at: SimTime,
        /// Pages fetched asynchronously.
        fetched: u32,
        /// Dirty victims written back to make room.
        write_backs: u32,
    },
    /// One asynchronous prefetch I/O (read or displaced write-back).
    PrefetchIo {
        /// Issue time.
        at: SimTime,
        /// Page involved.
        page: PageId,
        /// Disk that served it.
        disk: u32,
        /// True for a displaced dirty write-back, false for the fetch.
        write_back: bool,
        /// Completion time.
        done: SimTime,
    },
    /// One run-time placement decision of the cluster manager (§2,
    /// §5.1): the initial placement of a created object or the
    /// update-time recluster of an existing one — the candidate pages
    /// the search examined, the page it chose, where the object landed
    /// and what the split check decided.
    Placement {
        /// Decision time: when the create or update was issued.
        at: SimTime,
        /// Create placement or update-time recluster.
        kind: AuditKind,
        /// The object being placed or moved.
        object: u32,
        /// The page a recluster considered moving the object off
        /// (`None` for a create); it moved when `landed` differs.
        from: Option<PageId>,
        /// Candidate pages in examination order, with per-candidate scores.
        candidates: Vec<CandidateAudit>,
        /// The page the search selected, or `None` when no candidate won
        /// (a create falls back to appending).
        chosen: Option<PageId>,
        /// The page the object actually ended up on.
        landed: PageId,
        /// Score of the winning candidate in milli-units (affinity for
        /// create, expected gain for recluster); 0 when none won.
        score_milli: u64,
        /// Full preferred page that could not take the object, if any;
        /// the page an executed split divided.
        preferred_full: Option<PageId>,
        /// What the split check decided.
        split: SplitVerdict,
        /// Candidate-page reads the search charged to the transaction.
        search_ios: u32,
    },
    /// A transaction could not acquire its pre-declared locks and parked.
    LockWait {
        /// Park time.
        at: SimTime,
        /// Parked user.
        user: u32,
    },
    /// A parked transaction finally acquired its locks.
    LockGrant {
        /// Grant time.
        at: SimTime,
        /// Woken user.
        user: u32,
        /// How long it waited, in microseconds.
        wait_us: u64,
    },
    /// A physical log I/O.
    LogFlush {
        /// Issue time.
        at: SimTime,
        /// What forced it.
        kind: LogFlushKind,
        /// Completion time on the log disk.
        done: SimTime,
    },
    /// An injected transient I/O fault (the attempt failed).
    IoFault {
        /// Time the failed attempt completed.
        at: SimTime,
        /// Read or write.
        op: FaultOp,
        /// Page involved.
        page: PageId,
        /// Disk that served the attempt.
        disk: u32,
        /// Attempt number (1-based).
        attempt: u32,
    },
    /// A retry after an injected fault, with its deterministic backoff.
    IoRetry {
        /// Time the retry was scheduled (post-backoff).
        at: SimTime,
        /// Read or write.
        op: FaultOp,
        /// Page involved.
        page: PageId,
        /// Disk being retried.
        disk: u32,
        /// Attempt number about to run (2-based).
        attempt: u32,
        /// Backoff charged before this attempt, in simulated µs.
        backoff_us: u64,
    },
    /// An injected log-device stall delayed a physical log I/O.
    LogStall {
        /// Time the stall began.
        at: SimTime,
        /// Stall length in simulated µs.
        stall_us: u64,
    },
    /// A transaction aborted. Every [`TraceEvent::TxnBegin`] is closed
    /// by exactly one of this and [`TraceEvent::TxnCommit`].
    TxnAbort {
        /// Abort time.
        at: SimTime,
        /// Owning user (workstation).
        user: u32,
        /// Global transaction sequence number.
        txn: u64,
        /// What made it abort.
        cause: AbortCause,
    },
    /// The engine crossed a graceful-degradation boundary.
    Degrade {
        /// Transition time.
        at: SimTime,
        /// True entering degraded (append-placement) mode, false
        /// recovering to normal clustering.
        entered: bool,
    },
    /// End-of-run profiler counters for one phase stack (emitted once
    /// per stack when `--profile` is on and a sink is attached; renders
    /// as a Chrome counter event). Wall clock is deliberately absent —
    /// trace output stays deterministic.
    ProfilePhase {
        /// End-of-run simulated time.
        at: SimTime,
        /// `;`-joined phase stack (e.g. `run;wal_append;wal_flush`).
        path: String,
        /// Times the stack was entered.
        calls: u64,
        /// Simulated microseconds of self cost.
        sim_us: u64,
        /// Heap bytes requested while the stack was innermost.
        alloc_bytes: u64,
        /// Heap allocations while the stack was innermost.
        allocs: u64,
    },
}

impl TraceEvent {
    /// Event timestamp (simulated).
    pub fn at(&self) -> SimTime {
        match *self {
            TraceEvent::TxnBegin { at, .. }
            | TraceEvent::TxnCommit { at, .. }
            | TraceEvent::IoExpand { at, .. }
            | TraceEvent::PageRead { at, .. }
            | TraceEvent::PageFlush { at, .. }
            | TraceEvent::PrefetchIssue { at, .. }
            | TraceEvent::PrefetchIo { at, .. }
            | TraceEvent::Placement { at, .. }
            | TraceEvent::LockWait { at, .. }
            | TraceEvent::LockGrant { at, .. }
            | TraceEvent::LogFlush { at, .. }
            | TraceEvent::IoFault { at, .. }
            | TraceEvent::IoRetry { at, .. }
            | TraceEvent::LogStall { at, .. }
            | TraceEvent::TxnAbort { at, .. }
            | TraceEvent::Degrade { at, .. }
            | TraceEvent::ProfilePhase { at, .. } => at,
        }
    }

    /// Machine name of the event type (the JSONL `ev` field).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::TxnBegin { .. } => "txn_begin",
            TraceEvent::TxnCommit { .. } => "txn_commit",
            TraceEvent::IoExpand { .. } => "io_expand",
            TraceEvent::PageRead { .. } => "page_read",
            TraceEvent::PageFlush { .. } => "page_flush",
            TraceEvent::PrefetchIssue { .. } => "prefetch_issue",
            TraceEvent::PrefetchIo { .. } => "prefetch_io",
            TraceEvent::Placement { .. } => "placement",
            TraceEvent::LockWait { .. } => "lock_wait",
            TraceEvent::LockGrant { .. } => "lock_grant",
            TraceEvent::LogFlush { .. } => "log_flush",
            TraceEvent::IoFault { .. } => "io_fault",
            TraceEvent::IoRetry { .. } => "io_retry",
            TraceEvent::LogStall { .. } => "log_stall",
            TraceEvent::TxnAbort { .. } => "txn_abort",
            TraceEvent::Degrade { .. } => "degrade",
            TraceEvent::ProfilePhase { .. } => "profile_phase",
        }
    }

    /// Render as one deterministic JSON object (no trailing newline):
    /// `t`, then [`Self::fields`].
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let mut w = ObjWriter::begin(&mut s);
        w.u64("t", self.at().as_micros());
        self.fields(&mut w);
        w.end();
        s
    }

    /// Write `ev` and then the event-specific fields, in a fixed order.
    /// This is the one list of an event's fields: the JSONL line and
    /// the Chrome record's `args` both come from it.
    pub(crate) fn fields(&self, w: &mut ObjWriter) {
        w.str("ev", self.kind());
        match *self {
            TraceEvent::TxnBegin {
                user,
                txn,
                is_read,
                ops,
                ..
            } => {
                w.u64("user", user as u64)
                    .u64("txn", txn)
                    .bool("read", is_read)
                    .u64("ops", ops as u64);
            }
            TraceEvent::TxnCommit {
                user,
                txn,
                response_us,
                cpu_us,
                data_read_us,
                dirty_flush_us,
                cluster_search_us,
                log_us,
                lock_wait_us,
                ..
            } => {
                w.u64("user", user as u64)
                    .u64("txn", txn)
                    .u64("response_us", response_us)
                    .u64("cpu_us", cpu_us)
                    .u64("data_read_us", data_read_us)
                    .u64("dirty_flush_us", dirty_flush_us)
                    .u64("cluster_search_us", cluster_search_us)
                    .u64("log_us", log_us)
                    .u64("lock_wait_us", lock_wait_us);
            }
            TraceEvent::IoExpand { page, ios, .. } => {
                w.u64("page", page.0 as u64).u64("ios", ios as u64);
            }
            TraceEvent::PageRead {
                page,
                disk,
                cause,
                done,
                ..
            } => {
                w.u64("page", page.0 as u64)
                    .u64("disk", disk as u64)
                    .str("cause", cause.as_str())
                    .u64("done", done.as_micros());
            }
            TraceEvent::PageFlush {
                page,
                disk,
                cause,
                done,
                ..
            } => {
                w.u64("page", page.0 as u64)
                    .u64("disk", disk as u64)
                    .str("cause", cause.as_str())
                    .u64("done", done.as_micros());
            }
            TraceEvent::PrefetchIssue {
                fetched,
                write_backs,
                ..
            } => {
                w.u64("fetched", fetched as u64)
                    .u64("write_backs", write_backs as u64);
            }
            TraceEvent::PrefetchIo {
                page,
                disk,
                write_back,
                done,
                ..
            } => {
                w.u64("page", page.0 as u64)
                    .u64("disk", disk as u64)
                    .bool("write_back", write_back)
                    .u64("done", done.as_micros());
            }
            TraceEvent::Placement {
                kind,
                object,
                from,
                ref candidates,
                chosen,
                landed,
                score_milli,
                preferred_full,
                split,
                search_ios,
                ..
            } => {
                let mut cands = String::from("[");
                for (i, c) in candidates.iter().enumerate() {
                    if i > 0 {
                        cands.push(',');
                    }
                    let mut cw = ObjWriter::begin(&mut cands);
                    cw.u64("page", c.page.0 as u64)
                        .u64("score_milli", c.score_milli)
                        .bool("fits", c.fits);
                    cw.end();
                }
                cands.push(']');
                let page = |p: Option<PageId>| p.map(|p| p.0 as u64);
                w.str("kind", kind.as_str())
                    .u64("object", object as u64)
                    .opt_u64("from", page(from))
                    .raw("candidates", &cands)
                    .opt_u64("chosen", page(chosen))
                    .u64("landed", landed.0 as u64)
                    .u64("score_milli", score_milli)
                    .opt_u64("preferred_full", page(preferred_full));
                match split {
                    SplitVerdict::NotConsidered => w.str("split", "not_considered"),
                    SplitVerdict::Declined => w.str("split", "declined"),
                    SplitVerdict::Executed { new_page } => w
                        .str("split", "executed")
                        .u64("split_new_page", new_page.0 as u64),
                };
                w.u64("search_ios", search_ios as u64);
            }
            TraceEvent::LockWait { user, .. } => {
                w.u64("user", user as u64);
            }
            TraceEvent::LockGrant { user, wait_us, .. } => {
                w.u64("user", user as u64).u64("wait_us", wait_us);
            }
            TraceEvent::LogFlush { kind, done, .. } => {
                w.str("kind", kind.as_str()).u64("done", done.as_micros());
            }
            TraceEvent::IoFault {
                op,
                page,
                disk,
                attempt,
                ..
            } => {
                w.str("op", op.as_str())
                    .u64("page", page.0 as u64)
                    .u64("disk", disk as u64)
                    .u64("attempt", attempt as u64);
            }
            TraceEvent::IoRetry {
                op,
                page,
                disk,
                attempt,
                backoff_us,
                ..
            } => {
                w.str("op", op.as_str())
                    .u64("page", page.0 as u64)
                    .u64("disk", disk as u64)
                    .u64("attempt", attempt as u64)
                    .u64("backoff_us", backoff_us);
            }
            TraceEvent::LogStall { stall_us, .. } => {
                w.u64("stall_us", stall_us);
            }
            TraceEvent::TxnAbort {
                user, txn, cause, ..
            } => {
                w.u64("user", user as u64).u64("txn", txn);
                match cause {
                    AbortCause::Io { op, page, disk } => {
                        w.str("op", op.as_str())
                            .u64("page", page.0 as u64)
                            .u64("disk", disk as u64);
                    }
                    AbortCause::Placement { object } => {
                        w.str("op", "placement").u64("object", object as u64);
                    }
                }
            }
            TraceEvent::Degrade { entered, .. } => {
                w.bool("entered", entered);
            }
            TraceEvent::ProfilePhase {
                ref path,
                calls,
                sim_us,
                alloc_bytes,
                allocs,
                ..
            } => {
                w.str("path", path)
                    .u64("calls", calls)
                    .u64("sim_us", sim_us)
                    .u64("alloc_bytes", alloc_bytes)
                    .u64("allocs", allocs);
            }
        }
    }
}

/// Receiver of trace events. Implementations must be observation-only:
/// emitting an event must not influence the simulation in any way.
pub trait TraceSink {
    /// Whether events should be constructed and delivered at all. The
    /// engine skips event construction when this is false, so the
    /// default sink costs nothing on the hot path.
    fn enabled(&self) -> bool {
        true
    }

    /// Deliver one event.
    fn emit(&mut self, event: &TraceEvent);

    /// Flush any buffered output (end of run).
    fn flush(&mut self) {}
}

/// The default sink: drops everything, reports itself disabled.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    fn enabled(&self) -> bool {
        false
    }

    fn emit(&mut self, _event: &TraceEvent) {}
}

/// Streams events as JSON Lines to any writer.
pub struct JsonlSink<W: Write> {
    writer: W,
}

impl<W: Write> JsonlSink<W> {
    /// Wrap `writer`; one JSON object per line.
    pub fn new(writer: W) -> Self {
        JsonlSink { writer }
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn emit(&mut self, event: &TraceEvent) {
        let mut line = event.to_json();
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .expect("trace sink write failed");
    }

    fn flush(&mut self) {
        self.writer.flush().expect("trace sink flush failed");
    }
}

/// Keeps every event, typed, in order (tests read them back through
/// [`shared`]).
impl TraceSink for Vec<TraceEvent> {
    fn emit(&mut self, event: &TraceEvent) {
        self.push(event.clone());
    }
}

/// Shared handle to a sink, so a caller can hand a sink to the engine
/// and still inspect it after the run.
pub type SharedSink<T> = Rc<RefCell<T>>;

/// Wrap a sink for shared ownership (see [`SharedSink`]).
pub fn shared<T: TraceSink>(sink: T) -> SharedSink<T> {
    Rc::new(RefCell::new(sink))
}

impl<T: TraceSink> TraceSink for SharedSink<T> {
    fn enabled(&self) -> bool {
        self.borrow().enabled()
    }

    fn emit(&mut self, event: &TraceEvent) {
        self.borrow_mut().emit(event);
    }

    fn flush(&mut self) {
        self.borrow_mut().flush();
    }
}

/// A growable in-memory byte buffer with shared ownership that is
/// `Send + Sync`: usable as the writer of a [`JsonlSink`] or a
/// [`ChromeTraceSink`](crate::ChromeTraceSink) while the caller keeps a
/// handle to read the bytes back after the run, on any thread (a sweep
/// executor's sink factory builds its sinks on worker threads).
#[derive(Debug, Clone, Default)]
pub struct SyncBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

impl SyncBuf {
    /// New empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copy of the bytes written so far.
    pub fn bytes(&self) -> Vec<u8> {
        self.0.lock().expect("buffer lock").clone()
    }
}

impl Write for SyncBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("buffer lock").extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64) -> TraceEvent {
        TraceEvent::PageRead {
            at: SimTime::from_micros(t),
            page: PageId(7),
            disk: 2,
            cause: ReadCause::Demand,
            done: SimTime::from_micros(t + 30),
        }
    }

    #[test]
    fn event_json_shape() {
        let j = ev(100).to_json();
        assert_eq!(
            j,
            r#"{"t":100,"ev":"page_read","page":7,"disk":2,"cause":"demand","done":130}"#
        );
    }

    fn placement(split: SplitVerdict) -> TraceEvent {
        TraceEvent::Placement {
            at: SimTime::from_micros(100),
            kind: AuditKind::Create,
            object: 42,
            from: None,
            candidates: vec![
                CandidateAudit {
                    page: PageId(3),
                    score_milli: 2500,
                    fits: true,
                },
                CandidateAudit {
                    page: PageId(9),
                    score_milli: 1000,
                    fits: false,
                },
            ],
            chosen: Some(PageId(3)),
            landed: PageId(3),
            score_milli: 2500,
            preferred_full: None,
            split,
            search_ios: 1,
        }
    }

    #[test]
    fn milli_rounds_and_clamps() {
        assert_eq!(milli(2.5), 2500);
        assert_eq!(milli(0.0004), 0);
        assert_eq!(milli(0.0006), 1);
        assert_eq!(milli(-1.0), 0);
    }

    #[test]
    fn placement_json_shape() {
        assert_eq!(
            placement(SplitVerdict::NotConsidered).to_json(),
            "{\"t\":100,\"ev\":\"placement\",\"kind\":\"create\",\"object\":42,\"from\":null,\
             \"candidates\":[{\"page\":3,\"score_milli\":2500,\"fits\":true},\
             {\"page\":9,\"score_milli\":1000,\"fits\":false}],\
             \"chosen\":3,\"landed\":3,\"score_milli\":2500,\
             \"preferred_full\":null,\"split\":\"not_considered\",\
             \"search_ios\":1}"
        );
    }

    #[test]
    fn split_verdict_variants_render() {
        let executed = placement(SplitVerdict::Executed {
            new_page: PageId(17),
        });
        assert!(executed
            .to_json()
            .contains("\"split\":\"executed\",\"split_new_page\":17,\"search_ios\":1}"));
        let declined = placement(SplitVerdict::Declined).to_json();
        assert!(declined.contains("\"split\":\"declined\",\"search_ios\""));
    }

    #[test]
    fn abort_json_shape_per_cause() {
        let abort = |cause| TraceEvent::TxnAbort {
            at: SimTime::from_micros(9),
            user: 3,
            txn: 41,
            cause,
        };
        let io = AbortCause::Io {
            op: FaultOp::Write,
            page: PageId(7),
            disk: 2,
        };
        assert_eq!(
            abort(io).to_json(),
            r#"{"t":9,"ev":"txn_abort","user":3,"txn":41,"op":"write","page":7,"disk":2}"#
        );
        assert_eq!(
            abort(AbortCause::Placement { object: 12 }).to_json(),
            r#"{"t":9,"ev":"txn_abort","user":3,"txn":41,"op":"placement","object":12}"#
        );
    }

    #[test]
    fn jsonl_sink_writes_lines() {
        let buf = SyncBuf::new();
        let mut sink = JsonlSink::new(buf.clone());
        sink.emit(&ev(1));
        sink.emit(&ev(2));
        sink.flush();
        let text = String::from_utf8(buf.bytes()).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn noop_reports_disabled() {
        assert!(!NoopSink.enabled());
    }

    #[test]
    fn shared_sink_observable_after_handoff() {
        let events = shared(Vec::<TraceEvent>::new());
        let mut handle: Box<dyn TraceSink> = Box::new(events.clone());
        assert!(handle.enabled());
        handle.emit(&ev(5));
        assert_eq!(*events.borrow(), [ev(5)]);
    }

    #[test]
    fn sync_buf_readable_across_threads() {
        let buf = SyncBuf::new();
        let writer = buf.clone();
        std::thread::spawn(move || {
            let mut sink = JsonlSink::new(writer);
            sink.emit(&ev(3));
            sink.flush();
        })
        .join()
        .unwrap();
        let text = String::from_utf8(buf.bytes()).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("\"ev\":"));
    }
}
