//! Chrome Trace Event (Perfetto) exporter.
//!
//! [`ChromeTraceSink`] renders the engine's [`TraceEvent`] stream in the
//! Chrome `trace_event` JSON-array format, so any run can be opened
//! directly in `chrome://tracing` or <https://ui.perfetto.dev> with no
//! conversion step. Simulated microseconds map 1:1 onto the format's
//! `ts`/`dur` microsecond fields.
//!
//! Lane layout (process/thread rows in the viewer):
//!
//! * pid 1 `transactions` — one thread per user; transactions render as
//!   nested `B`/`E` spans (commit or abort closes the span), lock
//!   wait/grant as instants on the owning user's row;
//! * pid 2 `data-disks` — one thread per disk; page reads, flushes and
//!   prefetch I/Os render as `X` complete events with their queueing +
//!   service duration, faults and retries as instants;
//! * pid 3 `log-device` — physical log flushes and injected stalls;
//! * pid 4 `engine` — global instants (I/O expansion, prefetch issue,
//!   placement decisions, degradation transitions);
//! * pid 5 `profiler` — end-of-run `C` counter events, one per phase
//!   stack, carrying the deterministic profile columns (calls,
//!   simulated µs, allocated bytes/count);
//! * pid 6 `serve-requests` — live-server per-request attribution: one
//!   row per logical session, each request rendered as five
//!   consecutive `X` slices (admission wait, lock wait, engine exec,
//!   commit wait, reply write) that tile the measured service time
//!   exactly. Emitted via [`ChromeTraceSink::emit_serve_request`] from
//!   the server's retained trace records; timestamps are wall-clock µs
//!   since server start rather than simulated time.
//!
//! Every event record's `args` are the event's JSONL fields less `t`
//! ([`TraceEvent::to_json`]): `ev` first, so an abort's closing `E`
//! record reads `"ev":"txn_abort"` where a commit's reads
//! `"ev":"txn_commit"`. A `C` counter record keeps only the numeric
//! fields, since the viewer plots each arg as a series.
//!
//! Output is deterministic: same run, byte-identical trace file.

use crate::json::ObjWriter;
use crate::trace::{ReadCause, TraceEvent, TraceSink};
use std::io::Write;

const PID_TXNS: u64 = 1;
const PID_DISKS: u64 = 2;
const PID_LOG: u64 = 3;
const PID_ENGINE: u64 = 4;
const PID_PROFILE: u64 = 5;
const PID_SERVER: u64 = 6;

/// Streams [`TraceEvent`]s as a Chrome `trace_event` JSON array.
pub struct ChromeTraceSink<W: Write> {
    writer: W,
    closed: bool,
}

/// What a record says besides its `ts` and `args`.
struct Record<'a> {
    name: &'a str,
    ph: &'static str,
    dur: Option<u64>,
    pid: u64,
    tid: u64,
}

impl Record<'_> {
    /// The event's record: which lane it belongs on, under what name,
    /// and as which phase.
    fn of(event: &TraceEvent) -> Record<'_> {
        use TraceEvent::*;
        let (ph, pid, tid, done) = match *event {
            TxnBegin { user, .. } => ("B", PID_TXNS, user, None),
            TxnCommit { user, .. } | TxnAbort { user, .. } => ("E", PID_TXNS, user, None),
            LockWait { user, .. } | LockGrant { user, .. } => ("i", PID_TXNS, user, None),
            PageRead { disk, done, .. }
            | PageFlush { disk, done, .. }
            | PrefetchIo { disk, done, .. } => ("X", PID_DISKS, disk, Some(done)),
            IoFault { disk, .. } | IoRetry { disk, .. } => ("i", PID_DISKS, disk, None),
            LogFlush { done, .. } => ("X", PID_LOG, 0, Some(done)),
            LogStall { .. } => ("i", PID_LOG, 0, None),
            IoExpand { .. } | PrefetchIssue { .. } | Placement { .. } | Degrade { .. } => {
                ("i", PID_ENGINE, 0, None)
            }
            ProfilePhase { .. } => ("C", PID_PROFILE, 0, None),
        };
        let name = match event {
            TxnBegin { .. } | TxnCommit { .. } | TxnAbort { .. } => "txn",
            PageRead {
                cause: ReadCause::ClusterSearch,
                ..
            } => "cluster_search_read",
            ProfilePhase { path, .. } => path,
            _ => event.kind(),
        };
        let ts = event.at().as_micros();
        Record {
            name,
            ph,
            dur: done.map(|done| done.as_micros().saturating_sub(ts)),
            pid,
            tid: u64::from(tid),
        }
    }

    fn render(&self, ts: u64, args: impl FnOnce(&mut ObjWriter)) -> String {
        let mut s = String::new();
        let mut w = ObjWriter::begin(&mut s);
        w.str("name", self.name).str("ph", self.ph).u64("ts", ts);
        if let Some(d) = self.dur {
            w.u64("dur", d);
        }
        w.u64("pid", self.pid).u64("tid", self.tid);
        if self.ph == "i" {
            w.str("s", "t");
        }
        w.obj("args", args);
        w.end();
        s
    }
}

impl<W: Write> ChromeTraceSink<W> {
    /// Wrap `writer`; the JSON array opens immediately with process
    /// metadata so the lane names appear even for empty traces.
    pub fn new(writer: W) -> Self {
        let mut sink = ChromeTraceSink {
            writer,
            closed: false,
        };
        sink.writer
            .write_all(b"[\n")
            .expect("chrome trace write failed");
        for (pid, name) in [
            (PID_TXNS, "transactions"),
            (PID_DISKS, "data-disks"),
            (PID_LOG, "log-device"),
            (PID_ENGINE, "engine"),
            (PID_PROFILE, "profiler"),
            (PID_SERVER, "serve-requests"),
        ] {
            let meta = Record {
                name: "process_name",
                ph: "M",
                dur: None,
                pid,
                tid: 0,
            };
            sink.write_line(meta.render(0, |w| {
                w.str("name", name);
            }));
        }
        sink
    }

    /// Emit one served request on the `serve-requests` lane: the spans
    /// render as consecutive `X` slices on the session's row, tiling
    /// `[start_us, start_us + Σ span)` with no gaps — a visual proof of
    /// the zero-residual attribution invariant. `spans` is `(phase
    /// name, µs)` in service order; zero-length spans are skipped (the
    /// viewer would drop them anyway).
    pub fn emit_serve_request(
        &mut self,
        session: u32,
        client_txn: u64,
        start_us: u64,
        spans: &[(&str, u64)],
    ) {
        let mut at = start_us;
        for (phase, dur) in spans {
            if *dur > 0 {
                let slice = Record {
                    name: phase,
                    ph: "X",
                    dur: Some(*dur),
                    pid: PID_SERVER,
                    tid: u64::from(session),
                };
                self.write_line(slice.render(at, |w| {
                    w.u64("client_txn", client_txn);
                }));
            }
            at += dur;
        }
    }

    fn write_line(&mut self, mut line: String) {
        line.push_str(",\n");
        self.writer
            .write_all(line.as_bytes())
            .expect("chrome trace write failed");
    }
}

impl<W: Write> TraceSink for ChromeTraceSink<W> {
    fn emit(&mut self, event: &TraceEvent) {
        let rec = Record::of(event);
        let line = rec.render(event.at().as_micros(), |w| {
            if rec.ph == "C" {
                w.numbers_only();
            }
            event.fields(w);
        });
        self.write_line(line);
    }

    fn flush(&mut self) {
        if !self.closed {
            // A trailing "{}" absorbs the final comma; the trace_event
            // format explicitly tolerates (and Perfetto emits) it.
            self.writer
                .write_all(b"{}\n]\n")
                .expect("chrome trace write failed");
            self.closed = true;
        }
        self.writer.flush().expect("chrome trace flush failed");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{
        AbortCause, AuditKind, CandidateAudit, FaultOp, FlushCause, LogFlushKind, SplitVerdict,
        SyncBuf,
    };
    use semcluster_sim::SimTime;
    use semcluster_storage::PageId;

    /// The `args` object of one record line.
    fn args_of(line: &str) -> &str {
        let line = line.strip_suffix(',').unwrap_or(line);
        &line[line.find(r#""args":"#).expect("record has args") + 7..line.len() - 1]
    }

    /// A flat JSON object keeping only its numeric fields.
    fn numeric_fields(obj: &str) -> String {
        let kept: Vec<&str> = obj[1..obj.len() - 1]
            .split(',')
            .filter(|f| {
                f.split(':')
                    .nth(1)
                    .is_some_and(|v| v.starts_with(|c: char| c.is_ascii_digit()))
            })
            .collect();
        format!("{{{}}}", kept.join(","))
    }

    /// A placement decision of `kind` off `from` with split `split`.
    fn placement(
        at: SimTime,
        kind: AuditKind,
        from: Option<PageId>,
        split: SplitVerdict,
    ) -> TraceEvent {
        TraceEvent::Placement {
            at,
            kind,
            object: 9,
            from,
            candidates: vec![
                CandidateAudit {
                    page: PageId(7),
                    score_milli: 1500,
                    fits: false,
                },
                CandidateAudit {
                    page: PageId(8),
                    score_milli: 500,
                    fits: true,
                },
            ],
            chosen: Some(PageId(8)),
            landed: PageId(8),
            score_milli: 500,
            preferred_full: Some(PageId(7)),
            split,
            search_ios: 1,
        }
    }

    /// One event of every variant, both read causes, both abort causes,
    /// both placement kinds and all three split verdicts included.
    fn every_variant() -> Vec<TraceEvent> {
        let t = SimTime::from_micros;
        let (page, disk) = (PageId(7), 2);
        let abort = |cause| TraceEvent::TxnAbort {
            at: t(90),
            user: 3,
            txn: 41,
            cause,
        };
        vec![
            TraceEvent::TxnBegin {
                at: t(10),
                user: 3,
                txn: 41,
                is_read: false,
                ops: 4,
            },
            TraceEvent::TxnCommit {
                at: t(80),
                user: 3,
                txn: 41,
                response_us: 70,
                cpu_us: 1,
                data_read_us: 2,
                dirty_flush_us: 3,
                cluster_search_us: 4,
                log_us: 5,
                lock_wait_us: 55,
            },
            TraceEvent::IoExpand {
                at: t(11),
                page,
                ios: 2,
            },
            TraceEvent::PageRead {
                at: t(12),
                page,
                disk,
                cause: ReadCause::Demand,
                done: t(40),
            },
            TraceEvent::PageRead {
                at: t(13),
                page,
                disk,
                cause: ReadCause::ClusterSearch,
                done: t(41),
            },
            TraceEvent::PageFlush {
                at: t(14),
                page,
                disk,
                cause: FlushCause::Split,
                done: t(42),
            },
            TraceEvent::PrefetchIssue {
                at: t(15),
                fetched: 3,
                write_backs: 1,
            },
            TraceEvent::PrefetchIo {
                at: t(16),
                page,
                disk,
                write_back: true,
                done: t(43),
            },
            placement(t(17), AuditKind::Create, None, SplitVerdict::NotConsidered),
            placement(t(18), AuditKind::Create, None, SplitVerdict::Declined),
            placement(
                t(18),
                AuditKind::Create,
                None,
                SplitVerdict::Executed {
                    new_page: PageId(8),
                },
            ),
            placement(
                t(18),
                AuditKind::Recluster,
                Some(page),
                SplitVerdict::NotConsidered,
            ),
            TraceEvent::LockWait { at: t(19), user: 3 },
            TraceEvent::LockGrant {
                at: t(20),
                user: 3,
                wait_us: 1,
            },
            TraceEvent::LogFlush {
                at: t(21),
                kind: LogFlushKind::Commit,
                done: t(44),
            },
            TraceEvent::IoFault {
                at: t(22),
                op: FaultOp::Read,
                page,
                disk,
                attempt: 1,
            },
            TraceEvent::IoRetry {
                at: t(23),
                op: FaultOp::Write,
                page,
                disk,
                attempt: 2,
                backoff_us: 6,
            },
            TraceEvent::LogStall {
                at: t(24),
                stall_us: 7,
            },
            abort(AbortCause::Io {
                op: FaultOp::Log,
                page,
                disk,
            }),
            abort(AbortCause::Placement { object: 12 }),
            TraceEvent::Degrade {
                at: t(25),
                entered: true,
            },
            TraceEvent::ProfilePhase {
                at: t(99),
                path: "run;wal_append".into(),
                calls: 5,
                sim_us: 6,
                alloc_bytes: 7,
                allocs: 8,
            },
        ]
    }

    #[test]
    fn every_records_args_are_its_jsonl_fields() {
        let events = every_variant();
        let kinds: std::collections::BTreeSet<_> = events.iter().map(|e| e.kind()).collect();
        assert_eq!(kinds.len(), 17, "an event of each variant");
        let buf = SyncBuf::new();
        let mut sink = ChromeTraceSink::new(buf.clone());
        for event in &events {
            sink.emit(event);
        }
        sink.flush();
        let text = String::from_utf8(buf.bytes()).unwrap();
        let records: Vec<&str> = text.lines().skip(7).take(events.len()).collect();
        for (event, line) in events.iter().zip(records) {
            let json = event.to_json();
            let fields = format!("{{{}", &json[json.find(',').unwrap() + 1..]);
            let expected = if line.contains(r#""ph":"C""#) {
                numeric_fields(&fields)
            } else {
                fields
            };
            assert_eq!(args_of(line), expected, "{line}");
        }
        // A commit force is told from a before-image one, an abort's
        // closing record names the abort and its operation.
        assert!(text.contains(r#""args":{"ev":"log_flush","kind":"commit","done":44}"#));
        assert!(text.contains(r#""ph":"E","ts":90,"pid":1,"tid":3,"args":{"ev":"txn_abort","user":3,"txn":41,"op":"log""#));
        // A placement decision is an instant on the engine lane, its
        // candidates and split verdict included.
        assert!(text.contains(r#""name":"placement","ph":"i","ts":17,"pid":4,"tid":0,"s":"t","args":{"ev":"placement","kind":"create","object":9,"from":null,"candidates":[{"page":7,"score_milli":1500,"fits":false},"#));
        assert!(text.contains(r#""split":"executed","split_new_page":8,"search_ios":1}"#));
        assert!(text.contains(r#""kind":"recluster","object":9,"from":7,"#));
        assert!(text.contains(r#""name":"run;wal_append","ph":"C","ts":99,"pid":5,"tid":0,"args":{"calls":5,"sim_us":6,"alloc_bytes":7,"allocs":8}"#));
    }

    #[test]
    fn emits_valid_array_with_metadata_and_durations() {
        let buf = SyncBuf::new();
        let mut sink = ChromeTraceSink::new(buf.clone());
        sink.emit(&TraceEvent::TxnBegin {
            at: SimTime::from_micros(10),
            user: 2,
            txn: 5,
            is_read: true,
            ops: 3,
        });
        sink.emit(&TraceEvent::PageRead {
            at: SimTime::from_micros(20),
            page: PageId(7),
            disk: 1,
            cause: ReadCause::Demand,
            done: SimTime::from_micros(50),
        });
        sink.flush();
        let text = String::from_utf8(buf.bytes()).unwrap();
        assert!(text.starts_with("[\n"));
        assert!(text.ends_with("{}\n]\n"));
        assert!(text.contains(r#""name":"process_name","ph":"M""#));
        assert!(text.contains(r#""name":"txn","ph":"B","ts":10"#));
        assert!(text.contains(r#""name":"page_read","ph":"X","ts":20,"dur":30"#));
        // "[", six lane names, two events, the closing "{}" and "]".
        assert_eq!(text.lines().count(), 11);
        // Structural sanity: balanced brackets and braces.
        let opens = text.matches('{').count();
        let closes = text.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn serve_request_spans_tile_the_service_time() {
        let buf = SyncBuf::new();
        let mut sink = ChromeTraceSink::new(buf.clone());
        sink.emit_serve_request(
            3,
            42,
            1_000,
            &[
                ("admission_wait", 10),
                ("lock_wait", 0), // zero-length: skipped
                ("engine_exec", 25),
                ("commit_wait", 100),
                ("reply_write", 5),
            ],
        );
        sink.flush();
        let text = String::from_utf8(buf.bytes()).unwrap();
        assert!(text.contains(r#""name":"process_name","ph":"M","ts":0,"pid":6"#));
        // Consecutive slices: each starts where the previous ended,
        // including the slot of the skipped zero-length span.
        assert!(
            text.contains(r#""name":"admission_wait","ph":"X","ts":1000,"dur":10,"pid":6,"tid":3"#)
        );
        assert!(text.contains(r#""name":"engine_exec","ph":"X","ts":1010,"dur":25"#));
        assert!(text.contains(r#""name":"commit_wait","ph":"X","ts":1035,"dur":100"#));
        assert!(text.contains(r#""name":"reply_write","ph":"X","ts":1135,"dur":5"#));
        assert!(!text.contains(r#""name":"lock_wait""#));
        assert_eq!(text.matches(r#""args":{"client_txn":42}"#).count(), 4);
    }

    #[test]
    fn flush_is_idempotent() {
        let buf = SyncBuf::new();
        let mut sink = ChromeTraceSink::new(buf.clone());
        sink.flush();
        sink.flush();
        let text = String::from_utf8(buf.bytes()).unwrap();
        assert_eq!(text.matches(']').count(), 1);
    }
}
