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
//!   recluster moves, splits, degradation transitions);
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
//! Output is deterministic: same run, byte-identical trace file.

use crate::json::ObjWriter;
use crate::trace::{AbortCause, TraceEvent, TraceSink};
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
    events: u64,
    closed: bool,
}

struct Record<'a> {
    name: &'a str,
    ph: &'a str,
    ts: u64,
    dur: Option<u64>,
    pid: u64,
    tid: u64,
    args: String,
}

impl<'a> Record<'a> {
    fn render(&self) -> String {
        let mut s = String::new();
        let mut w = ObjWriter::begin(&mut s);
        w.str("name", self.name)
            .str("ph", self.ph)
            .u64("ts", self.ts);
        if let Some(d) = self.dur {
            w.u64("dur", d);
        }
        w.u64("pid", self.pid).u64("tid", self.tid);
        if self.ph == "i" {
            w.str("s", "t");
        }
        if !self.args.is_empty() {
            w.raw("args", &self.args);
        }
        w.end();
        s
    }
}

fn args<F: FnOnce(&mut ObjWriter)>(f: F) -> String {
    let mut s = String::new();
    let mut w = ObjWriter::begin(&mut s);
    f(&mut w);
    w.end();
    s
}

impl<W: Write> ChromeTraceSink<W> {
    /// Wrap `writer`; the JSON array opens immediately with process
    /// metadata so the lane names appear even for empty traces.
    pub fn new(writer: W) -> Self {
        let mut sink = ChromeTraceSink {
            writer,
            events: 0,
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
            sink.write_record(&Record {
                name: "process_name",
                ph: "M",
                ts: 0,
                dur: None,
                pid,
                tid: 0,
                args: args(|w| {
                    w.str("name", name);
                }),
            });
        }
        sink
    }

    /// Events written so far (excluding metadata).
    pub fn events(&self) -> u64 {
        self.events
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
                self.write_record(&Record {
                    name: phase,
                    ph: "X",
                    ts: at,
                    dur: Some(*dur),
                    pid: PID_SERVER,
                    tid: u64::from(session),
                    args: args(|w| {
                        w.u64("client_txn", client_txn);
                    }),
                });
                self.events += 1;
            }
            at += dur;
        }
    }

    fn write_record(&mut self, rec: &Record) {
        let mut line = rec.render();
        line.push_str(",\n");
        self.writer
            .write_all(line.as_bytes())
            .expect("chrome trace write failed");
    }

    fn map(event: &TraceEvent) -> Record<'_> {
        let ts = event.at().as_micros();
        match *event {
            TraceEvent::TxnBegin {
                user,
                txn,
                is_read,
                ops,
                ..
            } => Record {
                name: "txn",
                ph: "B",
                ts,
                dur: None,
                pid: PID_TXNS,
                tid: user as u64,
                args: args(|w| {
                    w.u64("txn", txn)
                        .bool("read", is_read)
                        .u64("ops", ops as u64);
                }),
            },
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
            } => Record {
                name: "txn",
                ph: "E",
                ts,
                dur: None,
                pid: PID_TXNS,
                tid: user as u64,
                args: args(|w| {
                    w.u64("txn", txn)
                        .u64("response_us", response_us)
                        .u64("cpu_us", cpu_us)
                        .u64("data_read_us", data_read_us)
                        .u64("dirty_flush_us", dirty_flush_us)
                        .u64("cluster_search_us", cluster_search_us)
                        .u64("log_us", log_us)
                        .u64("lock_wait_us", lock_wait_us);
                }),
            },
            TraceEvent::TxnAbort {
                user, txn, cause, ..
            } => Record {
                name: "txn",
                ph: "E",
                ts,
                dur: None,
                pid: PID_TXNS,
                tid: user as u64,
                args: args(|w| {
                    w.u64("txn", txn).bool("aborted", true);
                    match cause {
                        AbortCause::Io { page, disk, .. } => {
                            w.u64("page", page.0 as u64).u64("disk", disk as u64);
                        }
                        AbortCause::Placement { object } => {
                            w.u64("object", object as u64);
                        }
                    }
                }),
            },
            TraceEvent::PageRead {
                page,
                disk,
                cause,
                done,
                ..
            } => Record {
                name: match cause {
                    crate::trace::ReadCause::Demand => "page_read",
                    crate::trace::ReadCause::ClusterSearch => "cluster_search_read",
                },
                ph: "X",
                ts,
                dur: Some(done.as_micros().saturating_sub(ts)),
                pid: PID_DISKS,
                tid: disk as u64,
                args: args(|w| {
                    w.u64("page", page.0 as u64);
                }),
            },
            TraceEvent::PageFlush {
                page, disk, done, ..
            } => Record {
                name: "page_flush",
                ph: "X",
                ts,
                dur: Some(done.as_micros().saturating_sub(ts)),
                pid: PID_DISKS,
                tid: disk as u64,
                args: args(|w| {
                    w.u64("page", page.0 as u64);
                }),
            },
            TraceEvent::PrefetchIo {
                page,
                disk,
                write_back,
                done,
                ..
            } => Record {
                name: "prefetch_io",
                ph: "X",
                ts,
                dur: Some(done.as_micros().saturating_sub(ts)),
                pid: PID_DISKS,
                tid: disk as u64,
                args: args(|w| {
                    w.u64("page", page.0 as u64).bool("write_back", write_back);
                }),
            },
            TraceEvent::LogFlush { done, .. } => Record {
                name: "log_flush",
                ph: "X",
                ts,
                dur: Some(done.as_micros().saturating_sub(ts)),
                pid: PID_LOG,
                tid: 0,
                args: String::new(),
            },
            TraceEvent::LockWait { user, .. } => Record {
                name: "lock_wait",
                ph: "i",
                ts,
                dur: None,
                pid: PID_TXNS,
                tid: user as u64,
                args: String::new(),
            },
            TraceEvent::LockGrant { user, wait_us, .. } => Record {
                name: "lock_grant",
                ph: "i",
                ts,
                dur: None,
                pid: PID_TXNS,
                tid: user as u64,
                args: args(|w| {
                    w.u64("wait_us", wait_us);
                }),
            },
            TraceEvent::IoFault {
                page,
                disk,
                attempt,
                ..
            } => Record {
                name: "io_fault",
                ph: "i",
                ts,
                dur: None,
                pid: PID_DISKS,
                tid: disk as u64,
                args: args(|w| {
                    w.u64("page", page.0 as u64).u64("attempt", attempt as u64);
                }),
            },
            TraceEvent::IoRetry {
                page,
                disk,
                attempt,
                backoff_us,
                ..
            } => Record {
                name: "io_retry",
                ph: "i",
                ts,
                dur: None,
                pid: PID_DISKS,
                tid: disk as u64,
                args: args(|w| {
                    w.u64("page", page.0 as u64)
                        .u64("attempt", attempt as u64)
                        .u64("backoff_us", backoff_us);
                }),
            },
            TraceEvent::LogStall { stall_us, .. } => Record {
                name: "log_stall",
                ph: "i",
                ts,
                dur: None,
                pid: PID_LOG,
                tid: 0,
                args: args(|w| {
                    w.u64("stall_us", stall_us);
                }),
            },
            TraceEvent::IoExpand { page, ios, .. } => Record {
                name: "io_expand",
                ph: "i",
                ts,
                dur: None,
                pid: PID_ENGINE,
                tid: 0,
                args: args(|w| {
                    w.u64("page", page.0 as u64).u64("ios", ios as u64);
                }),
            },
            TraceEvent::PrefetchIssue {
                fetched,
                write_backs,
                ..
            } => Record {
                name: "prefetch_issue",
                ph: "i",
                ts,
                dur: None,
                pid: PID_ENGINE,
                tid: 0,
                args: args(|w| {
                    w.u64("fetched", fetched as u64)
                        .u64("write_backs", write_backs as u64);
                }),
            },
            TraceEvent::ReclusterMove {
                object, from, to, ..
            } => Record {
                name: "recluster_move",
                ph: "i",
                ts,
                dur: None,
                pid: PID_ENGINE,
                tid: 0,
                args: args(|w| {
                    w.u64("object", object as u64)
                        .u64("from", from.0 as u64)
                        .u64("to", to.0 as u64);
                }),
            },
            TraceEvent::Split { from, new, .. } => Record {
                name: "split",
                ph: "i",
                ts,
                dur: None,
                pid: PID_ENGINE,
                tid: 0,
                args: args(|w| {
                    w.u64("from", from.0 as u64).u64("new", new.0 as u64);
                }),
            },
            TraceEvent::Degrade { entered, .. } => Record {
                name: "degrade",
                ph: "i",
                ts,
                dur: None,
                pid: PID_ENGINE,
                tid: 0,
                args: args(|w| {
                    w.bool("entered", entered);
                }),
            },
            TraceEvent::ProfilePhase {
                ref path,
                calls,
                sim_us,
                alloc_bytes,
                allocs,
                ..
            } => Record {
                name: path,
                ph: "C",
                ts,
                dur: None,
                pid: PID_PROFILE,
                tid: 0,
                args: args(|w| {
                    w.u64("calls", calls)
                        .u64("sim_us", sim_us)
                        .u64("alloc_bytes", alloc_bytes)
                        .u64("allocs", allocs);
                }),
            },
        }
    }
}

impl<W: Write> TraceSink for ChromeTraceSink<W> {
    fn emit(&mut self, event: &TraceEvent) {
        let rec = Self::map(event);
        self.write_record(&rec);
        self.events += 1;
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
    use crate::trace::{ReadCause, SharedBuf};
    use semcluster_sim::SimTime;
    use semcluster_storage::PageId;

    #[test]
    fn emits_valid_array_with_metadata_and_durations() {
        let buf = SharedBuf::new();
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
        assert_eq!(sink.events(), 2);
        // Structural sanity: balanced brackets and braces.
        let opens = text.matches('{').count();
        let closes = text.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn serve_request_spans_tile_the_service_time() {
        let buf = SharedBuf::new();
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
        assert_eq!(sink.events(), 4);
    }

    #[test]
    fn flush_is_idempotent() {
        let buf = SharedBuf::new();
        let mut sink = ChromeTraceSink::new(buf.clone());
        sink.flush();
        sink.flush();
        let text = String::from_utf8(buf.bytes()).unwrap();
        assert_eq!(text.matches(']').count(), 1);
    }
}
