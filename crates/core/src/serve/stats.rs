//! Live-server telemetry: the [`ServeStats`] registry and its
//! versioned, byte-stable snapshot.
//!
//! The registry is the serve-path analog of the engine's
//! `MetricsRegistry`, and one table: [`COUNTER_NAMES`], [`GAUGE_NAMES`]
//! and [`SPAN_NAMES`] list every counter, gauge and latency phase once,
//! in render order, and the registry is an array of atomics against each
//! list. The latency cells are `semcluster_obs`'s log₂ histogram — the
//! same layout, quantile routine and snapshot type the engine's registry
//! uses. Everything in this module is **pure with respect to time and
//! randomness** — latencies arrive as microsecond stamps taken by the
//! (impure) server, and both renders ([`StatsSnapshot::to_json`] and
//! [`StatsSnapshot::to_prometheus`]) are plain functions of the
//! snapshot, so the module sits behind the CI determinism purity guard
//! alongside the wire protocol and the connection FSM.
//!
//! Two stability properties the tests and the stats golden pin:
//!
//! * the histogram bucket layout is **fixed** (`HIST_BUCKETS`
//!   power-of-two boundaries), so a snapshot's shape never depends on
//!   the values observed;
//! * [`StatsSnapshot::to_json`] renders one section per line, so the
//!   wall-clock-free sections (schema, counters, gauges) can be
//!   filtered out byte-stably for the `golden --suite stats` gate.

use std::sync::atomic::{AtomicU64, Ordering};

use semcluster_obs::{bucket_bound, AtomicHistogram, Histogram};

use super::protocol::ErrorKind;

/// Snapshot schema version, stamped into every render and carried in
/// the STATS response frame. Bump when a field is added, removed or
/// renamed so scrapers can detect incompatible servers.
pub const STATS_SCHEMA: u32 = 2;

/// Declares an index enum beside its name list, so a counter or gauge
/// is spelled once and an index cannot drift from its name.
macro_rules! name_table {
    ($(#[$doc:meta])* $NAMES:ident / $Index:ident: $($Variant:ident $name:literal),* $(,)?) => {
        #[derive(Clone, Copy)]
        #[allow(dead_code)] // the req.* and err.* runs are indexed by position
        enum $Index { $($Variant),* }
        $(#[$doc])*
        pub const $NAMES: &[&str] = &[$($name),*];
    };
}

name_table! {
    /// Monotone counters, in render order: per-opcode requests (in
    /// [`RequestCounts`] field order), typed-error replies (in
    /// [`ErrorKind`] order), then progress.
    COUNTER_NAMES / Counter:
    ReqHello "req.hello", ReqTxn "req.txn", ReqReport "req.report", ReqStats "req.stats",
    ReqPing "req.ping", ReqBye "req.bye", ReqShutdown "req.shutdown",
    ErrOverloaded "err.overloaded", ErrDeadline "err.deadline", ErrMalformed "err.malformed",
    ErrShuttingDown "err.shutting_down", ErrRetryExhausted "err.retry_exhausted",
    ErrInternal "err.internal",
    Connections "connections", Committed "committed", TxnOk "txn_ok", Acked "acked",
    GroupCommits "group_commits", GroupForces "group_forces", GroupTxns "group_txns",
}

name_table! {
    /// Point-in-time gauges, in render order. The last, `draining`, is
    /// the caller's to supply at snapshot time, not the registry's.
    GAUGE_NAMES / Gauge:
    ConnectionsLive "connections_live", SessionsLive "sessions_live",
    SessionsPeak "sessions_peak", QueueDepth "queue_depth",
    AdmissionShedding "admission_shedding", Draining "draining",
}

/// The latency phases recorded per request, in render order: the total
/// service time first, then the five attribution spans that partition
/// it exactly.
pub const SPAN_NAMES: [&str; 6] = [
    "total",
    "admission_wait",
    "lock_wait",
    "engine_exec",
    "commit_wait",
    "reply_write",
];

/// Per-opcode request counts. The pure connection FSM owns one and
/// increments it as frames parse; the (impure) driver diffs successive
/// copies into the atomic registry. Keeping the counting inside the FSM
/// means the per-opcode numbers are exact even when one byte buffer
/// carries several frames.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestCounts {
    /// HELLO frames parsed.
    pub hello: u64,
    /// TXN frames parsed (including ones later rejected).
    pub txn: u64,
    /// REPORT frames parsed.
    pub report: u64,
    /// STATS frames parsed.
    pub stats: u64,
    /// PING frames parsed.
    pub ping: u64,
    /// BYE frames parsed.
    pub bye: u64,
    /// SHUTDOWN frames parsed.
    pub shutdown: u64,
}

impl RequestCounts {
    /// Total requests across all opcodes.
    pub fn total(&self) -> u64 {
        self.hello + self.txn + self.report + self.stats + self.ping + self.bye + self.shutdown
    }
}

/// Microsecond timestamps (one clock, monotone) taken along a
/// transaction's path through the server. Spans are *differences of
/// consecutive stamps*, so they telescope: their sum equals
/// `replied_us - submitted_us` exactly, with zero residual, by
/// construction — the serve-path analog of the engine's
/// `ResponseBreakdown` invariant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestStamps {
    /// Admitted and enqueued (t0).
    pub submitted_us: u64,
    /// Dequeued by an executor (t1): `t1 - t0` is admission wait.
    pub dequeued_us: u64,
    /// All object locks held (t2): `t2 - t1` is lock wait, including
    /// the waits for a release between acquisition attempts.
    pub locked_us: u64,
    /// Ops applied and WAL records appended (t3): `t3 - t2` is engine
    /// execution.
    pub executed_us: u64,
    /// Group commit flushed and locks released (t4): `t4 - t3` is
    /// group-commit wait.
    pub committed_us: u64,
    /// The write that carried the TxnOk returned (t5): `t5 - t4` is
    /// reply write, absorbing the executor→driver handoff and the rest
    /// of the driver's pass that batched the reply.
    pub replied_us: u64,
}

impl RequestStamps {
    /// Total measured service time.
    pub fn total_us(&self) -> u64 {
        self.replied_us.saturating_sub(self.submitted_us)
    }
}

/// One request's service time split into the five attribution spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestSpans {
    /// Queue wait between admission and dequeue.
    pub admission_wait_us: u64,
    /// Lock acquisition, including waiting out conflicts.
    pub lock_wait_us: u64,
    /// Applying operations and appending WAL records.
    pub engine_exec_us: u64,
    /// Waiting for the group-commit force.
    pub commit_wait_us: u64,
    /// Writing the reply (and the executor→driver handoff).
    pub reply_write_us: u64,
}

impl RequestSpans {
    /// Derive the spans from a stamp sequence. Consecutive differences
    /// telescope, so [`RequestSpans::total_us`] equals
    /// [`RequestStamps::total_us`] exactly.
    pub fn from_stamps(s: &RequestStamps) -> RequestSpans {
        RequestSpans {
            admission_wait_us: s.dequeued_us.saturating_sub(s.submitted_us),
            lock_wait_us: s.locked_us.saturating_sub(s.dequeued_us),
            engine_exec_us: s.executed_us.saturating_sub(s.locked_us),
            commit_wait_us: s.committed_us.saturating_sub(s.executed_us),
            reply_write_us: s.replied_us.saturating_sub(s.committed_us),
        }
    }

    /// Sum of the five spans.
    pub fn total_us(&self) -> u64 {
        self.admission_wait_us
            + self.lock_wait_us
            + self.engine_exec_us
            + self.commit_wait_us
            + self.reply_write_us
    }

    /// `(span name, µs)` pairs in [`SPAN_NAMES`] order (without the
    /// leading `total`).
    pub fn named(&self) -> [(&'static str, u64); 5] {
        let us = [
            self.admission_wait_us,
            self.lock_wait_us,
            self.engine_exec_us,
            self.commit_wait_us,
            self.reply_write_us,
        ];
        std::array::from_fn(|i| (SPAN_NAMES[i + 1], us[i]))
    }
}

/// One retained per-request attribution record, exported at drain for
/// the Chrome-trace server lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestTraceRecord {
    /// Logical session the transaction ran under.
    pub session: u32,
    /// Client-assigned transaction id.
    pub client_txn: u64,
    /// Service start (µs since server start).
    pub start_us: u64,
    /// The attribution spans.
    pub spans: RequestSpans,
}

/// The registry: every live-telemetry counter, gauge and histogram the
/// server maintains, one atomic per entry of [`COUNTER_NAMES`],
/// [`GAUGE_NAMES`] (less the caller-supplied `draining`) and
/// [`SPAN_NAMES`]. All methods are lock-free atomic updates.
pub struct ServeStats {
    counters: [AtomicU64; COUNTER_NAMES.len()],
    gauges: [AtomicU64; Gauge::Draining as usize],
    latency: [AtomicHistogram; SPAN_NAMES.len()],
}

impl ServeStats {
    /// All-zero registry.
    pub fn new() -> Self {
        ServeStats {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            gauges: std::array::from_fn(|_| AtomicU64::new(0)),
            latency: std::array::from_fn(|_| AtomicHistogram::default()),
        }
    }

    /// Add `n` to counter `c`; returns its previous value.
    fn add(&self, c: Counter, n: u64) -> u64 {
        self.counters[c as usize].fetch_add(n, Ordering::SeqCst)
    }

    fn gauge(&self, g: Gauge) -> &AtomicU64 {
        &self.gauges[g as usize]
    }

    /// A connection was accepted.
    pub fn conn_opened(&self) {
        self.add(Counter::Connections, 1);
        self.gauge(Gauge::ConnectionsLive)
            .fetch_add(1, Ordering::SeqCst);
    }

    /// A connection closed.
    pub fn conn_closed(&self) {
        self.gauge(Gauge::ConnectionsLive)
            .fetch_sub(1, Ordering::SeqCst);
    }

    /// HELLO registered `n` sessions; tracks the peak.
    pub fn bump_sessions(&self, n: u64) {
        let live = self
            .gauge(Gauge::SessionsLive)
            .fetch_add(n, Ordering::SeqCst)
            + n;
        self.gauge(Gauge::SessionsPeak)
            .fetch_max(live, Ordering::SeqCst);
    }

    /// A connection carrying `n` sessions closed.
    pub fn drop_sessions(&self, n: u64) {
        self.gauge(Gauge::SessionsLive)
            .fetch_sub(n, Ordering::SeqCst);
    }

    /// Fold the delta between two FSM request-count copies into the
    /// per-opcode counters.
    pub fn add_requests(&self, prev: &RequestCounts, now: &RequestCounts) {
        let per_opcode = &self.counters[Counter::ReqHello as usize..];
        for (counter, (was, is)) in per_opcode.iter().zip([
            (prev.hello, now.hello),
            (prev.txn, now.txn),
            (prev.report, now.report),
            (prev.stats, now.stats),
            (prev.ping, now.ping),
            (prev.bye, now.bye),
            (prev.shutdown, now.shutdown),
        ]) {
            let d = is.saturating_sub(was);
            if d > 0 {
                counter.fetch_add(d, Ordering::SeqCst);
            }
        }
    }

    /// A typed error reply was written.
    pub fn record_error(&self, kind: ErrorKind) {
        self.counters[Counter::ErrOverloaded as usize + kind as usize]
            .fetch_add(1, Ordering::SeqCst);
    }

    /// A transaction committed; returns the completed count.
    pub fn record_commit(&self) -> u64 {
        self.add(Counter::Committed, 1) + 1
    }

    /// A TxnOk reply was written (all successful transactions,
    /// including read-only fast-path and oracle-mode ones).
    pub fn record_txn_ok(&self) {
        self.add(Counter::TxnOk, 1);
    }

    /// A durable commit was acknowledged (token recorded for the
    /// drain-time ACID verdict).
    pub fn record_ack(&self) {
        self.add(Counter::Acked, 1);
    }

    /// A group-commit batch of `txns` transactions flushed with
    /// `forces` physical log forces.
    pub fn record_group_flush(&self, txns: u64, forces: u64) {
        self.add(Counter::GroupCommits, 1);
        self.add(Counter::GroupForces, forces);
        self.add(Counter::GroupTxns, txns);
    }

    /// A job is about to enter the bounded execution queue. Call this
    /// *before* the send — the consumer's [`ServeStats::queue_leave`] may
    /// run before the send returns — and leave again if the send fails.
    pub fn queue_enter(&self) {
        self.gauge(Gauge::QueueDepth).fetch_add(1, Ordering::SeqCst);
    }

    /// A job left the queue.
    pub fn queue_leave(&self) {
        self.gauge(Gauge::QueueDepth).fetch_sub(1, Ordering::SeqCst);
    }

    /// Current queue depth (the admission controller's input).
    pub fn queue_depth(&self) -> u64 {
        self.gauge(Gauge::QueueDepth).load(Ordering::SeqCst)
    }

    /// Mirror the admission controller's shed state as a gauge.
    pub fn set_admission_shedding(&self, shedding: bool) {
        self.gauge(Gauge::AdmissionShedding)
            .store(u64::from(shedding), Ordering::SeqCst);
    }

    /// Record one completed request's stamps: derives the spans,
    /// records each span histogram and the total-service-time
    /// histogram, and returns the spans for trace retention. The
    /// telescoping construction makes the per-phase sums reconcile
    /// exactly with the total histogram's sum.
    pub fn record_request_latency(&self, stamps: &RequestStamps) -> RequestSpans {
        let spans = RequestSpans::from_stamps(stamps);
        debug_assert_eq!(
            spans.total_us(),
            stamps.total_us(),
            "attribution residual must be zero"
        );
        self.latency[0].observe(stamps.total_us());
        for (cell, (_, us)) in self.latency[1..].iter().zip(spans.named()) {
            cell.observe(us);
        }
        spans
    }

    /// Copy every counter, gauge and histogram into a plain snapshot.
    /// `uptime_ms` and `draining` come from the caller — the registry
    /// itself never reads a clock or the shutdown flag.
    pub fn snapshot(&self, uptime_ms: u64, draining: bool) -> StatsSnapshot {
        let load = |a: &AtomicU64| a.load(Ordering::SeqCst);
        let names = |list: &'static [&'static str]| list.iter().copied();
        StatsSnapshot {
            schema: STATS_SCHEMA,
            uptime_ms,
            counters: names(COUNTER_NAMES)
                .zip(self.counters.iter().map(load))
                .collect(),
            gauges: names(GAUGE_NAMES)
                .zip(self.gauges.iter().map(load).chain([u64::from(draining)]))
                .collect(),
            latency_us: names(&SPAN_NAMES)
                .zip(self.latency.iter().map(AtomicHistogram::snapshot))
                .collect(),
        }
    }
}

impl Default for ServeStats {
    fn default() -> Self {
        Self::new()
    }
}

/// A plain, versioned copy of the whole registry. Rendering is pure.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsSnapshot {
    /// [`STATS_SCHEMA`] at capture time.
    pub schema: u32,
    /// Milliseconds since the server started.
    pub uptime_ms: u64,
    /// Monotone counters, in fixed render order.
    pub counters: Vec<(&'static str, u64)>,
    /// Point-in-time gauges, in fixed render order.
    pub gauges: Vec<(&'static str, u64)>,
    /// Latency histograms, keyed by [`SPAN_NAMES`].
    pub latency_us: Vec<(&'static str, Histogram)>,
}

/// The value listed under `name`, if any.
fn named<'a, V>(pairs: &'a [(&'static str, V)], name: &str) -> Option<&'a V> {
    pairs.iter().find(|(n, _)| *n == name).map(|(_, v)| v)
}

impl StatsSnapshot {
    /// Look up a counter by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        named(&self.counters, name).copied().unwrap_or(0)
    }

    /// Look up a gauge by name (0 when absent).
    pub fn gauge(&self, name: &str) -> u64 {
        named(&self.gauges, name).copied().unwrap_or(0)
    }

    /// Look up a latency histogram by phase name.
    pub fn latency(&self, phase: &str) -> Option<&Histogram> {
        named(&self.latency_us, phase)
    }

    fn section(pairs: &[(&'static str, u64)]) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in pairs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{k:?}:{v}"));
        }
        out.push('}');
        out
    }

    /// Canonical JSON, one section per line:
    ///
    /// ```json
    /// {"stats_schema":2,
    /// "uptime_ms":…,
    /// "counters":{…},
    /// "gauges":{…},
    /// "latency_us":{…}}
    /// ```
    ///
    /// The line-per-section layout is load-bearing: the stats golden
    /// keeps only the wall-clock-free lines (schema, counters, gauges)
    /// by prefix.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"stats_schema\":{},\n", self.schema);
        out.push_str(&format!("\"uptime_ms\":{},\n", self.uptime_ms));
        out.push_str(&format!(
            "\"counters\":{},\n",
            Self::section(&self.counters)
        ));
        out.push_str(&format!("\"gauges\":{},\n", Self::section(&self.gauges)));
        out.push_str("\"latency_us\":{");
        for (i, (name, hist)) in self.latency_us.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{name:?}:{}", hist.to_json()));
        }
        out.push_str("}}\n");
        out
    }

    /// Prometheus text exposition format (v0.0.4): counters as
    /// `semcluster_*_total`, gauges bare, histograms with cumulative
    /// `le` buckets plus `_sum`/`_count`, one `phase` label per span.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        out.push_str("# HELP semcluster_stats_schema Snapshot schema version.\n");
        out.push_str("# TYPE semcluster_stats_schema gauge\n");
        out.push_str(&format!("semcluster_stats_schema {}\n", self.schema));
        out.push_str("# HELP semcluster_uptime_ms Milliseconds since server start.\n");
        out.push_str("# TYPE semcluster_uptime_ms gauge\n");
        out.push_str(&format!("semcluster_uptime_ms {}\n", self.uptime_ms));
        out.push_str("# HELP semcluster_requests_total Requests received, by opcode.\n");
        out.push_str("# TYPE semcluster_requests_total counter\n");
        for (name, v) in &self.counters {
            if let Some(op) = name.strip_prefix("req.") {
                out.push_str(&format!(
                    "semcluster_requests_total{{opcode=\"{op}\"}} {v}\n"
                ));
            }
        }
        out.push_str("# HELP semcluster_errors_total Typed error replies written, by kind.\n");
        out.push_str("# TYPE semcluster_errors_total counter\n");
        for (name, v) in &self.counters {
            if let Some(kind) = name.strip_prefix("err.") {
                out.push_str(&format!("semcluster_errors_total{{kind=\"{kind}\"}} {v}\n"));
            }
        }
        for (name, v) in &self.counters {
            if name.contains('.') {
                continue;
            }
            out.push_str(&format!("# TYPE semcluster_{name}_total counter\n"));
            out.push_str(&format!("semcluster_{name}_total {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("# TYPE semcluster_{name} gauge\n"));
            out.push_str(&format!("semcluster_{name} {v}\n"));
        }
        out.push_str(
            "# HELP semcluster_latency_us Request service time by attribution phase, µs.\n",
        );
        out.push_str("# TYPE semcluster_latency_us histogram\n");
        for (phase, hist) in &self.latency_us {
            let mut cum = 0u64;
            for (b, n) in hist.buckets.iter().enumerate() {
                cum += n;
                // Suppress interior all-zero prefixes? No: fixed shape.
                out.push_str(&format!(
                    "semcluster_latency_us_bucket{{phase=\"{phase}\",le=\"{}\"}} {cum}\n",
                    bucket_bound(b)
                ));
            }
            out.push_str(&format!(
                "semcluster_latency_us_bucket{{phase=\"{phase}\",le=\"+Inf\"}} {}\n",
                hist.count
            ));
            out.push_str(&format!(
                "semcluster_latency_us_sum{{phase=\"{phase}\"}} {}\n",
                hist.sum_us
            ));
            out.push_str(&format!(
                "semcluster_latency_us_count{{phase=\"{phase}\"}} {}\n",
                hist.count
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_error_kind_and_opcode_lands_on_its_own_named_counter() {
        // `record_error` and `add_requests` index the name table by
        // `ErrorKind` / `RequestCounts` declaration order.
        for (kind, name) in [
            (ErrorKind::Overloaded, "err.overloaded"),
            (ErrorKind::DeadlineExceeded, "err.deadline"),
            (ErrorKind::Malformed, "err.malformed"),
            (ErrorKind::ShuttingDown, "err.shutting_down"),
            (ErrorKind::RetryExhausted, "err.retry_exhausted"),
            (ErrorKind::Internal, "err.internal"),
        ] {
            let stats = ServeStats::new();
            stats.record_error(kind);
            let snap = stats.snapshot(0, false);
            assert_eq!(snap.counter(name), 1, "{kind:?}");
            assert_eq!(snap.counters.iter().map(|(_, v)| v).sum::<u64>(), 1);
        }
        let stats = ServeStats::new();
        let now = RequestCounts {
            hello: 1,
            txn: 2,
            report: 3,
            stats: 4,
            ping: 5,
            bye: 6,
            shutdown: 7,
        };
        stats.add_requests(&RequestCounts::default(), &now);
        let snap = stats.snapshot(0, true);
        assert_eq!(
            snap.counters[..7],
            [
                ("req.hello", 1),
                ("req.txn", 2),
                ("req.report", 3),
                ("req.stats", 4),
                ("req.ping", 5),
                ("req.bye", 6),
                ("req.shutdown", 7)
            ]
        );
        assert_eq!(snap.counters.len(), COUNTER_NAMES.len());
        assert_eq!(snap.gauges.last(), Some(&("draining", 1)));
        assert_eq!(snap.gauges.len(), GAUGE_NAMES.len());
    }

    #[test]
    fn queue_gauge_counts_a_job_from_enter_to_leave_whichever_side_runs_first() {
        // `submit_txn`'s protocol: enter, then send; the worker leaves
        // after its recv. Whether the worker was already waiting or only
        // starts once the job is queued, it must see its own job counted
        // when it dequeues — a leave on a gauge still at 0 would wrap.
        for worker_waits_first in [true, false] {
            let stats = &ServeStats::new();
            let (job_tx, job_rx) = std::sync::mpsc::sync_channel::<()>(1);
            let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
            let submit = || {
                stats.queue_enter();
                assert_eq!(stats.queue_depth(), 1);
                job_tx.try_send(()).expect("one free slot");
            };
            std::thread::scope(|s| {
                if !worker_waits_first {
                    submit();
                }
                let worker = s.spawn(move || {
                    started_tx.send(()).expect("main is listening");
                    job_rx.recv().expect("a job");
                    let seen = stats.queue_depth();
                    stats.queue_leave();
                    seen
                });
                started_rx.recv().expect("worker started");
                if worker_waits_first {
                    submit();
                }
                assert_eq!(worker.join().expect("worker"), 1);
            });
            assert_eq!(stats.queue_depth(), 0);
        }
    }

    #[test]
    fn spans_telescope_to_zero_residual() {
        // Arbitrary monotone stamps: the spans must sum exactly.
        let stamps = RequestStamps {
            submitted_us: 1_003,
            dequeued_us: 1_247,
            locked_us: 1_251,
            executed_us: 1_893,
            committed_us: 4_001,
            replied_us: 4_020,
        };
        let spans = RequestSpans::from_stamps(&stamps);
        assert_eq!(spans.total_us(), stamps.total_us());
        assert_eq!(spans.admission_wait_us, 244);
        assert_eq!(spans.reply_write_us, 19);
        let stats = ServeStats::new();
        stats.record_request_latency(&stamps);
        let snap = stats.snapshot(0, false);
        let total = snap.latency("total").unwrap();
        let span_sum: u64 = RequestSpans::from_stamps(&stamps)
            .named()
            .iter()
            .map(|(_, v)| v)
            .sum();
        assert_eq!(total.sum_us, span_sum, "zero residual in the registry");
        assert_eq!(total.count, 1);
    }

    #[test]
    fn snapshot_render_is_sectioned_and_stable() {
        let stats = ServeStats::new();
        stats.conn_opened();
        stats.bump_sessions(3);
        stats.add_requests(
            &RequestCounts::default(),
            &RequestCounts {
                hello: 1,
                txn: 4,
                ping: 1,
                ..RequestCounts::default()
            },
        );
        stats.record_error(ErrorKind::Overloaded);
        let a = stats.snapshot(123, false).to_json();
        let b = stats.snapshot(123, false).to_json();
        assert_eq!(a, b, "same state renders byte-identically");
        assert!(a.starts_with("{\"stats_schema\":2,\n"));
        assert!(a.contains("\n\"counters\":{\"req.hello\":1,\"req.txn\":4,"));
        assert!(a.contains("\"err.overloaded\":1"));
        assert!(a.contains("\n\"gauges\":{\"connections_live\":1,\"sessions_live\":3,"));
        assert!(a.ends_with("}}\n"), "the latency section closes the object");
        // Sections land on their own lines (the golden filter contract).
        assert!(a.lines().any(|l| l.starts_with("\"counters\":")));
        assert!(a.lines().any(|l| l.starts_with("\"gauges\":")));
        assert!(a.lines().any(|l| l.starts_with("\"latency_us\":")));
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let stats = ServeStats::new();
        stats.record_request_latency(&RequestStamps {
            submitted_us: 0,
            dequeued_us: 10,
            locked_us: 12,
            executed_us: 40,
            committed_us: 300,
            replied_us: 305,
        });
        let text = stats.snapshot(50, true).to_prometheus();
        let mut typed: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                typed.insert(rest.split(' ').next().unwrap().to_string());
                continue;
            }
            if line.starts_with('#') {
                continue;
            }
            // Every sample is `name[{labels}] value` with a numeric value.
            let (name_part, value) = line.rsplit_once(' ').expect("sample has a value");
            assert!(value.parse::<f64>().is_ok(), "bad value in {line:?}");
            let metric = name_part.split('{').next().unwrap();
            let base = metric
                .trim_end_matches("_bucket")
                .trim_end_matches("_sum")
                .trim_end_matches("_count");
            assert!(
                typed.contains(metric) || typed.contains(base),
                "sample {metric:?} has no TYPE declaration"
            );
        }
        // Histogram contract: cumulative buckets end at +Inf == count.
        assert!(text.contains("le=\"+Inf\"}"));
        assert!(text.contains("semcluster_latency_us_count{phase=\"total\"} 1"));
        assert!(text.contains("semcluster_draining 1"));
        assert!(text.contains("semcluster_requests_total{opcode=\"txn\"} 0"));
    }
}
