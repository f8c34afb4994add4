//! Live-server telemetry: the [`ServeStats`] registry and its
//! versioned, byte-stable snapshot.
//!
//! The registry is the serve-path analog of the engine's
//! `MetricsRegistry`: atomic per-opcode request counters, typed-error
//! counters, gauges (sessions, queue depth, admission state) and
//! fixed-boundary log-bucketed latency histograms. Everything in this
//! module is **pure with respect to time and randomness** — latencies
//! arrive as microsecond stamps taken by the (impure) server, and both
//! renders ([`StatsSnapshot::to_json`] and
//! [`StatsSnapshot::to_prometheus`]) are plain functions of the
//! snapshot, so the module sits behind the CI determinism purity guard
//! alongside the wire protocol and the connection FSM.
//!
//! Two stability properties the tests and the stats golden pin:
//!
//! * the histogram bucket layout is **fixed** ([`HIST_BUCKETS`]
//!   power-of-two boundaries), so a snapshot's shape never depends on
//!   the values observed;
//! * [`StatsSnapshot::to_json`] renders one section per line, so the
//!   wall-clock-free sections (schema, counters, gauges) can be
//!   filtered out byte-stably for the `golden --suite stats` gate.

use std::sync::atomic::{AtomicU64, Ordering};

use super::protocol::ErrorKind;

/// Snapshot schema version, stamped into every render and carried in
/// the STATS response frame. Bump when a field is added, removed or
/// renamed so scrapers can detect incompatible servers.
pub const STATS_SCHEMA: u32 = 1;

/// Fixed bucket count of the log-bucketed latency histograms. Bucket 0
/// holds zero-microsecond observations; bucket `b ≥ 1` holds values in
/// `[2^(b-1), 2^b)` µs. Bucket 39 therefore absorbs everything above
/// ~4.6 days — no observable latency falls off the end.
pub const HIST_BUCKETS: usize = 40;

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

/// Bucket index for a microsecond value.
fn bucket_of(us: u64) -> usize {
    if us == 0 {
        0
    } else {
        (64 - us.leading_zeros() as usize).min(HIST_BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `b`, in microseconds.
pub fn bucket_bound_us(b: usize) -> u64 {
    if b == 0 {
        0
    } else if b >= 63 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

/// Lock-free fixed-boundary latency histogram. Counters are relaxed:
/// a snapshot taken concurrently with recording may be mid-update by
/// one observation, which is fine for telemetry — the drain-time
/// snapshot (all recorders joined) is exact.
pub struct AtomicHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl AtomicHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        AtomicHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    pub fn record(&self, us: u64) {
        self.buckets[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Copy out the current state.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum_us: self.sum_us.load(Ordering::Relaxed),
            max_us: self.max_us.load(Ordering::Relaxed),
        }
    }
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// A plain copy of one histogram: always exactly [`HIST_BUCKETS`]
/// buckets, so the rendered shape is value-independent.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket observation counts (fixed length).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observations, in microseconds.
    pub sum_us: u64,
    /// Largest observation, in microseconds.
    pub max_us: u64,
}

impl HistSnapshot {
    /// Upper bound on the `q`-quantile (bucket upper boundary, clamped
    /// to the observed maximum). 0 when empty.
    pub fn quantile_bound_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (b, n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= rank {
                return bucket_bound_us(b).min(self.max_us);
            }
        }
        self.max_us
    }

    /// Compact single-line JSON.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"count\":{},\"sum_us\":{},\"max_us\":{},\"buckets\":[",
            self.count, self.sum_us, self.max_us
        );
        for (i, b) in self.buckets.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&b.to_string());
        }
        out.push_str("]}");
        out
    }
}

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
    /// TxnOk written to the socket (t5): `t5 - t4` is reply write,
    /// absorbing the executor→driver handoff.
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
        [
            ("admission_wait", self.admission_wait_us),
            ("lock_wait", self.lock_wait_us),
            ("engine_exec", self.engine_exec_us),
            ("commit_wait", self.commit_wait_us),
            ("reply_write", self.reply_write_us),
        ]
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
/// server maintains. All methods are lock-free atomic updates.
pub struct ServeStats {
    // Per-opcode request counters (fed by RequestCounts deltas).
    req_hello: AtomicU64,
    req_txn: AtomicU64,
    req_report: AtomicU64,
    req_stats: AtomicU64,
    req_ping: AtomicU64,
    req_bye: AtomicU64,
    req_shutdown: AtomicU64,
    // Typed-error reply counters.
    err_overloaded: AtomicU64,
    err_deadline: AtomicU64,
    err_malformed: AtomicU64,
    err_shutting_down: AtomicU64,
    err_retry_exhausted: AtomicU64,
    err_internal: AtomicU64,
    // Progress counters.
    connections_total: AtomicU64,
    committed: AtomicU64,
    txn_ok: AtomicU64,
    acked: AtomicU64,
    group_commits: AtomicU64,
    group_forces: AtomicU64,
    group_txns: AtomicU64,
    // Gauges.
    connections_live: AtomicU64,
    sessions_live: AtomicU64,
    sessions_peak: AtomicU64,
    queue_depth: AtomicU64,
    admission_shedding: AtomicU64,
    // Latency histograms: total + the five spans.
    lat_total: AtomicHistogram,
    lat_admission: AtomicHistogram,
    lat_lock: AtomicHistogram,
    lat_exec: AtomicHistogram,
    lat_commit: AtomicHistogram,
    lat_reply: AtomicHistogram,
}

impl ServeStats {
    /// All-zero registry.
    pub fn new() -> Self {
        ServeStats {
            req_hello: AtomicU64::new(0),
            req_txn: AtomicU64::new(0),
            req_report: AtomicU64::new(0),
            req_stats: AtomicU64::new(0),
            req_ping: AtomicU64::new(0),
            req_bye: AtomicU64::new(0),
            req_shutdown: AtomicU64::new(0),
            err_overloaded: AtomicU64::new(0),
            err_deadline: AtomicU64::new(0),
            err_malformed: AtomicU64::new(0),
            err_shutting_down: AtomicU64::new(0),
            err_retry_exhausted: AtomicU64::new(0),
            err_internal: AtomicU64::new(0),
            connections_total: AtomicU64::new(0),
            committed: AtomicU64::new(0),
            txn_ok: AtomicU64::new(0),
            acked: AtomicU64::new(0),
            group_commits: AtomicU64::new(0),
            group_forces: AtomicU64::new(0),
            group_txns: AtomicU64::new(0),
            connections_live: AtomicU64::new(0),
            sessions_live: AtomicU64::new(0),
            sessions_peak: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            admission_shedding: AtomicU64::new(0),
            lat_total: AtomicHistogram::new(),
            lat_admission: AtomicHistogram::new(),
            lat_lock: AtomicHistogram::new(),
            lat_exec: AtomicHistogram::new(),
            lat_commit: AtomicHistogram::new(),
            lat_reply: AtomicHistogram::new(),
        }
    }

    /// A connection was accepted.
    pub fn conn_opened(&self) {
        self.connections_total.fetch_add(1, Ordering::SeqCst);
        self.connections_live.fetch_add(1, Ordering::SeqCst);
    }

    /// A connection closed.
    pub fn conn_closed(&self) {
        self.connections_live.fetch_sub(1, Ordering::SeqCst);
    }

    /// HELLO registered `n` sessions; tracks the peak.
    pub fn bump_sessions(&self, n: u64) {
        let live = self.sessions_live.fetch_add(n, Ordering::SeqCst) + n;
        self.sessions_peak.fetch_max(live, Ordering::SeqCst);
    }

    /// A connection carrying `n` sessions closed.
    pub fn drop_sessions(&self, n: u64) {
        self.sessions_live.fetch_sub(n, Ordering::SeqCst);
    }

    /// Fold the delta between two FSM request-count copies into the
    /// per-opcode counters.
    pub fn add_requests(&self, prev: &RequestCounts, now: &RequestCounts) {
        for (counter, was, is) in [
            (&self.req_hello, prev.hello, now.hello),
            (&self.req_txn, prev.txn, now.txn),
            (&self.req_report, prev.report, now.report),
            (&self.req_stats, prev.stats, now.stats),
            (&self.req_ping, prev.ping, now.ping),
            (&self.req_bye, prev.bye, now.bye),
            (&self.req_shutdown, prev.shutdown, now.shutdown),
        ] {
            let d = is.saturating_sub(was);
            if d > 0 {
                counter.fetch_add(d, Ordering::SeqCst);
            }
        }
    }

    /// A typed error reply was written.
    pub fn record_error(&self, kind: ErrorKind) {
        let counter = match kind {
            ErrorKind::Overloaded => &self.err_overloaded,
            ErrorKind::DeadlineExceeded => &self.err_deadline,
            ErrorKind::Malformed => &self.err_malformed,
            ErrorKind::ShuttingDown => &self.err_shutting_down,
            ErrorKind::RetryExhausted => &self.err_retry_exhausted,
            ErrorKind::Internal => &self.err_internal,
        };
        counter.fetch_add(1, Ordering::SeqCst);
    }

    /// A transaction committed; returns the completed count.
    pub fn record_commit(&self) -> u64 {
        self.committed.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// A TxnOk reply was written (all successful transactions,
    /// including read-only fast-path and oracle-mode ones).
    pub fn record_txn_ok(&self) {
        self.txn_ok.fetch_add(1, Ordering::SeqCst);
    }

    /// A durable commit was acknowledged (token recorded for the
    /// drain-time ACID verdict).
    pub fn record_ack(&self) {
        self.acked.fetch_add(1, Ordering::SeqCst);
    }

    /// A group-commit batch of `txns` transactions flushed with
    /// `forces` physical log forces.
    pub fn record_group_flush(&self, txns: u64, forces: u64) {
        self.group_commits.fetch_add(1, Ordering::SeqCst);
        self.group_forces.fetch_add(forces, Ordering::SeqCst);
        self.group_txns.fetch_add(txns, Ordering::SeqCst);
    }

    /// A job is about to enter the bounded execution queue. Call this
    /// *before* the send — the consumer's [`ServeStats::queue_leave`] may
    /// run before the send returns — and leave again if the send fails.
    pub fn queue_enter(&self) {
        self.queue_depth.fetch_add(1, Ordering::SeqCst);
    }

    /// A job left the queue.
    pub fn queue_leave(&self) {
        self.queue_depth.fetch_sub(1, Ordering::SeqCst);
    }

    /// Current queue depth (the admission controller's input).
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::SeqCst)
    }

    /// Mirror the admission controller's shed state as a gauge.
    pub fn set_admission_shedding(&self, shedding: bool) {
        self.admission_shedding
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
        self.lat_total.record(stamps.total_us());
        self.lat_admission.record(spans.admission_wait_us);
        self.lat_lock.record(spans.lock_wait_us);
        self.lat_exec.record(spans.engine_exec_us);
        self.lat_commit.record(spans.commit_wait_us);
        self.lat_reply.record(spans.reply_write_us);
        spans
    }

    /// Copy every counter, gauge and histogram into a plain snapshot.
    /// `uptime_ms` and `draining` come from the caller — the registry
    /// itself never reads a clock or the shutdown flag.
    pub fn snapshot(&self, uptime_ms: u64, draining: bool) -> StatsSnapshot {
        let c = |a: &AtomicU64| a.load(Ordering::SeqCst);
        StatsSnapshot {
            schema: STATS_SCHEMA,
            uptime_ms,
            counters: vec![
                ("req.hello", c(&self.req_hello)),
                ("req.txn", c(&self.req_txn)),
                ("req.report", c(&self.req_report)),
                ("req.stats", c(&self.req_stats)),
                ("req.ping", c(&self.req_ping)),
                ("req.bye", c(&self.req_bye)),
                ("req.shutdown", c(&self.req_shutdown)),
                ("err.overloaded", c(&self.err_overloaded)),
                ("err.deadline", c(&self.err_deadline)),
                ("err.malformed", c(&self.err_malformed)),
                ("err.shutting_down", c(&self.err_shutting_down)),
                ("err.retry_exhausted", c(&self.err_retry_exhausted)),
                ("err.internal", c(&self.err_internal)),
                ("connections", c(&self.connections_total)),
                ("committed", c(&self.committed)),
                ("txn_ok", c(&self.txn_ok)),
                ("acked", c(&self.acked)),
                ("group_commits", c(&self.group_commits)),
                ("group_forces", c(&self.group_forces)),
                ("group_txns", c(&self.group_txns)),
            ],
            gauges: vec![
                ("connections_live", c(&self.connections_live)),
                ("sessions_live", c(&self.sessions_live)),
                ("sessions_peak", c(&self.sessions_peak)),
                ("queue_depth", c(&self.queue_depth)),
                ("admission_shedding", c(&self.admission_shedding)),
                ("draining", u64::from(draining)),
            ],
            latency_us: vec![
                ("total", self.lat_total.snapshot()),
                ("admission_wait", self.lat_admission.snapshot()),
                ("lock_wait", self.lat_lock.snapshot()),
                ("engine_exec", self.lat_exec.snapshot()),
                ("commit_wait", self.lat_commit.snapshot()),
                ("reply_write", self.lat_reply.snapshot()),
            ],
            slo: None,
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
    pub latency_us: Vec<(&'static str, HistSnapshot)>,
    /// Rolling SLO summary, when the tracker has observed any ticks.
    pub slo: Option<super::slo::SloSummary>,
}

impl StatsSnapshot {
    /// Look up a counter by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Look up a gauge by name (0 when absent).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Look up a latency histogram by phase name.
    pub fn latency(&self, phase: &str) -> Option<&HistSnapshot> {
        self.latency_us
            .iter()
            .find(|(n, _)| *n == phase)
            .map(|(_, h)| h)
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
    /// {"stats_schema":1,
    /// "uptime_ms":…,
    /// "counters":{…},
    /// "gauges":{…},
    /// "latency_us":{…},
    /// "slo":{…}}
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
        out.push_str("},\n");
        match &self.slo {
            Some(slo) => out.push_str(&format!("\"slo\":{}}}\n", slo.to_json())),
            None => out.push_str("\"slo\":null}\n"),
        }
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
                    bucket_bound_us(b)
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
        if let Some(slo) = &self.slo {
            for (name, v) in [
                ("slo_window_ticks", slo.window_ticks),
                ("slo_p50_us", slo.p50_us),
                ("slo_p99_us", slo.p99_us),
                ("slo_error_ppm", slo.error_ppm),
                ("slo_shed_ppm", slo.shed_ppm),
            ] {
                out.push_str(&format!("# TYPE semcluster_{name} gauge\n"));
                out.push_str(&format!("semcluster_{name} {v}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log2_with_fixed_shape() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
        assert_eq!(bucket_bound_us(0), 0);
        assert_eq!(bucket_bound_us(1), 1);
        assert_eq!(bucket_bound_us(2), 3);
        assert_eq!(bucket_bound_us(11), 2047);
        let h = AtomicHistogram::new();
        let empty = h.snapshot();
        assert_eq!(empty.buckets.len(), HIST_BUCKETS);
        h.record(5);
        h.record(900);
        let snap = h.snapshot();
        assert_eq!(snap.buckets.len(), HIST_BUCKETS, "shape is value-free");
        assert_eq!(snap.count, 2);
        assert_eq!(snap.sum_us, 905);
        assert_eq!(snap.max_us, 900);
        assert_eq!(snap.quantile_bound_us(0.5), 7);
        assert_eq!(snap.quantile_bound_us(0.99), 900, "clamped to max");
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
        assert!(a.starts_with("{\"stats_schema\":1,\n"));
        assert!(a.contains("\n\"counters\":{\"req.hello\":1,\"req.txn\":4,"));
        assert!(a.contains("\"err.overloaded\":1"));
        assert!(a.contains("\n\"gauges\":{\"connections_live\":1,\"sessions_live\":3,"));
        assert!(a.contains("\"slo\":null}"));
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
