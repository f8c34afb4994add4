//! Output metrics of one simulation run.

use semcluster_obs::Histogram;
use semcluster_sim::{OnlineStats, SimDuration};

/// Physical-I/O breakdown by cause.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoBreakdown {
    /// Demand page reads (buffer misses on the critical path).
    pub data_reads: u64,
    /// Dirty-page write-backs during eviction.
    pub dirty_writebacks: u64,
    /// Transaction-log I/Os (buffer wraps + before-images + forces).
    pub log_ios: u64,
    /// Candidate-page reads charged to the clustering search.
    pub cluster_search_ios: u64,
    /// Asynchronous prefetch reads (off the critical path but loading the
    /// disks).
    pub prefetch_ios: u64,
    /// Extra I/Os caused by page splits (new-page flushes and moves).
    pub split_ios: u64,
}

impl IoBreakdown {
    /// Total physical I/Os.
    pub fn total(&self) -> u64 {
        self.data_reads
            + self.dirty_writebacks
            + self.log_ios
            + self.cluster_search_ios
            + self.prefetch_ios
            + self.split_ios
    }
}

/// The event totals a [`RunReport`] reads from the engine's counter
/// registry rather than from the [`MetricsCollector`]: each event is
/// counted once, there (DESIGN.md §9.2 lists which counter feeds which
/// field).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// Physical-I/O breakdown.
    pub io: IoBreakdown,
    /// Page splits performed.
    pub splits: u64,
    /// Run-time recluster moves performed.
    pub recluster_moves: u64,
    /// Transactions that had to wait for locks.
    pub lock_waits: u64,
    /// Page requests the buffer pool served from memory.
    pub buffer_hits: u64,
    /// Page requests that faulted.
    pub buffer_misses: u64,
}

/// What the fault layer injected over the measured interval, and the
/// engine's responses: the report's view of the `fault.*` counters
/// (DESIGN.md §9.2). All zero when injection is inert.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Transient page-read failures injected.
    pub read_errors: u64,
    /// Transient page-write failures injected.
    pub write_errors: u64,
    /// Retries the engine performed (successful or not).
    pub retries: u64,
    /// Latency spikes injected on data-disk I/Os.
    pub spikes: u64,
    /// Log-device stalls injected.
    pub log_stalls: u64,
    /// Total simulated µs of injected log stall.
    pub stall_us: u64,
    /// Transactions aborted after retry exhaustion.
    pub txn_aborts: u64,
    /// Transitions into degraded (append-placement) mode.
    pub degrade_enters: u64,
    /// Transitions back to normal clustering.
    pub degrade_exits: u64,
}

/// Per-transaction response-time attribution in integer simulated
/// microseconds.
///
/// The engine serialises every transaction's operations along a single
/// critical-path clock, so each microsecond of response time is charged
/// to exactly one component and the components sum *exactly* to the
/// response time (`total_us()` — checked by a `debug_assert` in the
/// engine and by the observability integration tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanBreakdown {
    /// CPU service time (object accesses, clustering decisions, splits).
    pub cpu_us: u64,
    /// Demand page reads waited on (buffer misses).
    pub data_read_us: u64,
    /// Dirty-victim write-backs waited on during eviction or split.
    pub dirty_flush_us: u64,
    /// Candidate-page reads charged to the clustering search.
    pub cluster_search_us: u64,
    /// Log-buffer flushes and the commit force.
    pub log_us: u64,
    /// Time parked waiting for a write token.
    pub lock_wait_us: u64,
}

impl SpanBreakdown {
    /// Sum of all components — equals the transaction's response time.
    pub fn total_us(&self) -> u64 {
        let SpanBreakdown {
            cpu_us,
            data_read_us,
            dirty_flush_us,
            cluster_search_us,
            log_us,
            lock_wait_us,
        } = *self;
        cpu_us + data_read_us + dirty_flush_us + cluster_search_us + log_us + lock_wait_us
    }

    /// Accumulate another breakdown into this one.
    pub fn add(&mut self, other: &SpanBreakdown) {
        self.cpu_us += other.cpu_us;
        self.data_read_us += other.data_read_us;
        self.dirty_flush_us += other.dirty_flush_us;
        self.cluster_search_us += other.cluster_search_us;
        self.log_us += other.log_us;
        self.lock_wait_us += other.lock_wait_us;
    }
}

/// Mean per-transaction response composition in seconds.
///
/// Derived from the exact [`SpanBreakdown`] totals over the measured
/// interval; `think_s` is the configured think time, reported alongside
/// for the paper's closed-network cycle picture but *not* part of the
/// response time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ResponseBreakdown {
    /// Mean CPU component per transaction.
    pub cpu_s: f64,
    /// Mean demand-read component per transaction.
    pub data_read_s: f64,
    /// Mean dirty-flush component per transaction.
    pub dirty_flush_s: f64,
    /// Mean cluster-search component per transaction.
    pub cluster_search_s: f64,
    /// Mean log component per transaction.
    pub log_s: f64,
    /// Mean lock-wait component per transaction.
    pub lock_wait_s: f64,
    /// Configured think time (informational; not part of response).
    pub think_s: f64,
}

impl ResponseBreakdown {
    /// Mean per-transaction breakdown from exact measured totals.
    pub fn from_totals(span: &SpanBreakdown, txns: u64) -> Self {
        if txns == 0 {
            return ResponseBreakdown::default();
        }
        let per = |us: u64| us as f64 / 1_000_000.0 / txns as f64;
        ResponseBreakdown {
            cpu_s: per(span.cpu_us),
            data_read_s: per(span.data_read_us),
            dirty_flush_s: per(span.dirty_flush_us),
            cluster_search_s: per(span.cluster_search_us),
            log_s: per(span.log_us),
            lock_wait_s: per(span.lock_wait_us),
            think_s: 0.0,
        }
    }

    /// Sum of the response components (excludes `think_s`).
    pub fn response_total_s(&self) -> f64 {
        self.cpu_s
            + self.data_read_s
            + self.dirty_flush_s
            + self.cluster_search_s
            + self.log_s
            + self.lock_wait_s
    }
}

/// Collects per-transaction observations during the measured interval
/// — what has no counter in the engine's registry.
#[derive(Debug, Clone)]
pub struct MetricsCollector {
    /// Response time of every transaction, in seconds.
    pub response: OnlineStats,
    /// Response time of read transactions.
    pub read_response: OnlineStats,
    /// Response time of write transactions.
    pub write_response: OnlineStats,
    /// Objects created during measurement.
    pub objects_created: u64,
    /// Objects deleted during measurement.
    pub objects_deleted: u64,
    /// Total time transactions spent waiting for locks.
    pub lock_wait_time: SimDuration,
    /// Exact response-time attribution summed over measured transactions.
    pub span_totals: SpanBreakdown,
}

impl Default for MetricsCollector {
    fn default() -> Self {
        MetricsCollector {
            response: OnlineStats::new(),
            read_response: OnlineStats::new(),
            write_response: OnlineStats::new(),
            objects_created: 0,
            objects_deleted: 0,
            lock_wait_time: SimDuration::ZERO,
            span_totals: SpanBreakdown::default(),
        }
    }
}

impl MetricsCollector {
    /// Record a completed transaction.
    pub fn record_txn(&mut self, response: SimDuration, is_read: bool, span: SpanBreakdown) {
        self.response.push_duration(response);
        if is_read {
            self.read_response.push_duration(response);
        } else {
            self.write_response.push_duration(response);
        }
        self.span_totals.add(&span);
    }
}

/// Immutable summary of one finished run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Human-readable description of the configuration.
    pub config_label: String,
    /// Transactions measured.
    pub txns: u64,
    /// Read transactions measured.
    pub reads: u64,
    /// Write transactions measured.
    pub writes: u64,
    /// Mean transaction response time in seconds.
    pub mean_response_s: f64,
    /// Mean read-transaction response time in seconds.
    pub read_response_s: f64,
    /// Mean write-transaction response time in seconds.
    pub write_response_s: f64,
    /// Maximum observed response time in seconds.
    pub max_response_s: f64,
    /// Upper bound on the median response time in seconds: the upper
    /// edge of the log₂ `txn.response_us` cell holding the median
    /// observation, clamped to the maximum
    /// ([`Histogram::quantile_bound`]). Never below the true median, at
    /// most twice it.
    pub p50_response_s: f64,
    /// Upper bound on the 95th-percentile response time in seconds,
    /// read the same way as [`Self::p50_response_s`].
    pub p95_response_s: f64,
    /// Physical-I/O breakdown.
    pub io: IoBreakdown,
    /// Buffer hit ratio over the measured interval.
    pub hit_ratio: f64,
    /// Physical log I/Os over the measured interval (`io.log_ios`).
    pub log_ios: u64,
    /// Write transactions whose commit was logged over the measured
    /// interval (Figure 5.5's per-commit denominator).
    pub commits: u64,
    /// Page splits performed.
    pub splits: u64,
    /// Recluster moves performed.
    pub recluster_moves: u64,
    /// Objects created during the measured interval.
    pub objects_created: u64,
    /// Objects deleted during the measured interval.
    pub objects_deleted: u64,
    /// Exact response-time attribution totals (integer microseconds).
    pub span_totals: SpanBreakdown,
    /// Mean per-transaction response composition in seconds.
    pub breakdown: ResponseBreakdown,
    /// Transactions that waited for locks.
    pub lock_waits: u64,
    /// Mean lock wait per waiting transaction, in seconds.
    pub mean_lock_wait_s: f64,
    /// Mean over the data disks of each one's busy time in the measured
    /// interval (its `disk.N.busy_us` gauge) over `measured_span_s`,
    /// each capped at 1; 0 for an empty interval.
    pub disk_utilization: f64,
    /// The CPU's busy time in the measured interval (`cpu.busy_us`)
    /// over `measured_span_s`, capped at 1; 0 for an empty interval.
    pub cpu_utilization: f64,
    /// Simulated time the measurement covered, in seconds.
    pub measured_span_s: f64,
    /// Whether fault injection was active for this run.
    pub faults_enabled: bool,
    /// Fault-injection counts over the measured interval (all zero
    /// when injection is inert).
    pub faults: FaultStats,
    /// Display strings of the first few transaction-abort causes (retry
    /// exhaustion, placement failure), capped so the report stays small.
    pub abort_reasons: Vec<String>,
}

impl RunReport {
    /// Assemble a report. `response_us` is the registry's
    /// `txn.response_us` histogram over the same transactions as
    /// `metrics`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        config_label: String,
        metrics: &MetricsCollector,
        events: EventCounts,
        response_us: &Histogram,
        disk_utilization: f64,
        cpu_utilization: f64,
        measured_span: SimDuration,
    ) -> Self {
        let quantile_s = |q| SimDuration::from_micros(response_us.quantile_bound(q)).as_secs_f64();
        RunReport {
            config_label,
            txns: metrics.response.count(),
            reads: metrics.read_response.count(),
            writes: metrics.write_response.count(),
            mean_response_s: metrics.response.mean(),
            read_response_s: metrics.read_response.mean(),
            write_response_s: metrics.write_response.mean(),
            max_response_s: if metrics.response.count() > 0 {
                metrics.response.max()
            } else {
                0.0
            },
            p50_response_s: quantile_s(0.5),
            p95_response_s: quantile_s(0.95),
            io: events.io,
            hit_ratio: match events.buffer_hits + events.buffer_misses {
                0 => 0.0,
                requests => events.buffer_hits as f64 / requests as f64,
            },
            log_ios: events.io.log_ios,
            commits: 0,
            splits: events.splits,
            recluster_moves: events.recluster_moves,
            objects_created: metrics.objects_created,
            objects_deleted: metrics.objects_deleted,
            span_totals: metrics.span_totals,
            breakdown: ResponseBreakdown::from_totals(
                &metrics.span_totals,
                metrics.response.count(),
            ),
            lock_waits: events.lock_waits,
            mean_lock_wait_s: if events.lock_waits == 0 {
                0.0
            } else {
                metrics.lock_wait_time.as_secs_f64() / events.lock_waits as f64
            },
            disk_utilization,
            cpu_utilization,
            measured_span_s: measured_span.as_secs_f64(),
            faults_enabled: false,
            faults: FaultStats::default(),
            abort_reasons: Vec::new(),
        }
    }
}

impl RunReport {
    /// Render the report as a minimal JSON object (no external
    /// dependencies; fields are all numeric or simple strings). Fault
    /// counters are appended **only** when the run had fault injection
    /// enabled, so fault-free output — including the committed smoke
    /// golden — is byte-identical to what it was before the fault layer
    /// existed. This is the canonical serialization: the CLI's report
    /// lines, the golden suites and the wire-protocol server's REPORT
    /// response all emit exactly these bytes, which is what makes
    /// "byte-identical to the simulator oracle" a meaningful contract.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            concat!(
                "{{\"config\":{config:?},\"txns\":{txns},\"reads\":{reads},",
                "\"writes\":{writes},\"mean_response_s\":{mean:.6},",
                "\"p50_response_s\":{p50:.6},\"p95_response_s\":{p95:.6},",
                "\"hit_ratio\":{hit:.4},\"data_reads\":{dr},\"log_ios\":{li},",
                "\"cluster_search_ios\":{cs},\"prefetch_ios\":{pf},",
                "\"splits\":{sp},\"recluster_moves\":{rm},\"lock_waits\":{lw},",
                "\"disk_utilization\":{du:.4},\"cpu_utilization\":{cu:.4}"
            ),
            config = self.config_label,
            txns = self.txns,
            reads = self.reads,
            writes = self.writes,
            mean = self.mean_response_s,
            p50 = self.p50_response_s,
            p95 = self.p95_response_s,
            hit = self.hit_ratio,
            dr = self.io.data_reads,
            li = self.log_ios,
            cs = self.io.cluster_search_ios,
            pf = self.io.prefetch_ios,
            sp = self.splits,
            rm = self.recluster_moves,
            lw = self.lock_waits,
            du = self.disk_utilization,
            cu = self.cpu_utilization,
        );
        if self.faults_enabled {
            let f = &self.faults;
            out.push_str(&format!(
                concat!(
                    ",\"faults\":{{\"read_errors\":{re},\"write_errors\":{we},",
                    "\"retries\":{rt},\"spikes\":{sk},\"log_stalls\":{ls},",
                    "\"stall_us\":{su},\"txn_aborts\":{ab},",
                    "\"degrade_enters\":{de},\"degrade_exits\":{dx}}}"
                ),
                re = f.read_errors,
                we = f.write_errors,
                rt = f.retries,
                sk = f.spikes,
                ls = f.log_stalls,
                su = f.stall_us,
                ab = f.txn_aborts,
                de = f.degrade_enters,
                dx = f.degrade_exits,
            ));
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_breakdown_total() {
        let io = IoBreakdown {
            data_reads: 10,
            dirty_writebacks: 2,
            log_ios: 3,
            cluster_search_ios: 4,
            prefetch_ios: 5,
            split_ios: 1,
        };
        assert_eq!(io.total(), 25);
    }

    #[test]
    fn collector_partitions_read_write() {
        let mut m = MetricsCollector::default();
        m.record_txn(
            SimDuration::from_millis(100),
            true,
            SpanBreakdown::default(),
        );
        m.record_txn(
            SimDuration::from_millis(300),
            false,
            SpanBreakdown::default(),
        );
        assert_eq!(m.response.count(), 2);
        assert_eq!(m.read_response.count(), 1);
        assert_eq!(m.write_response.count(), 1);
        assert!((m.response.mean() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn span_breakdown_sums_and_accumulates() {
        let a = SpanBreakdown {
            cpu_us: 1,
            data_read_us: 2,
            dirty_flush_us: 3,
            cluster_search_us: 4,
            log_us: 5,
            lock_wait_us: 6,
        };
        assert_eq!(a.total_us(), 21);
        let mut b = a;
        b.add(&a);
        assert_eq!(b.total_us(), 42);
        let rb = ResponseBreakdown::from_totals(&b, 2);
        assert!((rb.response_total_s() - 21e-6).abs() < 1e-12);
        assert!((rb.log_s - 5e-6).abs() < 1e-12);
    }

    #[test]
    fn report_assembles() {
        let mut m = MetricsCollector::default();
        let span = SpanBreakdown {
            cpu_us: 20_000,
            data_read_us: 30_000,
            ..Default::default()
        };
        m.record_txn(SimDuration::from_millis(50), true, span);
        let mut response_us = Histogram::default();
        response_us.observe(50_000);
        let r = RunReport::new(
            "test".into(),
            &m,
            EventCounts {
                splits: 3,
                buffer_hits: 3,
                buffer_misses: 1,
                ..EventCounts::default()
            },
            &response_us,
            0.5,
            0.1,
            SimDuration::from_secs(100),
        );
        assert_eq!(r.txns, 1);
        assert_eq!(r.splits, 3);
        assert_eq!(r.hit_ratio, 0.75);
        assert!((r.mean_response_s - 0.05).abs() < 1e-9);
        assert_eq!(r.measured_span_s, 100.0);
        assert_eq!(r.span_totals.total_us(), 50_000);
        // One observation: its cell's upper edge clamps to the maximum.
        assert_eq!((r.p50_response_s, r.p95_response_s), (0.05, 0.05));
        assert!((r.breakdown.cpu_s - 0.02).abs() < 1e-12);
        assert!((r.breakdown.data_read_s - 0.03).abs() < 1e-12);
    }
}
