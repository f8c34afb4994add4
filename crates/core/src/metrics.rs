//! Output metrics of one simulation run.

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

/// What the engine's measured window records that has no counter in
/// its registry: per-commit responses, and the deletes and lock waits
/// the report and the `lock.wait_us` gauge read (DESIGN.md §9.2).
#[derive(Debug, Default)]
pub(crate) struct MetricsCollector {
    /// Response time of every measured commit, in seconds.
    pub(crate) response: OnlineStats,
    /// How many of those commits were read transactions.
    pub(crate) reads: u64,
    /// Objects deleted during measurement.
    pub(crate) objects_deleted: u64,
    /// Total time transactions spent waiting for locks.
    pub(crate) lock_wait_time: SimDuration,
    /// Exact response-time attribution summed over measured transactions.
    pub(crate) span_totals: SpanBreakdown,
}

impl MetricsCollector {
    /// Record a committed transaction.
    pub(crate) fn record_txn(&mut self, response: SimDuration, is_read: bool, span: SpanBreakdown) {
        self.response.push_duration(response);
        self.reads += u64::from(is_read);
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
    /// Maximum observed response time in seconds.
    pub max_response_s: f64,
    /// Upper bound on the median response time in seconds: the upper
    /// edge of the log₂ `txn.response_us` cell holding the median
    /// observation, clamped to the maximum
    /// ([`semcluster_obs::Histogram::quantile_bound`]). Never below the
    /// true median, at most twice it.
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
    /// Objects deleted during the measured interval.
    pub objects_deleted: u64,
    /// Exact response-time attribution totals (integer microseconds).
    pub span_totals: SpanBreakdown,
    /// Mean per-transaction response composition in seconds.
    pub breakdown: ResponseBreakdown,
    /// Transactions that waited for locks.
    pub lock_waits: u64,
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
        assert_eq!(m.reads, 1);
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
}
