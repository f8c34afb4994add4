//! The engine's observability half, and the one engine file that knows
//! the measured interval.
//!
//! The report describes the steady state after the warm-up: when
//! `warmup_txns` transactions have retired, `begin_measurement` notes
//! where every book stands ([`Window`]), and [`Engine::report`] reads
//! the interval as the end state less that. The rest of the engine
//! reaches the window through three calls — `record_retired`,
//! `record_lock_wait` and `record_delete` — which record only while it
//! is open. Also here: the registry that counts every engine event, the
//! trace, profiler and timeline hooks the other modules call, and the
//! end-of-run gauges.

use super::{ActiveTxn, Engine};
use crate::metrics::{FaultStats, IoBreakdown, MetricsCollector, ResponseBreakdown, RunReport};
use semcluster_clustering::page_locality;
use semcluster_faults::IoOp;
use semcluster_obs::{
    AuditSink, CounterId, FaultOp, MetricsRegistry, MetricsSnapshot, NoopSink, Phase, PhaseToken,
    PlacementAudit, ProfileReport, Timeline, TimelineSample, TimelineSampler, TraceEvent,
    TraceSink,
};
use semcluster_sim::{SimDuration, SimTime};

/// Handles to every counter the engine bumps, resolved once by
/// [`engine_registry`] so a bump on a hot path is an indexed add, not a
/// search for the name.
#[derive(Debug, Clone, Copy)]
pub(super) struct EngineCounters {
    pub(super) buffer_hit: CounterId,
    pub(super) buffer_miss: CounterId,
    pub(super) buffer_evict_dirty: CounterId,
    pub(super) io_read_demand: CounterId,
    pub(super) cluster_search_candidate_io: CounterId,
    pub(super) cluster_split: CounterId,
    pub(super) cluster_recluster_move: CounterId,
    pub(super) split_io: CounterId,
    pub(super) lock_wait: CounterId,
    pub(super) prefetch_issue: CounterId,
    pub(super) prefetch_io: CounterId,
    pub(super) wal_flush_before_image: CounterId,
    pub(super) wal_flush_full: CounterId,
    pub(super) wal_flush_commit: CounterId,
    pub(super) fault_io_read_error: CounterId,
    pub(super) fault_io_write_error: CounterId,
    pub(super) fault_io_retry: CounterId,
    pub(super) fault_io_spike: CounterId,
    pub(super) fault_log_stall: CounterId,
    pub(super) fault_txn_abort: CounterId,
    pub(super) fault_degrade_enter: CounterId,
    pub(super) fault_degrade_exit: CounterId,
}

/// Build the engine's metrics registry with every counter the hot
/// paths bump pre-declared at zero. First-touch of a counter name
/// allocates its `String` key and possibly a tree node; declaring them
/// all here — before any profiled phase opens — keeps the zero-alloc
/// pins on the inner loops honest. Zero-valued counters are filtered
/// out of snapshots, so unfired declarations are invisible.
pub(super) fn engine_registry() -> (MetricsRegistry, EngineCounters) {
    let mut r = MetricsRegistry::new();
    let counters = EngineCounters {
        buffer_hit: r.declare("buffer.hit"),
        buffer_miss: r.declare("buffer.miss"),
        buffer_evict_dirty: r.declare("buffer.evict.dirty"),
        io_read_demand: r.declare("io.read.demand"),
        cluster_search_candidate_io: r.declare("cluster.search.candidate_io"),
        cluster_split: r.declare("cluster.split"),
        cluster_recluster_move: r.declare("cluster.recluster.move"),
        split_io: r.declare("split.io"),
        lock_wait: r.declare("lock.wait"),
        prefetch_issue: r.declare("prefetch.issue"),
        prefetch_io: r.declare("prefetch.io"),
        wal_flush_before_image: r.declare("wal.flush.before_image"),
        wal_flush_full: r.declare("wal.flush.full"),
        wal_flush_commit: r.declare("wal.flush.commit"),
        fault_io_read_error: r.declare("fault.io.read_error"),
        fault_io_write_error: r.declare("fault.io.write_error"),
        fault_io_retry: r.declare("fault.io.retry"),
        fault_io_spike: r.declare("fault.io.spike"),
        fault_log_stall: r.declare("fault.log.stall"),
        fault_txn_abort: r.declare("fault.txn.abort"),
        fault_degrade_enter: r.declare("fault.degrade.enter"),
        fault_degrade_exit: r.declare("fault.degrade.exit"),
    };
    (r, counters)
}

/// Map the fault layer's I/O kind onto the trace vocabulary.
pub(super) fn fault_op(op: IoOp) -> FaultOp {
    match op {
        IoOp::Read => FaultOp::Read,
        IoOp::Write => FaultOp::Write,
        IoOp::Log => FaultOp::Log,
    }
}

/// Observability wiring for an engine run.
///
/// The default is behaviourally free: a [`NoopSink`] whose
/// `enabled() == false` short-circuits event construction, no timeline
/// sampling and no placement auditing, so an uninstrumented run does no
/// observability work beyond a branch. Every observer is pure —
/// attaching one changes no simulation result.
pub struct ObsConfig {
    /// Trace sink receiving every typed event, stamped in simulated time.
    pub sink: Box<dyn TraceSink>,
    /// When set, sample the timeline signals every this many simulated
    /// microseconds (see [`Timeline`]).
    pub timeline_interval_us: Option<u64>,
    /// When set, record a [`PlacementAudit`] for every (re)cluster
    /// decision, retaining the most recent this-many records.
    pub audit_capacity: Option<usize>,
    /// When true, bracket the engine's hot paths with a
    /// [`semcluster_obs::PhaseProfiler`] and return the per-phase self
    /// costs in [`RunObservations::profile`]. Purely observational: the
    /// simulated results are byte-identical with profiling on or off.
    pub profile: bool,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            sink: Box::new(NoopSink),
            timeline_interval_us: None,
            audit_capacity: None,
            profile: false,
        }
    }
}

impl ObsConfig {
    /// Wire a specific trace sink.
    pub fn with_sink(sink: Box<dyn TraceSink>) -> Self {
        ObsConfig {
            sink,
            ..ObsConfig::default()
        }
    }

    /// Enable timeline sampling at `interval_us` simulated microseconds.
    pub fn timeline(mut self, interval_us: u64) -> Self {
        self.timeline_interval_us = Some(interval_us);
        self
    }

    /// Enable placement auditing, retaining the last `capacity` records.
    pub fn audit(mut self, capacity: usize) -> Self {
        self.audit_capacity = Some(capacity);
        self
    }

    /// Enable hierarchical phase profiling.
    pub fn profile(mut self) -> Self {
        self.profile = true;
        self
    }
}

/// Everything the observability layer collected during one run (or,
/// after merging, across the runs of a sweep).
#[derive(Debug, Default)]
pub struct RunObservations {
    /// Final metrics-registry snapshot ([`RunReport::io`] is read from
    /// these counters).
    pub metrics: MetricsSnapshot,
    /// Sampled timeline, when sampling was enabled.
    pub timeline: Option<Timeline>,
    /// Retained placement audits, oldest first, when auditing was
    /// enabled (runs are concatenated in replication order on merge).
    pub audits: Vec<PlacementAudit>,
    /// Per-phase self-cost profile, when profiling was enabled (runs
    /// merge by per-stack sums, order-independently).
    pub profile: Option<ProfileReport>,
}

impl RunObservations {
    /// Merge another run's observations into this one. Metrics,
    /// timelines and profiles merge order-independently; audits
    /// concatenate.
    pub fn absorb(&mut self, other: &RunObservations) {
        self.metrics.merge(&other.metrics);
        match (&mut self.timeline, &other.timeline) {
            (Some(mine), Some(theirs)) => mine.merge(theirs),
            (slot @ None, Some(theirs)) => *slot = Some(theirs.clone()),
            _ => {}
        }
        self.audits.extend_from_slice(&other.audits);
        match (&mut self.profile, &other.profile) {
            (Some(mine), Some(theirs)) => mine.merge(theirs),
            (slot @ None, Some(theirs)) => *slot = Some(theirs.clone()),
            _ => {}
        }
    }
}

/// The measured interval. Nothing is reset when it opens: it notes
/// where the engine's books stood, and the report and the observed
/// snapshot are the end state less this. All zeros until measurement
/// starts, and sized at construction, so opening it allocates nothing.
/// (`measuring` and `counters` are visible to the engine's tests.)
#[derive(Debug, Default)]
pub(super) struct Window {
    /// Whether the warm-up has ended.
    pub(super) measuring: bool,
    measure_start: SimTime,
    /// Every registry counter ([`MetricsRegistry::counter_values_into`]).
    pub(super) counters: Vec<u64>,
    /// `commits_seen`.
    commits: u64,
    cpu_busy: SimDuration,
    log_disk_busy: SimDuration,
    /// Per data disk.
    disk_busy: Vec<SimDuration>,
    /// What has no registry counter, recorded only while `measuring`.
    metrics: MetricsCollector,
}

impl Window {
    /// A closed window over `registry` and `disks` data disks.
    pub(super) fn new(registry: &MetricsRegistry, disks: usize) -> Self {
        let mut window = Window {
            disk_busy: vec![SimDuration::ZERO; disks],
            ..Window::default()
        };
        registry.counter_values_into(&mut window.counters);
        window
    }
}

impl Engine {
    /// Open a profiled phase. One branch when profiling is off.
    #[inline]
    pub(super) fn prof_enter(&mut self, phase: Phase) -> Option<PhaseToken> {
        self.profiler.as_mut().map(|p| p.enter(phase))
    }

    /// Close a profiled phase, attributing `sim_us` of simulated self
    /// cost to it.
    #[inline]
    pub(super) fn prof_exit(&mut self, token: Option<PhaseToken>, sim_us: u64) {
        if let Some(token) = token {
            self.profiler
                .as_mut()
                .expect("a live token implies a live profiler")
                .exit(token, sim_us);
        }
    }

    /// Deliver a trace event, constructing it only when a sink listens.
    #[inline]
    pub(super) fn emit(&mut self, event: impl FnOnce() -> TraceEvent) {
        if self.trace.enabled() {
            self.trace.emit(&event());
        }
    }

    /// Book a retired transaction, after `completed` has counted it:
    /// while measuring, a commit's response and span; then, if this
    /// retirement ended the warm-up, open the measured interval.
    pub(super) fn record_retired(&mut self, txn: &ActiveTxn, committed: bool, now: SimTime) {
        let w = &mut self.window;
        if committed && w.measuring {
            let response = now.since(txn.started);
            w.metrics.record_txn(response, txn.is_read, txn.span);
            self.registry
                .observe("txn.response_us", response.as_micros());
        }
        if !w.measuring && self.completed >= self.cfg.warmup_txns {
            self.begin_measurement(now);
        }
    }

    /// Book a parked transaction's lock wait, while measuring.
    pub(super) fn record_lock_wait(&mut self, wait: SimDuration) {
        if self.window.measuring {
            self.window.metrics.lock_wait_time += wait;
        }
    }

    /// Book a deleted object, while measuring.
    pub(super) fn record_delete(&mut self) {
        if self.window.measuring {
            self.window.metrics.objects_deleted += 1;
        }
    }

    /// Open the measured interval: note where every book stands, so
    /// the report can read the interval off them. Nothing is reset —
    /// the collector has recorded only while `measuring`, and the
    /// registry, the servers' busy time and the timeline run on.
    fn begin_measurement(&mut self, now: SimTime) {
        let w = &mut self.window;
        w.measuring = true;
        w.measure_start = now;
        self.registry.counter_values_into(&mut w.counters);
        w.commits = self.commits_seen;
        w.cpu_busy = self.cpu.busy_time();
        w.log_disk_busy = self.log_disk.busy_time();
        for (i, busy) in w.disk_busy.iter_mut().enumerate() {
            *busy = self.disks.member(i).busy_time();
        }
        self.abort_reasons.clear();
    }

    /// Record a timeline point for every interval boundary simulated
    /// time has crossed since the last sample. Pure observation: reads
    /// engine state and the registry's cumulative counters, touches no
    /// RNG, schedules nothing — with sampling off this is one branch.
    pub(super) fn sample_timeline(&mut self, now: SimTime) {
        let due = match &self.timeline {
            Some(sampler) => sampler.due(now.as_micros()),
            None => false,
        };
        if !due {
            return;
        }
        let tok = self.prof_enter(Phase::TimelineSample);
        let mut sampler = self.timeline.take().expect("due implies a sampler");
        while sampler.due(now.as_micros()) {
            let t_us = sampler.next_due_us();
            let mut queue_us = Vec::with_capacity(self.disks.len());
            for i in 0..self.disks.len() {
                let free = self.disks.member(i).free_at().as_micros();
                queue_us.push(free.saturating_sub(t_us));
            }
            // Structural locality summed over the resident set. The
            // walk is pinned allocation-free by the profile golden;
            // nothing else may creep inside this bracket.
            let ptok = self.prof_enter(Phase::PageLocality);
            let (mut loc_on_page, mut loc_refs) = (0, 0);
            for &page in self.pool.resident_pages() {
                let (on, all) = page_locality(&self.db, &self.store, page);
                loc_on_page += on;
                loc_refs += all;
            }
            self.prof_exit(ptok, 0);
            let c = &self.counters;
            let aborts = self.registry.value(c.fault_txn_abort);
            sampler.record(TimelineSample {
                hits: self.registry.value(c.buffer_hit),
                misses: self.registry.value(c.buffer_miss),
                // Both are bumped within one event, so at an event
                // boundary every retired transaction not aborted committed.
                commits: self.completed - aborts,
                aborts,
                queue_us,
                log_buffered: self.log.buffered_bytes() as u64,
                loc_on_page,
                loc_refs,
            });
        }
        self.timeline = Some(sampler);
        self.prof_exit(tok, 0);
    }

    /// Stamp the end-of-run busy-time gauges (service delivered in the
    /// measured interval), which [`Self::report`] divides by the span,
    /// and flush the trace sink.
    pub(super) fn finalize_obs(&mut self) {
        let w = &self.window;
        for i in 0..self.disks.len() {
            let busy = self.disks.member(i).busy_time() - w.disk_busy[i];
            self.registry
                .set_gauge(&format!("disk.{i}.busy_us"), busy.as_micros() as i64);
        }
        let log_busy = self.log_disk.busy_time() - w.log_disk_busy;
        let cpu_busy = self.cpu.busy_time() - w.cpu_busy;
        self.registry
            .set_gauge("log_disk.busy_us", log_busy.as_micros() as i64);
        self.registry
            .set_gauge("cpu.busy_us", cpu_busy.as_micros() as i64);
        self.registry
            .set_gauge("lock.wait_us", w.metrics.lock_wait_time.as_micros() as i64);
        if let Some(profiler) = self.profiler.as_mut() {
            profiler.add_root_sim_us(self.queue.now().as_micros());
            let report = profiler.report();
            // Counter events ride the trace stream; the report itself is
            // staged first so exporting it cannot perturb its numbers.
            if self.trace.enabled() {
                let at = self.queue.now();
                for (path, s) in report.phases() {
                    self.trace.emit(&TraceEvent::ProfilePhase {
                        at,
                        path: path.to_string(),
                        calls: s.calls,
                        sim_us: s.sim_us,
                        alloc_bytes: s.alloc_bytes,
                        allocs: s.allocs,
                    });
                }
            }
            self.profile_report = Some(report);
        }
        self.trace.flush();
    }

    /// Hand over what the observers collected, after
    /// [`Self::finalize_obs`]: the registry snapshot through the
    /// measured interval, the timeline, the audits and the profile.
    pub(super) fn observations(&mut self) -> RunObservations {
        RunObservations {
            metrics: self.registry.snapshot_since(&self.window.counters),
            timeline: self.timeline.take().map(TimelineSampler::into_timeline),
            audits: self
                .audit
                .take()
                .map(AuditSink::into_records)
                .unwrap_or_default(),
            profile: self.profile_report.take(),
        }
    }

    /// Assemble the run report, after [`Self::finalize_obs`]. Event
    /// totals, the response-time quantiles and the busy time are read
    /// off the registry — the engine's one ledger — through the
    /// measurement window, so the report and a `--metrics` snapshot
    /// cannot disagree (DESIGN.md §9.2 is this mapping).
    pub(super) fn report(&self) -> RunReport {
        let (c, w) = (&self.counters, &self.window);
        let m = &w.metrics;
        let span = self.queue.now() - w.measure_start;
        let n = |id| self.registry.value_since(id, &w.counters);
        let utilization = |gauge: &str| match span.as_micros() {
            0 => 0.0,
            span_us => (self.registry.gauge(gauge) as f64 / span_us as f64).min(1.0),
        };
        let disks = self.disks.len();
        let response_us = self.registry.histogram("txn.response_us");
        let quantile_s = |q| {
            let us = response_us.map_or(0, |h| h.quantile_bound(q));
            SimDuration::from_micros(us).as_secs_f64()
        };
        let txns = m.response.count();
        let (hits, misses) = (n(c.buffer_hit), n(c.buffer_miss));
        let log_ios = n(c.wal_flush_before_image) + n(c.wal_flush_full) + n(c.wal_flush_commit);
        RunReport {
            config_label: self.cfg.label(),
            txns,
            reads: m.reads,
            writes: txns - m.reads,
            mean_response_s: m.response.mean(),
            max_response_s: if txns > 0 { m.response.max() } else { 0.0 },
            p50_response_s: quantile_s(0.5),
            p95_response_s: quantile_s(0.95),
            io: IoBreakdown {
                data_reads: n(c.io_read_demand),
                dirty_writebacks: n(c.buffer_evict_dirty),
                log_ios,
                cluster_search_ios: n(c.cluster_search_candidate_io),
                prefetch_ios: n(c.prefetch_io),
                split_ios: n(c.split_io),
            },
            hit_ratio: match hits + misses {
                0 => 0.0,
                requests => hits as f64 / requests as f64,
            },
            log_ios,
            commits: self.commits_seen - w.commits,
            splits: n(c.cluster_split),
            recluster_moves: n(c.cluster_recluster_move),
            objects_deleted: m.objects_deleted,
            span_totals: m.span_totals,
            breakdown: ResponseBreakdown {
                think_s: self.cfg.think_time.as_secs_f64(),
                ..ResponseBreakdown::from_totals(&m.span_totals, txns)
            },
            lock_waits: n(c.lock_wait),
            disk_utilization: (0..disks)
                .map(|i| utilization(&format!("disk.{i}.busy_us")))
                .sum::<f64>()
                / disks as f64,
            cpu_utilization: utilization("cpu.busy_us"),
            measured_span_s: span.as_secs_f64(),
            faults_enabled: self.faults.enabled(),
            faults: FaultStats {
                read_errors: n(c.fault_io_read_error),
                write_errors: n(c.fault_io_write_error),
                retries: n(c.fault_io_retry),
                spikes: n(c.fault_io_spike),
                log_stalls: n(c.fault_log_stall),
                // Every injected stall lasts the configured `log_stall_us`.
                stall_us: n(c.fault_log_stall) * self.cfg.faults.log_stall_us,
                txn_aborts: n(c.fault_txn_abort),
                degrade_enters: n(c.fault_degrade_enter),
                degrade_exits: n(c.fault_degrade_exit),
            },
            abort_reasons: self.abort_reasons.clone(),
        }
    }
}
