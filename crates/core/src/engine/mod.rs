//! The integrated simulation engine.
//!
//! A closed queueing network after Figure 4.1: `users` workstations with
//! exponential think times submit transactions to a file server holding
//! the buffer manager, cluster manager and log manager, backed by one CPU
//! and `disks` FCFS disks. Every logical page access can expand into 0–3
//! physical I/Os (dirty-page flush, log I/O, demand read), exactly as §4
//! describes.
//!
//! The engine *executes*; it does not decide what is asked. The users —
//! sessions, working sets, the read/write mix, the choice of query and
//! target — are a [`Generator`], which the driver asks for one
//! [`Transaction`] each time a user stops thinking and which hears back
//! only through `remember` (DESIGN.md §3.1). The file server is this
//! module — state, constructor, public API — and five children that
//! share its private fields:
//!
//! * `load` — the synthetic database and its history-shaped layout;
//! * `driver` — the event loop: think/op/txn-done, lock park and wake,
//!   crash points;
//! * `exec` — one `TxnOp` through buffer, cluster manager and log;
//! * `charge` — the cost model: the operation clock, and what each
//!   access costs in simulated time and physical I/O, retries included;
//! * `observe` — the measured window and the report read through it,
//!   the event registry, and the trace, profiler and timeline hooks.
//!
//! ## Model notes (documented deviations and interpretations)
//!
//! * **Initial placement reflects the policy's history.** A database that
//!   has lived under `No_Cluster` is laid out in arrival order with
//!   interleaved design activity (scattered); one that has lived under any
//!   clustering policy is affinity-placed. Run-time differences (search
//!   I/O charges, new-object placement, reclustering, splits) then play
//!   out on top, as in the paper.
//! * **Prefetch is asynchronous**: prefetch I/Os load the disks but are
//!   not on the issuing transaction's critical path (§5.2's
//!   prefetch-within-database could not win otherwise).
//! * **Intra-transaction I/O is serial** (navigation is a dependency
//!   chain); I/Os of different users interleave through the shared FCFS
//!   servers.

mod charge;
mod driver;
mod exec;
mod load;
mod observe;

pub use observe::{ObsConfig, RunObservations};

use crate::config::SimConfig;
use crate::crash::CrashOutcome;
use crate::durable::DurableMirror;
use crate::metrics::{RunReport, SpanBreakdown};
use charge::OpClock;
use observe::{engine_registry, EngineCounters, Window};
use semcluster_buffer::BufferPool;
use semcluster_clustering::{HintPolicy, ScoreScratch, SplitPolicy, WeightModel};
use semcluster_faults::{CrashPoint, FaultState};
use semcluster_lock::{LockManager, LockMode};
use semcluster_obs::{
    AuditSink, MetricsRegistry, PhaseProfiler, ProfileReport, TimelineSampler, TraceSink,
};
use semcluster_sim::{EventQueue, FcfsServer, ServerBank, SimDuration, SimRng, SimTime};
use semcluster_storage::{DiskLayout, StorageManager, StoreError, WalOp};
use semcluster_vdm::{Database, ObjectId, WalkScratch};
use semcluster_wal::{LogManager, TxnToken};
use semcluster_workload::{Generator, Transaction};
use std::collections::VecDeque;

/// Maximum related pages boosted per object access under the
/// context-sensitive policy.
const CONTEXT_BOOST_FANOUT: usize = 8;

/// Transactions remembered when estimating the run-time read/write ratio
/// for the adaptive clustering policy.
const RW_WINDOW: usize = 100;

#[derive(Debug, Clone, Copy)]
#[allow(clippy::enum_variant_names)]
enum Event {
    ThinkDone(u32),
    OpDone(u32),
    TxnDone(u32),
}

#[derive(Debug)]
struct ActiveTxn {
    txn: Transaction,
    next_op: usize,
    started: SimTime,
    is_read: bool,
    token: Option<TxnToken>,
    /// Global transaction sequence number (trace identity).
    id: u64,
    /// Exact response-time attribution accumulated so far.
    span: SpanBreakdown,
}

#[derive(Debug, Default)]
struct UserState {
    txn: Option<ActiveTxn>,
    /// Transaction blocked on locks, and when it was submitted.
    parked: Option<(Transaction, SimTime)>,
}

impl UserState {
    const IN_FLIGHT: &'static str =
        "user owns a transaction in flight (op/txn events only fire for active transactions)";

    fn active(&mut self) -> &mut ActiveTxn {
        self.txn.as_mut().expect(Self::IN_FLIGHT)
    }

    fn take_active(&mut self) -> ActiveTxn {
        self.txn.take().expect(Self::IN_FLIGHT)
    }
}

/// The simulated OODBMS server plus its client population.
pub struct Engine {
    cfg: SimConfig,
    db: Database,
    store: StorageManager,
    pool: BufferPool,
    log: LogManager,
    disks: ServerBank,
    log_disk: FcfsServer,
    cpu: FcfsServer,
    layout: DiskLayout,
    queue: EventQueue<Event>,
    /// The client population: decides what each user submits next.
    generator: Generator,
    users: Vec<UserState>,
    /// The run's one random stream, lent to the generator per call.
    rng: SimRng,
    weights: WeightModel,
    locks: LockManager,
    /// Reusable dense scoring scratch threaded through every placement
    /// and recluster decision (DESIGN.md §14): pre-grown outside the
    /// profiled phases so candidate scoring never allocates.
    scratch: ScoreScratch,
    /// Reusable hierarchical lock-request buffer for [`Self::try_lock`].
    lock_requests: Vec<(ObjectId, LockMode)>,
    parked_fifo: VecDeque<u32>,
    /// Sliding window of recent transaction kinds (true = read) for the
    /// adaptive clustering policy.
    recent_kinds: VecDeque<bool>,
    completed: u64,
    /// The measured interval, which only `observe.rs` reads or writes.
    window: Window,
    create_seq: u64,
    /// Reused buffer `exec_create` formats a generated base name into.
    name_buf: String,
    disk_service: SimDuration,
    /// Named counters/gauges/histograms, never reset. The only count of
    /// each engine event: [`Self::report`] reads [`RunReport::io`], the
    /// hit ratio, the fault counts and the split/move/lock-wait totals
    /// from here, through `window`.
    registry: MetricsRegistry,
    /// Handles to the registry's counters.
    counters: EngineCounters,
    /// Reusable traversal state and result buffer for reads and (lent
    /// to the generator) session checkouts, so neither allocates per
    /// call.
    walk: WalkScratch,
    read_objects: Vec<ObjectId>,
    /// Typed event sink (NoopSink unless the caller attached one).
    trace: Box<dyn TraceSink>,
    /// Fixed-interval timeline sampler (None unless enabled).
    timeline: Option<TimelineSampler>,
    /// Bounded placement-audit recorder (None unless enabled).
    audit: Option<AuditSink>,
    /// Hierarchical phase profiler (None unless enabled); pure observer.
    profiler: Option<PhaseProfiler>,
    /// The profiler's final report, staged by [`Self::finalize_obs`]
    /// *before* any trace emission so the report never observes its own
    /// export.
    profile_report: Option<ProfileReport>,
    /// Global transaction sequence number.
    txn_seq: u64,
    /// Scratch attribution for the operation currently executing; drained
    /// into the owning transaction's span after each operation.
    cur_span: SpanBreakdown,
    /// The operation clock, advanced only by the `charge.rs` helpers.
    clock: OpClock,
    /// Deterministic fault-injection state (inert unless configured).
    faults: FaultState,
    /// Where a crash-and-recover run pulls the plug.
    crash_point: CrashPoint,
    /// Set when the crash point fires; the drive loop stops at the next
    /// event boundary.
    crash_pending: bool,
    /// Simulation events processed (crash-point `event:K` counter).
    events_seen: u64,
    /// Write-transaction commits logged (crash-point `commit:K` counter).
    commits_seen: u64,
    /// Physical log I/Os issued (crash-point `midflush:K` counter).
    log_flushes_seen: u64,
    /// Tokens whose commit was acknowledged to the user (TxnDone) —
    /// ground truth for crash-matrix verification. Only tracked with
    /// `retain_log`.
    acked_commits: Vec<TxnToken>,
    /// Tokens aborted after retry exhaustion (ground truth; only
    /// tracked with `retain_log`).
    aborted_tokens: Vec<TxnToken>,
    /// First few abort reasons, for the run report.
    abort_reasons: Vec<String>,
    /// Optional durable file-backed mirror (DESIGN.md §15). `None` in
    /// every simulated run; each hook is then a single branch, keeping
    /// the golden suites byte-identical.
    mirror: Option<DurableMirror>,
    /// Tokens whose durable commit fsync failed — must never be acked.
    mirror_failed: Vec<TxnToken>,
    /// Tokens that reached TxnDone but whose durable commit had failed;
    /// the matrix verifies these are NOT required to survive recovery.
    unacked_commits: Vec<TxnToken>,
}

impl Engine {
    /// Build the engine: synthesise the database, lay it out under the
    /// configured policy's history, and prime the event queue.
    pub fn new(cfg: SimConfig) -> Self {
        Self::with_obs(cfg, ObsConfig::default())
    }

    /// Build the engine with an attached observability configuration.
    pub fn with_obs(cfg: SimConfig, obs: ObsConfig) -> Self {
        let mut rng = SimRng::seed_from_u64(cfg.seed);
        let (db, module_starts) = load::build_database(&cfg, &mut rng);
        let weights = match cfg.hints {
            HintPolicy::UserHints => WeightModel::with_hint(cfg.session_hint),
            HintPolicy::NoHints => WeightModel::no_hints(),
        };
        let store = load::load_database(&cfg, &db, &module_starts, &weights, &mut rng);
        let log = LogManager::new(cfg.log);
        let mut pool = BufferPool::new(
            cfg.buffer_pages,
            cfg.replacement,
            rng.below(u32::MAX as u64),
        );
        if let Some(boost) = cfg.context_boost_ticks {
            pool.set_boost_amount(boost);
        }
        pool.ensure_page_capacity(store.page_count() + 64);
        let disks = ServerBank::new("disk", cfg.disks as usize);
        let log_disk = FcfsServer::new("log-disk");
        let cpu = FcfsServer::new("cpu");
        let layout = DiskLayout::new(cfg.disks);
        let generator = Generator::new(cfg.workload.clone(), cfg.phases.clone(), cfg.users);
        let users = (0..cfg.users).map(|_| UserState::default()).collect();
        let disk_service = SimDuration::from_micros(cfg.disk.service_us());
        let faults = FaultState::new(cfg.seed, cfg.faults.clone());
        let mut scratch =
            ScoreScratch::with_capacity(db.object_count() + 64, store.page_count() + 64);
        // Only a splitting engine plans splits; the others keep the
        // allocation sequence (and so the heap layout) they always had.
        if cfg.split != SplitPolicy::NoSplit {
            scratch.reserve_split();
        }
        let mut locks = LockManager::new();
        locks.ensure_object_capacity(db.object_count() + 64);
        let queue = EventQueue::with_capacity(cfg.users as usize * 4 + 16);
        let (registry, counters) = engine_registry();
        let window = Window::new(&registry, disks.len());
        let mut engine = Engine {
            cfg,
            db,
            store,
            pool,
            log,
            disks,
            log_disk,
            cpu,
            layout,
            queue,
            generator,
            users,
            rng,
            weights,
            locks,
            scratch,
            lock_requests: Vec::with_capacity(64),
            parked_fifo: VecDeque::new(),
            recent_kinds: VecDeque::with_capacity(RW_WINDOW),
            completed: 0,
            window,
            create_seq: 0,
            name_buf: String::new(),
            disk_service,
            registry,
            counters,
            walk: WalkScratch::default(),
            read_objects: Vec::with_capacity(64),
            trace: obs.sink,
            timeline: obs.timeline_interval_us.map(TimelineSampler::new),
            audit: obs.audit_capacity.map(AuditSink::with_capacity),
            profiler: obs.profile.then(PhaseProfiler::new),
            profile_report: None,
            txn_seq: 0,
            cur_span: SpanBreakdown::default(),
            clock: OpClock::default(),
            faults,
            crash_point: CrashPoint::End,
            crash_pending: false,
            events_seen: 0,
            commits_seen: 0,
            log_flushes_seen: 0,
            acked_commits: Vec::new(),
            aborted_tokens: Vec::new(),
            abort_reasons: Vec::new(),
            mirror: None,
            mirror_failed: Vec::new(),
            unacked_commits: Vec::new(),
        };
        for u in 0..engine.cfg.users {
            engine.generator.start_session(
                u,
                &engine.db,
                &mut engine.rng,
                &mut engine.walk,
                &mut engine.read_objects,
            );
            let think = engine.rng.exp_duration(engine.cfg.think_time);
            engine
                .queue
                .schedule(SimTime::ZERO + think, Event::ThinkDone(u));
        }
        engine
    }

    /// Immutable view of the logical database (for examples/tests).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Immutable view of physical placement (for examples/tests).
    pub fn store(&self) -> &StorageManager {
        &self.store
    }

    /// Run to completion (warmup + measured transactions) and report.
    pub fn run(self) -> RunReport {
        self.run_observed().0
    }

    /// Run to completion, returning the report plus everything the
    /// observability layer collected (metrics snapshot — the counters
    /// [`RunReport::io`] is read from — timeline, placement audits).
    pub fn run_observed(mut self) -> (RunReport, RunObservations) {
        self.drive();
        self.finalize_obs();
        (self.report(), self.observations())
    }

    /// Run until `point` fires (or to completion for
    /// [`CrashPoint::End`]), pull the plug there, and return the
    /// [`CrashOutcome`]: the engine's ground truth (acknowledged,
    /// unacknowledged, in-flight and aborted transactions) and, with a
    /// mirror attached, the crashed store's files, which
    /// [`CrashOutcome::recover_and_verify`] judges against it. Requires
    /// `cfg.retain_log`, which keeps the ground-truth lists.
    ///
    /// A [`CrashPoint::MidFlush`] crash tears the mirror's log buffer
    /// mid-write to the WAL; recovery truncates the torn tail (commit is
    /// only acknowledged after its force completes, so a torn record
    /// never belongs to an acknowledged transaction).
    pub fn run_and_crash_at(mut self, point: CrashPoint) -> CrashOutcome {
        assert!(
            self.cfg.retain_log,
            "run_and_crash_at requires cfg.retain_log = true"
        );
        self.crash_point = point;
        self.drive();
        self.finalize_obs();
        let report = self.report();
        let in_flight: Vec<TxnToken> = self
            .users
            .iter()
            .filter_map(|u| u.txn.as_ref().and_then(|t| t.token))
            .collect();
        let file = self
            .mirror
            .take()
            .map(|m| m.crash(matches!(point, CrashPoint::MidFlush(_))));
        CrashOutcome {
            point,
            report,
            acked: self.acked_commits,
            unacked: self.unacked_commits,
            in_flight,
            aborted: self.aborted_tokens,
            events_seen: self.events_seen,
            commits_seen: self.commits_seen,
            log_flushes_seen: self.log_flushes_seen,
            file,
        }
    }

    /// Attach a durable file-backed mirror: writes the checkpoint image
    /// of the store as laid out right now, then shadows every storage
    /// effect for the rest of the run. Call before [`Engine::run`] or
    /// [`Engine::run_and_crash_at`].
    pub fn attach_mirror(&mut self, mut mirror: DurableMirror) -> Result<(), StoreError> {
        mirror.checkpoint(&self.store)?;
        self.mirror = Some(mirror);
        Ok(())
    }

    /// Mirror one logical storage op (single branch when detached).
    fn mirror_op(&mut self, token: TxnToken, op: WalOp) {
        if let Some(m) = self.mirror.as_mut() {
            m.op(token.raw(), op);
        }
    }

    /// Advance the simulation to the next transaction boundary: process
    /// events until one more transaction completes. Returns `true` when
    /// a transaction completed and `false` when the run is over (the
    /// configured warmup + measured target was reached). Stepping to
    /// every boundary and then calling [`Engine::run_observed`] produces
    /// output byte-identical to an uninterrupted run — the oracle
    /// contract the serialized server mode is tested against.
    pub fn step_transaction(&mut self) -> bool {
        let before = self.completed;
        while self.completed == before {
            if !self.step_event() {
                return false;
            }
        }
        true
    }

    /// Transactions completed so far (warmup + measured).
    pub fn completed_txns(&self) -> u64 {
        self.completed
    }

    /// Total transactions the run will execute (warmup + measured).
    pub fn target_txns(&self) -> u64 {
        self.cfg.warmup_txns + self.cfg.measured_txns
    }
}

/// Run one configured simulation to completion.
pub fn run_simulation(cfg: SimConfig) -> RunReport {
    Engine::new(cfg).run()
}

/// Run one configured simulation with observability attached, returning
/// the report plus everything collected (metrics, timeline, audits).
pub fn run_simulation_observed(cfg: SimConfig, obs: ObsConfig) -> (RunReport, RunObservations) {
    Engine::with_obs(cfg, obs).run_observed()
}

#[cfg(test)]
mod tests {
    use super::*;
    use semcluster_buffer::{AccessHint, PrefetchScope, ReplacementPolicy};
    use semcluster_clustering::{ClusteringPolicy, SplitPolicy};
    use semcluster_workload::StructureDensity;

    fn tiny() -> SimConfig {
        SimConfig {
            database_bytes: 2 * 1024 * 1024,
            buffer_pages: 24,
            warmup_txns: 100,
            measured_txns: 400,
            ..SimConfig::default()
        }
    }

    #[test]
    fn run_completes_and_measures() {
        let report = run_simulation(tiny());
        assert_eq!(report.txns, 400);
        assert!(report.mean_response_s > 0.0);
        assert!(report.reads > report.writes, "rw=5 workload");
        assert!(report.hit_ratio > 0.0 && report.hit_ratio <= 1.0);
        assert!(report.measured_span_s > 0.0);
    }

    #[test]
    fn same_seed_same_result() {
        let a = run_simulation(tiny());
        let b = run_simulation(tiny());
        assert_eq!(a.mean_response_s, b.mean_response_s);
        assert_eq!(a.io, b.io);
        let c = run_simulation(tiny().with_seed(99));
        assert_ne!(a.mean_response_s, c.mean_response_s);
    }

    #[test]
    fn clustering_beats_no_clustering_at_high_density_high_rw() {
        let base = SimConfig {
            workload: semcluster_workload::WorkloadSpec::new(StructureDensity::High10, 100.0),
            ..tiny()
        };
        let clustered = run_simulation(base.clone().with_clustering(ClusteringPolicy::NoLimit));
        let scattered = run_simulation(base.with_clustering(ClusteringPolicy::NoCluster));
        assert!(
            clustered.mean_response_s < scattered.mean_response_s,
            "clustered {} vs scattered {}",
            clustered.mean_response_s,
            scattered.mean_response_s
        );
    }

    #[test]
    fn clustering_coalesces_before_images() {
        // Figure 5.5's mechanism: clustered updates of related objects
        // share pages, so fewer before-images are logged per committed
        // write transaction. Compare the per-commit rate (totals are
        // diluted by the random write-transaction counts of each run).
        let mut base = tiny();
        base.measured_txns = 2000;
        base.workload = semcluster_workload::WorkloadSpec::new(StructureDensity::Med5, 2.0);
        let rate = |policy| {
            let cfg = base.clone().with_clustering(policy);
            let (r, obs) = run_simulation_observed(cfg, ObsConfig::default());
            obs.metrics.counter("wal.flush.before_image") as f64 / r.commits.max(1) as f64
        };
        let clustered = rate(ClusteringPolicy::NoLimit);
        let scattered = rate(ClusteringPolicy::NoCluster);
        assert!(
            clustered < scattered,
            "clustered {clustered:.3} vs scattered {scattered:.3} images/commit"
        );
    }

    #[test]
    fn context_prefetch_beats_lru_no_prefetch() {
        let base = SimConfig {
            workload: semcluster_workload::WorkloadSpec::new(StructureDensity::High10, 100.0),
            clustering: ClusteringPolicy::NoLimit,
            split: SplitPolicy::Linear,
            ..tiny()
        };
        let smart = run_simulation(
            base.clone()
                .with_replacement(ReplacementPolicy::ContextSensitive)
                .with_prefetch(PrefetchScope::WithinDatabase),
        );
        let naive = run_simulation(
            base.with_replacement(ReplacementPolicy::Lru)
                .with_prefetch(PrefetchScope::None),
        );
        assert!(
            smart.mean_response_s < naive.mean_response_s,
            "smart {} vs naive {}",
            smart.mean_response_s,
            naive.mean_response_s
        );
    }

    #[test]
    fn user_hints_do_not_break_runs() {
        let mut cfg = tiny();
        cfg.hints = HintPolicy::UserHints;
        cfg.session_hint = AccessHint::ByConfiguration;
        let report = run_simulation(cfg);
        assert_eq!(report.txns, 400);
    }

    #[test]
    fn splits_happen_under_split_policy() {
        let mut cfg = tiny();
        cfg.split = SplitPolicy::Linear;
        cfg.clustering = ClusteringPolicy::NoLimit;
        cfg.workload = semcluster_workload::WorkloadSpec::new(StructureDensity::High10, 2.0);
        cfg.measured_txns = 800;
        let report = run_simulation(cfg);
        // Write-heavy high-density load on a clustered store must
        // eventually overflow preferred pages.
        assert!(
            report.splits > 0,
            "expected splits, got {:?}",
            report.splits
        );
    }
}

#[cfg(test)]
mod lock_tests {
    use super::*;
    use semcluster_workload::StructureDensity;

    #[test]
    fn locking_produces_waits_under_contention() {
        // A small, write-heavy database with nearly no think time keeps
        // all ten users concurrently active, maximising composite-lock
        // collisions.
        let mut cfg = SimConfig {
            database_bytes: 256 * 1024,
            buffer_pages: 16,
            warmup_txns: 50,
            measured_txns: 600,
            ..SimConfig::default()
        };
        cfg.think_time = SimDuration::from_millis(100);
        cfg.workload = semcluster_workload::WorkloadSpec::new(StructureDensity::Med5, 0.5);
        let (locked, obs) = run_simulation_observed(cfg, ObsConfig::default());
        assert!(
            locked.lock_waits > 0,
            "expected lock waits under contention"
        );
        // The waits are booked: in the woken transactions' response
        // attribution and in the window's `lock.wait_us` gauge.
        assert!(locked.span_totals.lock_wait_us > 0);
        assert!(obs.metrics.gauge("lock.wait_us") > 0);
        assert_eq!(locked.txns, 600);
    }

    #[test]
    fn locking_preserves_determinism() {
        let cfg = SimConfig {
            database_bytes: 1024 * 1024,
            buffer_pages: 16,
            warmup_txns: 50,
            measured_txns: 300,
            ..SimConfig::default()
        };
        let a = run_simulation(cfg.clone());
        let b = run_simulation(cfg);
        assert_eq!(a.mean_response_s, b.mean_response_s);
        assert_eq!(a.lock_waits, b.lock_waits);
    }
}

#[cfg(test)]
mod adaptive_tests {
    use super::*;
    use semcluster_clustering::ClusteringPolicy;
    use semcluster_workload::{PhaseSchedule, StructureDensity};

    fn phased(policy: ClusteringPolicy) -> SimConfig {
        SimConfig {
            database_bytes: 2 * 1024 * 1024,
            buffer_pages: 24,
            warmup_txns: 100,
            measured_txns: 800,
            clustering: policy,
            phases: Some(PhaseSchedule::mosaico(StructureDensity::Med5, 80)),
            ..SimConfig::default()
        }
    }

    #[test]
    fn phased_workload_runs_and_differs_from_static() {
        let phased_report = run_simulation(phased(ClusteringPolicy::NoLimit));
        assert_eq!(phased_report.txns, 800);
        // The MOSAICO cycle is write-heavy on average (rw 0.52 phase), so
        // the write count must be much higher than a static rw=46 mix.
        assert!(
            phased_report.writes > phased_report.txns / 10,
            "phases should inject write-heavy intervals: {} writes",
            phased_report.writes
        );
    }

    #[test]
    fn adaptive_policy_tracks_the_best_fixed_policy() {
        let adaptive = run_simulation(phased(ClusteringPolicy::Adaptive));
        let bounded = run_simulation(phased(ClusteringPolicy::IoLimit(2)));
        let unbounded = run_simulation(phased(ClusteringPolicy::NoLimit));
        let best = bounded.mean_response_s.min(unbounded.mean_response_s);
        // Adaptive should be within 15% of the better fixed policy.
        assert!(
            adaptive.mean_response_s <= best * 1.15,
            "adaptive {:.4} vs best fixed {:.4}",
            adaptive.mean_response_s,
            best
        );
    }
}

#[cfg(test)]
mod delete_tests {
    use super::*;
    use semcluster_obs::{shared, AbortCause, ChromeTraceSink, SyncBuf, TraceEvent};
    use semcluster_workload::{StructureDensity, WorkloadSpec};

    /// A write-heavy run in which half the component updates delete.
    fn deleting() -> SimConfig {
        let mut cfg = SimConfig {
            database_bytes: 1024 * 1024,
            buffer_pages: 16,
            warmup_txns: 50,
            measured_txns: 1500,
            ..SimConfig::default()
        };
        cfg.workload = WorkloadSpec::new(StructureDensity::Med5, 2.0);
        cfg.workload.delete_fraction = 0.5;
        cfg
    }

    #[test]
    fn deletions_happen_and_are_accounted() {
        let mut engine = Engine::new(deleting());
        engine.drive();
        let report = engine.report();
        assert!(
            report.objects_deleted > 0,
            "write-heavy load with delete_fraction=0.5 must delete"
        );
        // A create anchored on an object an earlier checkin deleted
        // aborts with the typed placement error; everything else commits.
        assert!(report.faults.txn_aborts > 0, "no create met a tombstone");
        assert!(report
            .abort_reasons
            .iter()
            .all(|r| r.contains("anchor no longer exists")));
        assert_eq!(
            report.txns + report.faults.txn_aborts,
            1500,
            "deletions must not wedge the engine"
        );
        let db = engine.database();
        assert!(db.object_count() > db.objects().count());
        for (kind, from, to) in db.graph().edges() {
            assert!(
                db.is_live(from) && db.is_live(to),
                "{kind} edge {from}→{to} names a tombstone"
            );
        }
    }

    /// Users whose transaction the end of the run caught in flight.
    fn in_flight(engine: &Engine) -> impl Iterator<Item = (usize, &ActiveTxn)> + '_ {
        let users = engine.users.iter().enumerate();
        users.filter_map(|(u, user)| Some((u, user.txn.as_ref()?)))
    }

    #[test]
    fn every_begun_transaction_ends_exactly_once_in_the_trace() {
        let events = shared(Vec::<TraceEvent>::new());
        let mut engine =
            Engine::with_obs(deleting(), ObsConfig::with_sink(Box::new(events.clone())));
        engine.drive();
        engine.finalize_obs();

        let mut open = std::collections::BTreeSet::new();
        let (mut commits, mut placement_aborts) = (0, 0);
        for event in events.borrow().iter() {
            match *event {
                TraceEvent::TxnBegin { txn, .. } => assert!(open.insert(txn), "{txn} began twice"),
                TraceEvent::TxnCommit { txn, .. } => {
                    commits += 1;
                    assert!(open.remove(&txn), "{txn} ended unbegun or twice");
                }
                TraceEvent::TxnAbort { txn, cause, .. } => {
                    assert!(matches!(cause, AbortCause::Placement { .. }));
                    placement_aborts += 1;
                    assert!(open.remove(&txn), "{txn} ended unbegun or twice");
                }
                _ => {}
            }
        }
        // The whole-run counters, not the report's window: the trace
        // spans the warmup too.
        let aborts = engine.registry.value(engine.counters.fault_txn_abort);
        assert_eq!(commits, engine.completed - aborts);
        assert_eq!(placement_aborts, aborts);
        assert!(engine.report().faults.txn_aborts > 0);
        // Only what the end of the run caught in flight is still open.
        assert!(open
            .into_iter()
            .eq(in_flight(&engine).map(|(_, txn)| txn.id)));
    }

    #[test]
    fn chrome_trace_closes_every_transaction_span() {
        let buf = SyncBuf::new();
        let sink = ChromeTraceSink::new(buf.clone());
        let mut engine = Engine::with_obs(deleting(), ObsConfig::with_sink(Box::new(sink)));
        engine.drive();
        engine.finalize_obs();
        assert!(engine.registry.value(engine.counters.fault_txn_abort) > 0);
        let text = String::from_utf8(buf.bytes()).unwrap();
        // Per user lane: begins minus ends.
        let mut depth = vec![0i64; engine.users.len()];
        for line in text.lines() {
            let step = if line.contains(r#""name":"txn","ph":"B""#) {
                1
            } else if line.contains(r#""name":"txn","ph":"E""#) {
                -1
            } else {
                continue;
            };
            let tid = line
                .split(r#""tid":"#)
                .nth(1)
                .expect("txn records carry a tid");
            let tid: usize = tid[..tid.find([',', '}']).unwrap()].parse().unwrap();
            depth[tid] += step;
            assert!(
                (0..=1).contains(&depth[tid]),
                "lane {tid} nests or underflows"
            );
        }
        let mut expected = vec![0i64; engine.users.len()];
        for (u, _) in in_flight(&engine) {
            expected[u] = 1;
        }
        assert_eq!(
            depth, expected,
            "a span is open on a lane with nothing in flight"
        );
    }
}

#[cfg(test)]
mod crash_tests {
    use super::*;
    use semcluster_faults::FsFaultConfig;
    use semcluster_workload::StructureDensity;

    #[test]
    fn crash_recovery_matches_commit_history() {
        let cfg = SimConfig {
            database_bytes: 1024 * 1024,
            buffer_pages: 16,
            warmup_txns: 30,
            measured_txns: 300,
            retain_log: true,
            ..SimConfig::default()
        }
        .with_workload(StructureDensity::Med5, 3.0);
        let users = cfg.users as usize;
        let root = std::env::temp_dir().join(format!("semcluster-history-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let quiet = FsFaultConfig {
            skip_physical_sync: true,
            ..FsFaultConfig::default()
        };
        let mut engine = Engine::new(cfg);
        engine
            .attach_mirror(DurableMirror::create(&root, quiet).unwrap())
            .unwrap();
        let outcome = engine.run_and_crash_at(CrashPoint::End);
        let (recovery, violations) = outcome.recover_and_verify(&root);
        std::fs::remove_dir_all(&root).unwrap();
        // Every acked commit is a winner on disk; with force-on-commit
        // nothing committed can be lost, and in-flight losers are
        // bounded by the user count.
        assert!(violations.is_empty(), "{violations:?}");
        let recovery = recovery.expect("the first recovery pass succeeded");
        assert!(recovery.winners.len() >= outcome.acked.len());
        assert!(!outcome.acked.is_empty());
        assert!(
            recovery.losers.len() <= users,
            "{} losers",
            recovery.losers.len()
        );
        assert!(recovery.redone > 0, "committed updates must be redone");
        assert!(outcome.report.writes > 0);
    }

    #[test]
    #[should_panic(expected = "retain_log")]
    fn run_and_crash_at_requires_retention() {
        let cfg = SimConfig {
            database_bytes: 512 * 1024,
            buffer_pages: 8,
            warmup_txns: 5,
            measured_txns: 10,
            ..SimConfig::default()
        };
        let _ = Engine::new(cfg).run_and_crash_at(CrashPoint::End);
    }

    #[test]
    fn percentiles_are_ordered() {
        let report = run_simulation(SimConfig {
            database_bytes: 1024 * 1024,
            buffer_pages: 16,
            warmup_txns: 30,
            measured_txns: 300,
            ..SimConfig::default()
        });
        assert!(report.p50_response_s <= report.p95_response_s);
        assert!(report.p95_response_s <= report.max_response_s);
        assert!(report.p50_response_s > 0.0);
    }
}

#[cfg(test)]
mod ledger_tests {
    use super::*;
    use semcluster_buffer::{PrefetchScope, ReplacementPolicy};
    use semcluster_clustering::{ClusteringPolicy, SplitPolicy};
    use semcluster_faults::FaultConfig;
    use semcluster_workload::{StructureDensity, WorkloadSpec};

    /// Every event source busy, under the `stress` fault preset: retries,
    /// spikes, stalls, aborts and degradation all fire.
    fn stressed() -> SimConfig {
        SimConfig {
            database_bytes: 2 * 1024 * 1024,
            buffer_pages: 24,
            warmup_txns: 100,
            measured_txns: 400,
            workload: WorkloadSpec::new(StructureDensity::Med5, 2.0),
            clustering: ClusteringPolicy::NoLimit,
            split: SplitPolicy::Linear,
            prefetch: PrefetchScope::WithinDatabase,
            replacement: ReplacementPolicy::ContextSensitive,
            faults: FaultConfig::preset("stress").expect("a preset"),
            ..SimConfig::default()
        }
    }

    /// The registry is never reset: what the report and the observed
    /// snapshot say about the measured interval is, counter by counter,
    /// the count at the end less the count where the window opened — and
    /// the window opened inside the event that completed the warm-up.
    #[test]
    fn report_and_snapshot_are_the_ledger_less_its_measurement_start() {
        let mut engine = Engine::new(stressed());
        let mut before = engine.registry.clone();
        while !engine.window.measuring {
            before = engine.registry.clone();
            assert!(engine.step_event());
        }
        let opened = engine.registry.clone();
        engine.drive();
        let (end, start, c) = (
            engine.registry.clone(),
            engine.window.counters.clone(),
            engine.counters,
        );
        let (report, obs) = engine.run_observed();
        let at_start = |id| end.value(id) - end.value_since(id, &start);
        let w = |id| end.value_since(id, &start);
        let all = [
            ("buffer.hit", c.buffer_hit),
            ("buffer.miss", c.buffer_miss),
            ("buffer.evict.dirty", c.buffer_evict_dirty),
            ("io.read.demand", c.io_read_demand),
            ("cluster.search.candidate_io", c.cluster_search_candidate_io),
            ("cluster.split", c.cluster_split),
            ("cluster.recluster.move", c.cluster_recluster_move),
            ("split.io", c.split_io),
            ("lock.wait", c.lock_wait),
            ("prefetch.issue", c.prefetch_issue),
            ("prefetch.io", c.prefetch_io),
            ("wal.flush.before_image", c.wal_flush_before_image),
            ("wal.flush.full", c.wal_flush_full),
            ("wal.flush.commit", c.wal_flush_commit),
            ("fault.io.read_error", c.fault_io_read_error),
            ("fault.io.write_error", c.fault_io_write_error),
            ("fault.io.retry", c.fault_io_retry),
            ("fault.io.spike", c.fault_io_spike),
            ("fault.log.stall", c.fault_log_stall),
            ("fault.txn.abort", c.fault_txn_abort),
            ("fault.degrade.enter", c.fault_degrade_enter),
            ("fault.degrade.exit", c.fault_degrade_exit),
        ];
        for name in end.snapshot().counters.keys() {
            assert!(all.iter().any(|&(n, _)| n == name), "{name} is not checked");
        }
        for (name, id) in all {
            assert_eq!(
                end.counter(name),
                end.value(id),
                "{name}: handle and name differ"
            );
            assert_eq!(
                obs.metrics.counter(name),
                w(id),
                "{name}: snapshot not windowed"
            );
            let s = at_start(id);
            assert!(
                (before.value(id)..=opened.value(id)).contains(&s),
                "{name}: window opened at {s}, outside the event that ended the warm-up"
            );
        }
        assert!(at_start(c.buffer_hit) > 0, "the warm-up counted nothing");
        let io = report.io;
        assert_eq!(io.data_reads, w(c.io_read_demand));
        assert_eq!(io.cluster_search_ios, w(c.cluster_search_candidate_io));
        assert_eq!(io.dirty_writebacks, w(c.buffer_evict_dirty));
        assert_eq!(io.prefetch_ios, w(c.prefetch_io));
        assert_eq!(io.split_ios, w(c.split_io));
        let log_ios = w(c.wal_flush_before_image) + w(c.wal_flush_full) + w(c.wal_flush_commit);
        assert_eq!((io.log_ios, report.log_ios), (log_ios, log_ios));
        assert_eq!(report.splits, w(c.cluster_split));
        assert_eq!(report.recluster_moves, w(c.cluster_recluster_move));
        assert_eq!(report.lock_waits, w(c.lock_wait));
        let (hits, misses) = (w(c.buffer_hit), w(c.buffer_miss));
        assert_eq!(report.hit_ratio, hits as f64 / (hits + misses) as f64);
        let f = report.faults;
        assert_eq!(f.read_errors, w(c.fault_io_read_error));
        assert_eq!(f.write_errors, w(c.fault_io_write_error));
        assert_eq!(f.retries, w(c.fault_io_retry));
        assert_eq!(f.spikes, w(c.fault_io_spike));
        assert_eq!(f.log_stalls, w(c.fault_log_stall));
        assert_eq!(f.stall_us, f.log_stalls * stressed().faults.log_stall_us);
        assert_eq!(f.txn_aborts, w(c.fault_txn_abort));
        assert_eq!(f.degrade_enters, w(c.fault_degrade_enter));
        assert_eq!(f.degrade_exits, w(c.fault_degrade_exit));
        assert!(f.spikes > 0 && f.retries > 0 && f.log_stalls > 0 && f.txn_aborts > 0);
    }

    /// The quantiles come from the registry's `txn.response_us`, which
    /// holds exactly the committed transactions the report measured,
    /// aborts and the warm-up boundary included.
    #[test]
    fn response_histogram_holds_exactly_the_reported_transactions() {
        let (report, obs) = Engine::new(stressed()).run_observed();
        assert!(report.faults.txn_aborts > 0);
        let hist = &obs.metrics.histograms["txn.response_us"];
        assert_eq!(hist.count, report.txns);
        let secs = |q| hist.quantile_bound(q) as f64 / 1e6;
        assert_eq!(report.p50_response_s, secs(0.5));
        assert_eq!(report.p95_response_s, secs(0.95));
        assert_eq!(hist.max_us as f64 / 1e6, report.max_response_s);
    }

    /// Utilisation is busy time in the measured interval over the
    /// measured span, not over the whole run: the warm-up's share of
    /// the clock is not in the denominator.
    #[test]
    fn utilisation_is_the_busy_gauges_over_the_measured_span() {
        let engine = Engine::new(SimConfig {
            faults: FaultConfig::default(),
            ..stressed()
        });
        let (report, obs) = engine.run_observed();
        let span = report.measured_span_s;
        let busy_s = |name: &str| obs.metrics.gauge(name) as f64 / 1e6;
        let disks: Vec<f64> = (0..)
            .map(|i| format!("disk.{i}.busy_us"))
            .take_while(|name| obs.metrics.gauges.contains_key(name))
            .map(|name| busy_s(&name))
            .collect();
        assert!(disks.len() > 1, "{} disks", disks.len());
        // No member is anywhere near the clamp.
        assert!(disks.iter().all(|&b| b < 0.5 * span));
        let mean_disk = disks.iter().sum::<f64>() / disks.len() as f64;
        assert!((report.disk_utilization * span - mean_disk).abs() < 1e-9);
        assert!((report.cpu_utilization * span - busy_s("cpu.busy_us")).abs() < 1e-9);
        assert!(report.cpu_utilization > 0.0 && report.disk_utilization > 0.0);
    }

    /// The timeline reads the same cumulative ledger: its per-interval
    /// deltas sum to the registry's hits, misses and aborts, and to the
    /// transactions completed, as they stood at the last sample.
    #[test]
    fn timeline_deltas_sum_to_the_ledger_at_the_last_sample() {
        let obs = ObsConfig::default().timeline(1_000_000);
        let mut engine = Engine::with_obs(stressed(), obs);
        let c = engine.counters;
        let mut at_last_sample = (0, 0, 0, 0);
        let mut due = engine.timeline.as_ref().map(TimelineSampler::next_due_us);
        while engine.step_event() {
            let next = engine.timeline.as_ref().map(TimelineSampler::next_due_us);
            if next != due {
                let aborts = engine.registry.value(c.fault_txn_abort);
                at_last_sample = (
                    engine.registry.value(c.buffer_hit),
                    engine.registry.value(c.buffer_miss),
                    engine.completed - aborts,
                    aborts,
                );
                due = next;
            }
        }
        let timeline = engine.timeline.take().expect("sampling on").into_timeline();
        let mut sums = (0, 0, 0, 0);
        for (_, p) in timeline.points() {
            sums.0 += p.hits;
            sums.1 += p.misses;
            sums.2 += p.commits;
            sums.3 += p.aborts;
        }
        assert!(
            timeline.len() > 10 && sums.3 > 0,
            "{} points",
            timeline.len()
        );
        assert_eq!(sums, at_last_sample);
    }
}
