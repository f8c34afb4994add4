//! The integrated simulation engine.
//!
//! A closed queueing network after Figure 4.1: `users` workstations with
//! exponential think times submit transactions to a file server holding
//! the buffer manager, cluster manager and log manager, backed by one CPU
//! and `disks` FCFS disks. Every logical page access can expand into 0–3
//! physical I/Os (dirty-page flush, log I/O, demand read), exactly as §4
//! describes.
//!
//! ## Model notes (documented deviations and interpretations)
//!
//! * **Initial placement reflects the policy's history.** A database that
//!   has lived under `No_Cluster` is laid out in arrival order with
//!   interleaved design activity (scattered); one that has lived under any
//!   clustering policy is affinity-placed. Run-time differences (search
//!   I/O charges, new-object placement, reclustering, splits) then play
//!   out on top, as in the paper.
//! * **Working sets.** Sessions operate on a working set seeded by a
//!   checkout (a root object and its transitive components); reads and
//!   writes target it with probability `working_set_bias`, else a uniform
//!   random object. This reproduces the locality that makes run-time
//!   clustering matter.
//! * **Prefetch is asynchronous**: prefetch I/Os load the disks but are
//!   not on the issuing transaction's critical path (§5.2's
//!   prefetch-within-database could not win otherwise).
//! * **Intra-transaction I/O is serial** (navigation is a dependency
//!   chain); I/Os of different users interleave through the shared FCFS
//!   servers.

use crate::config::SimConfig;
use crate::crash::CrashOutcome;
use crate::durable::DurableMirror;
use crate::error::EngineError;
use crate::metrics::{MetricsCollector, RunReport, SpanBreakdown};
use semcluster_buffer::{
    apply_prefetch, prefetch_group, resident_locality, Access, AccessHint, BufferPool,
    PrefetchScope, ReplacementPolicy,
};
use semcluster_clustering::{
    consider_split, execute_placement, execute_split, page_locality, plan_placement_in,
    plan_recluster_in, ClusteringPolicy, PlacementTarget, ScoreScratch, SplitPolicy, WeightModel,
};
use semcluster_faults::{CrashPoint, FaultState, IoError, IoOp};
use semcluster_lock::{LockManager, LockMode};
use semcluster_obs::{
    milli, AuditKind, AuditSink, CandidateAudit, CounterId, FaultOp, FlushCause, LogFlushKind,
    MetricsRegistry, MetricsSnapshot, NoopSink, Phase, PhaseProfiler, PhaseToken, PlacementAudit,
    ProfileReport, ReadCause, SplitVerdict, Timeline, TimelineSample, TimelineSampler, TraceEvent,
    TraceSink,
};
use semcluster_sim::{EventQueue, FcfsServer, ServerBank, SimDuration, SimRng, SimTime};
use semcluster_storage::{DiskLayout, PageId, StorageManager, StoreError, WalOp};
use semcluster_vdm::{
    derive_version, Database, NameKey, ObjectId, RelKind, SyntheticDbSpec, WalkScratch,
};
use semcluster_wal::LogManager;
use semcluster_workload::{
    sample_read_kind, sample_session_length, sample_write_shape, CreateMode, QueryKind,
    StructureDensity,
};
use std::collections::VecDeque;
use std::fmt::Write as _;

/// Maximum related pages boosted per object access under the
/// context-sensitive policy.
const CONTEXT_BOOST_FANOUT: usize = 8;

/// Working-set capacity per user.
const WORKING_SET_CAP: usize = 64;

/// Transactions remembered when estimating the run-time read/write ratio
/// for the adaptive clustering policy.
const RW_WINDOW: usize = 100;

/// Handles to every counter the engine bumps, resolved once by
/// [`engine_registry`] so a bump on a hot path is an indexed add, not a
/// search for the name.
#[derive(Debug, Clone, Copy)]
struct EngineCounters {
    buffer_hit: CounterId,
    buffer_miss: CounterId,
    buffer_evict_dirty: CounterId,
    io_read_demand: CounterId,
    cluster_search_candidate_io: CounterId,
    cluster_split: CounterId,
    cluster_recluster_move: CounterId,
    split_io: CounterId,
    lock_wait: CounterId,
    prefetch_issue: CounterId,
    prefetch_io: CounterId,
    wal_flush_before_image: CounterId,
    wal_flush_full: CounterId,
    wal_flush_commit: CounterId,
    fault_io_read_error: CounterId,
    fault_io_write_error: CounterId,
    fault_io_retry: CounterId,
    fault_log_stall: CounterId,
    fault_txn_abort: CounterId,
    fault_degrade_enter: CounterId,
    fault_degrade_exit: CounterId,
}

/// Build the engine's metrics registry with every counter the hot
/// paths bump pre-declared at zero. First-touch of a counter name
/// allocates its `String` key and possibly a tree node; declaring them
/// all here — before any profiled phase opens — keeps the zero-alloc
/// pins on the inner loops honest. Zero-valued counters are filtered
/// out of snapshots, so unfired declarations are invisible.
fn engine_registry() -> (MetricsRegistry, EngineCounters) {
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
        fault_log_stall: r.declare("fault.log.stall"),
        fault_txn_abort: r.declare("fault.txn.abort"),
        fault_degrade_enter: r.declare("fault.degrade.enter"),
        fault_degrade_exit: r.declare("fault.degrade.exit"),
    };
    (r, counters)
}

/// Map the fault layer's I/O kind onto the trace vocabulary.
fn fault_op(op: IoOp) -> FaultOp {
    match op {
        IoOp::Read => FaultOp::Read,
        IoOp::Write => FaultOp::Write,
        IoOp::Log => FaultOp::Log,
    }
}

#[derive(Debug, Clone, Copy)]
#[allow(clippy::enum_variant_names)]
enum Event {
    ThinkDone(u32),
    OpDone(u32),
    TxnDone(u32),
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Read { kind: QueryKind, root: ObjectId },
    Create { anchor: ObjectId, mode: CreateMode },
    Update { target: ObjectId },
    Delete { target: ObjectId },
}

#[derive(Debug)]
struct ActiveTxn {
    ops: Vec<Op>,
    next_op: usize,
    started: SimTime,
    is_read: bool,
    token: Option<semcluster_wal::TxnToken>,
    /// Global transaction sequence number (trace identity).
    id: u64,
    /// Exact response-time attribution accumulated so far.
    span: SpanBreakdown,
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
    /// [`PhaseProfiler`] and return the per-phase self costs in
    /// [`RunObservations::profile`]. Purely observational: the simulated
    /// results are byte-identical with profiling on or off.
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
#[derive(Default)]
pub struct RunObservations {
    /// Final metrics-registry snapshot (counters reconcile with
    /// [`RunReport::io`]).
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
    pub fn absorb(&mut self, other: RunObservations) {
        self.metrics.merge(&other.metrics);
        match (&mut self.timeline, other.timeline) {
            (Some(mine), Some(theirs)) => mine.merge(&theirs),
            (slot @ None, Some(theirs)) => *slot = Some(theirs),
            _ => {}
        }
        self.audits.extend(other.audits);
        match (&mut self.profile, other.profile) {
            (Some(mine), Some(theirs)) => mine.merge(&theirs),
            (slot @ None, Some(theirs)) => *slot = Some(theirs),
            _ => {}
        }
    }
}

/// Never-reset whole-run counters feeding the timeline sampler. These
/// are kept separate from the metrics registry, which resets when the
/// measured interval begins; the timeline spans warmup too, and its
/// per-interval deltas must not jump backwards at that boundary.
#[derive(Debug, Clone, Copy, Default)]
struct TimelineCounters {
    hits: u64,
    misses: u64,
    commits: u64,
    aborts: u64,
}

#[derive(Debug)]
struct UserState {
    session_left: u32,
    working_set: VecDeque<ObjectId>,
    txn: Option<ActiveTxn>,
    /// Transaction blocked on locks: its ops and submission time.
    parked: Option<(Vec<Op>, SimTime)>,
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
    users: Vec<UserState>,
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
    metrics: MetricsCollector,
    completed: u64,
    measuring: bool,
    measure_start: SimTime,
    create_seq: u64,
    /// Reused buffer `exec_create` formats a generated base name into.
    name_buf: String,
    disk_service: SimDuration,
    /// Named counters/gauges/histograms, reset at measurement start so
    /// snapshots reconcile with [`RunReport::io`].
    registry: MetricsRegistry,
    /// Handles to the registry's counters.
    counters: EngineCounters,
    /// Reusable traversal state and result buffer for reads and session
    /// checkouts, so neither allocates per call.
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
    /// Whole-run counters backing the timeline's per-interval deltas.
    tl: TimelineCounters,
    /// Global transaction sequence number.
    txn_seq: u64,
    /// Scratch attribution for the operation currently executing; drained
    /// into the owning transaction's span after each operation.
    cur_span: SpanBreakdown,
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
    acked_commits: Vec<semcluster_wal::TxnToken>,
    /// Tokens aborted after retry exhaustion (ground truth; only
    /// tracked with `retain_log`).
    aborted_tokens: Vec<semcluster_wal::TxnToken>,
    /// First few abort reasons, for the run report.
    abort_reasons: Vec<String>,
    /// Optional durable file-backed mirror (DESIGN.md §15). `None` in
    /// every simulated run; each hook is then a single branch, keeping
    /// the golden suites byte-identical.
    mirror: Option<DurableMirror>,
    /// Tokens whose durable commit fsync failed — must never be acked.
    mirror_failed: Vec<semcluster_wal::TxnToken>,
    /// Tokens that reached TxnDone but whose durable commit had failed;
    /// the matrix verifies these are NOT required to survive recovery.
    unacked_commits: Vec<semcluster_wal::TxnToken>,
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
        let (db, module_starts) = Self::build_database(&cfg, &mut rng);
        let weights = match cfg.hints {
            semcluster_clustering::HintPolicy::UserHints => {
                WeightModel::with_hint(cfg.session_hint)
            }
            semcluster_clustering::HintPolicy::NoHints => WeightModel::no_hints(),
        };
        let store = Self::load_database(&cfg, &db, &module_starts, &weights, &mut rng);
        let log = if cfg.retain_log {
            LogManager::with_retention(cfg.log)
        } else {
            LogManager::new(cfg.log)
        };
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
        let users = (0..cfg.users)
            .map(|_| UserState {
                session_left: 0,
                working_set: VecDeque::with_capacity(WORKING_SET_CAP),
                txn: None,
                parked: None,
            })
            .collect();
        let disk_service = SimDuration::from_micros(cfg.disk.service_us());
        let faults = FaultState::new(cfg.seed, cfg.faults.clone());
        let scratch = ScoreScratch::with_capacity(db.object_count() + 64, store.page_count() + 64);
        let mut locks = LockManager::new();
        locks.ensure_object_capacity(db.object_count() + 64);
        let queue = EventQueue::with_capacity(cfg.users as usize * 4 + 16);
        let (registry, counters) = engine_registry();
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
            users,
            rng,
            weights,
            locks,
            scratch,
            lock_requests: Vec::with_capacity(64),
            parked_fifo: VecDeque::new(),
            recent_kinds: VecDeque::with_capacity(RW_WINDOW),
            metrics: MetricsCollector::default(),
            completed: 0,
            measuring: false,
            measure_start: SimTime::ZERO,
            create_seq: 0,
            name_buf: String::new(),
            disk_service,
            registry,
            counters,
            walk: WalkScratch::default(),
            read_objects: Vec::with_capacity(WORKING_SET_CAP),
            trace: obs.sink,
            timeline: obs.timeline_interval_us.map(TimelineSampler::new),
            audit: obs.audit_capacity.map(AuditSink::with_capacity),
            profiler: obs.profile.then(PhaseProfiler::new),
            profile_report: None,
            tl: TimelineCounters::default(),
            txn_seq: 0,
            cur_span: SpanBreakdown::default(),
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
            engine.start_session(u);
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

    /// The synthetic database plus the first object id of each of its
    /// modules (contiguous id ranges, ascending).
    fn build_database(cfg: &SimConfig, rng: &mut SimRng) -> (Database, Vec<ObjectId>) {
        let (fanout, depth) = match cfg.workload.density {
            StructureDensity::Low3 => ((1usize, 3usize), 6usize),
            StructureDensity::Med5 => ((4, 9), 3),
            StructureDensity::High10 => ((10, 15), 2),
        };
        // Estimate nodes per configuration tree to size the module count.
        let mean_fanout = (fanout.0 + fanout.1) as f64 / 2.0;
        let mut tree_nodes = 1.0;
        let mut level = 1.0;
        for _ in 0..depth {
            level *= mean_fanout;
            tree_nodes += level;
        }
        let reps = 2.0;
        let version_prob = 0.2;
        let per_module = tree_nodes * reps * (1.0 + version_prob);
        let modules = ((cfg.target_objects() as f64 / per_module).round() as usize).max(1);
        let spec = SyntheticDbSpec {
            modules,
            depth,
            fanout,
            representations: vec!["layout".into(), "netlist".into()],
            correspondence_prob: 0.5,
            version_prob,
            body_bytes: (64, 512),
            seed: rng.below(u64::MAX / 2),
        };
        let (db, stats) = spec.build();
        (db, stats.module_starts)
    }

    /// The interleaved "design history" order the database was populated
    /// in: engineers work in sessions of ~`chunk` operations on one
    /// module, in random order within the module, and modules interleave.
    fn history_order(
        db: &Database,
        module_starts: &[ObjectId],
        rng: &mut SimRng,
        chunk: usize,
    ) -> Vec<ObjectId> {
        // Module `m` is the id range from `module_starts[m]` to the next
        // start (the builder's trees, then their derived versions).
        let mut modules: Vec<Vec<ObjectId>> = vec![Vec::new(); module_starts.len()];
        for obj in db.objects() {
            let m = module_starts.partition_point(|&start| start <= obj.id) - 1;
            modules[m].push(obj.id);
        }
        // Random creation order within each module.
        for members in &mut modules {
            for i in (1..members.len()).rev() {
                let j = rng.below(i as u64 + 1) as usize;
                members.swap(i, j);
            }
        }
        let mut cursors = vec![0usize; modules.len()];
        let mut pending: Vec<usize> = (0..modules.len())
            .filter(|&m| !modules[m].is_empty())
            .collect();
        let mut order = Vec::with_capacity(db.object_count());
        while !pending.is_empty() {
            let pick = rng.below(pending.len() as u64) as usize;
            let m = pending[pick];
            let start = cursors[m];
            let end = (start + chunk).min(modules[m].len());
            order.extend_from_slice(&modules[m][start..end]);
            cursors[m] = end;
            if end == modules[m].len() {
                pending.swap_remove(pick);
            }
        }
        order
    }

    /// Lay the database out as the configured policy's own history would
    /// have: full-visibility affinity placement for the I/O-capable
    /// policies, a recency-window-constrained search for
    /// `Cluster_within_Buffer`, plain arrival-order append for
    /// `No_Cluster`. The history order itself (interleaved module
    /// sessions) is the same for every policy.
    fn load_database(
        cfg: &SimConfig,
        db: &Database,
        module_starts: &[ObjectId],
        weights: &WeightModel,
        rng: &mut SimRng,
    ) -> StorageManager {
        /// FIFO window over recently touched pages — the candidate pages
        /// a within-buffer clusterer would have seen during history.
        struct RecencyWindow {
            cap: usize,
            set: semcluster_vdm::DetHashSet<PageId>,
            queue: VecDeque<PageId>,
        }
        impl RecencyWindow {
            fn touch(&mut self, page: PageId) {
                if self.set.insert(page) {
                    self.queue.push_back(page);
                    if self.queue.len() > self.cap {
                        let old = self
                            .queue
                            .pop_front()
                            .expect("recency queue is non-empty when over capacity");
                        self.set.remove(&old);
                    }
                }
            }
        }
        impl semcluster_clustering::ResidencyView for RecencyWindow {
            fn is_resident(&self, page: PageId) -> bool {
                self.set.contains(&page)
            }
        }

        let mut store = StorageManager::new(cfg.page_bytes);
        // Clustering stores keep slack on freshly filled pages so later
        // relatives can join (~30 % of the page).
        let reserve = (cfg.page_bytes - semcluster_storage::PAGE_OVERHEAD_BYTES) * 3 / 10;
        match cfg.clustering {
            ClusteringPolicy::NoCluster => {
                // Arrival-order append over the interleaved history.
                for id in Self::history_order(db, module_starts, rng, 16) {
                    let obj = db
                        .get(id)
                        .expect("seeded object ids are dense in 0..object_count");
                    store
                        .append(obj.id, obj.size_bytes())
                        .expect("append always finds or opens a page (object larger than a page would be a workload bug)");
                }
            }
            ClusteringPolicy::WithinBuffer => {
                // The same interleaved history, but the candidate search
                // only ever saw the recency window of buffered pages.
                let mut window = RecencyWindow {
                    cap: cfg.buffer_pages,
                    set: semcluster_vdm::DetHashSet::default(),
                    queue: VecDeque::new(),
                };
                let mut scratch = ScoreScratch::with_capacity(db.object_count(), 0);
                for id in Self::history_order(db, module_starts, rng, 16) {
                    let size = db
                        .get(id)
                        .expect("seeded object ids are dense in 0..object_count")
                        .size_bytes();
                    let plan = plan_placement_in(
                        db,
                        &store,
                        &window,
                        ClusteringPolicy::WithinBuffer,
                        weights,
                        id,
                        size,
                        &mut scratch,
                    );
                    let landed = match plan.target {
                        PlacementTarget::Existing(page) => {
                            store.place(id, size, page).expect("placement plan verified the page had room when it was drawn");
                            page
                        }
                        PlacementTarget::Append => store
                            .append_reserving(id, size, reserve)
                            .expect("append always finds or opens a page (object larger than a page would be a workload bug)"),
                    };
                    scratch.put_examined(plan.examined);
                    window.touch(landed);
                }
            }
            ClusteringPolicy::IoLimit(_)
            | ClusteringPolicy::NoLimit
            | ClusteringPolicy::Adaptive => {
                // Unbounded search plus months of run-time reclustering
                // converge on relationship-order placement; load in
                // structure order with full visibility.
                let mut scratch = ScoreScratch::with_capacity(db.object_count(), 0);
                for obj_id in 0..db.object_count() {
                    let id = ObjectId(obj_id as u32);
                    let size = db
                        .get(id)
                        .expect("seeded object ids are dense in 0..object_count")
                        .size_bytes();
                    let plan = plan_placement_in(
                        db,
                        &store,
                        &semcluster_clustering::AllResident,
                        ClusteringPolicy::NoLimit,
                        weights,
                        id,
                        size,
                        &mut scratch,
                    );
                    let landed = match plan.target {
                        PlacementTarget::Existing(page) => {
                            store.place(id, size, page).expect("placement plan verified the page had room when it was drawn");
                            page
                        }
                        PlacementTarget::Append => store
                            .append_reserving(id, size, reserve)
                            .expect("append always finds or opens a page (object larger than a page would be a workload bug)"),
                    };
                    scratch.put_examined(plan.examined);
                    let _ = landed;
                }
            }
        }
        store
    }

    // ----------------------------------------------------------- running

    /// Run to completion (warmup + measured transactions) and report.
    pub fn run(self) -> RunReport {
        self.run_observed().0
    }

    /// Run to completion, returning the report plus everything the
    /// observability layer collected (metrics snapshot — its counters
    /// reconcile with [`RunReport::io`] — timeline, placement audits).
    pub fn run_observed(mut self) -> (RunReport, RunObservations) {
        self.drive();
        self.finalize_obs();
        let report = self.report();
        let obs = RunObservations {
            metrics: self.registry.snapshot(),
            timeline: self.timeline.take().map(TimelineSampler::into_timeline),
            audits: self
                .audit
                .take()
                .map(AuditSink::into_records)
                .unwrap_or_default(),
            profile: self.profile_report.take(),
        };
        (report, obs)
    }

    /// Live view of the metrics registry (for tests and embedding).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Open a profiled phase. One branch when profiling is off.
    #[inline]
    fn prof_enter(&mut self, phase: Phase) -> Option<PhaseToken> {
        self.profiler.as_mut().map(|p| p.enter(phase))
    }

    /// Close a profiled phase, attributing `sim_us` of simulated self
    /// cost to it.
    #[inline]
    fn prof_exit(&mut self, token: Option<PhaseToken>, sim_us: u64) {
        if let Some(token) = token {
            self.profiler
                .as_mut()
                .expect("a live token implies a live profiler")
                .exit(token, sim_us);
        }
    }

    /// Stamp end-of-run utilisation gauges and flush the trace sink.
    fn finalize_obs(&mut self) {
        for i in 0..self.disks.len() {
            let busy = self.disks.member(i).busy_time().as_micros();
            self.registry
                .set_gauge(&format!("disk.{i}.busy_us"), busy as i64);
        }
        self.registry.set_gauge(
            "log_disk.busy_us",
            self.log_disk.busy_time().as_micros() as i64,
        );
        self.registry
            .set_gauge("cpu.busy_us", self.cpu.busy_time().as_micros() as i64);
        self.registry.set_gauge(
            "lock.wait_us",
            self.metrics.lock_wait_time.as_micros() as i64,
        );
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

    /// Run until `point` fires (or to completion for
    /// [`CrashPoint::End`]), simulate a server crash there, replay
    /// recovery over the durable log, and return the full
    /// [`CrashOutcome`] — including the engine's ground truth
    /// (acknowledged commits, in-flight and aborted transactions) so
    /// ACID invariants can be checked against what the clients actually
    /// observed. Winners are exactly the committed transactions, losers
    /// are in-flight ones whose records spilled before the crash.
    /// Requires `cfg.retain_log`.
    ///
    /// A [`CrashPoint::MidFlush`] crash tears the log record that was
    /// being written; recovery truncates it (commit is only
    /// acknowledged after its force completes, so a torn record never
    /// belongs to an acknowledged transaction).
    pub fn run_and_crash_at(mut self, point: CrashPoint) -> CrashOutcome {
        assert!(
            self.cfg.retain_log,
            "run_and_crash_at requires cfg.retain_log = true"
        );
        self.crash_point = point;
        self.drive();
        self.finalize_obs();
        let report = self.report();
        let in_flight: Vec<semcluster_wal::TxnToken> = self
            .users
            .iter()
            .filter_map(|u| u.txn.as_ref().and_then(|t| t.token))
            .collect();
        let durable = match point {
            CrashPoint::MidFlush(_) => self.log.crash_torn(),
            _ => self.log.crash(),
        };
        let recovery = semcluster_wal::recover(&durable);
        let file = self
            .mirror
            .take()
            .map(|m| m.crash(matches!(point, CrashPoint::MidFlush(_))));
        CrashOutcome {
            point,
            report,
            durable,
            recovery,
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
    fn mirror_op(&mut self, token: semcluster_wal::TxnToken, op: WalOp) {
        if let Some(m) = self.mirror.as_mut() {
            m.op(token.raw(), op);
        }
    }

    fn drive(&mut self) {
        while self.step_event() {}
    }

    /// Process exactly one simulation event. Returns `false` when the
    /// run is over: the transaction target was reached, the event queue
    /// drained, or a crash point fired. This is the single loop body
    /// behind [`Engine::drive`] **and** the serialized stepping API
    /// ([`Engine::step_transaction`]) — both paths execute the identical
    /// event sequence, which is what makes the simulator a byte-exact
    /// oracle for the wire-protocol server's serialized mode.
    fn step_event(&mut self) -> bool {
        let target = self.cfg.warmup_txns + self.cfg.measured_txns;
        if self.completed >= target {
            return false;
        }
        {
            let tok = self.prof_enter(Phase::EventPop);
            let popped = self.queue.pop();
            self.prof_exit(tok, 0);
            let Some((now, ev)) = popped else {
                return false; // all users idle — cannot happen in a closed network
            };
            // Pre-grow every dense index outside the profiled phases so
            // in-phase self-growth (which would charge its allocation to
            // the phase it happens in) never fires: the headroom covers
            // every object/page a single event can create.
            let obj_cap = self.db.object_count() + 64;
            let page_cap = self.store.page_count() + 64;
            self.scratch.ensure_capacity(obj_cap, page_cap);
            self.pool.ensure_page_capacity(page_cap);
            self.locks.ensure_object_capacity(obj_cap);
            match ev {
                Event::ThinkDone(u) => self.on_think_done(u, now),
                Event::OpDone(u) => self.on_op_done(u, now),
                Event::TxnDone(u) => self.on_txn_done(u, now),
            }
            self.events_seen += 1;
            self.sample_timeline(now);
            match self.crash_point {
                CrashPoint::Event(k) if self.events_seen >= k => self.crash_pending = true,
                CrashPoint::Lsn(k) if self.log.current_lsn() >= k => self.crash_pending = true,
                _ => {}
            }
            if let Some(m) = &self.mirror {
                // The fs fault layer pulled the plug at an injected
                // syscall boundary: stop at this event boundary too.
                if m.crashed() {
                    self.crash_pending = true;
                }
            }
        }
        // Crash point fired: stop at this event boundary.
        !self.crash_pending
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

    /// Record a timeline point for every interval boundary simulated
    /// time has crossed since the last sample. Pure observation: reads
    /// engine state, touches no RNG, schedules nothing — with sampling
    /// off this is one branch.
    fn sample_timeline(&mut self, now: SimTime) {
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
            // The locality fold is pinned allocation-free by the profile
            // golden; nothing else may creep inside this bracket.
            let ptok = self.prof_enter(Phase::PageLocality);
            let (loc_on_page, loc_refs) = resident_locality(&self.pool, |page| {
                page_locality(&self.db, &self.store, page)
            });
            self.prof_exit(ptok, 0);
            sampler.record(TimelineSample {
                hits: self.tl.hits,
                misses: self.tl.misses,
                commits: self.tl.commits,
                aborts: self.tl.aborts,
                queue_us,
                log_buffered: self.log.buffered_bytes() as u64,
                loc_on_page,
                loc_refs,
            });
        }
        self.timeline = Some(sampler);
        self.prof_exit(tok, 0);
    }

    fn report(&self) -> RunReport {
        let now = self.queue.now();
        let span = now - self.measure_start;
        let mut report = RunReport::new(
            self.cfg.label(),
            &self.metrics,
            self.pool.stats(),
            self.log.stats(),
            self.disks.mean_utilization(now),
            self.cpu.utilization(now),
            span,
        );
        report.breakdown.think_s = self.cfg.think_time.as_secs_f64();
        report.faults_enabled = self.faults.enabled();
        report.faults = self.faults.stats;
        report.abort_reasons = self.abort_reasons.clone();
        report
    }

    fn on_think_done(&mut self, u: u32, now: SimTime) {
        let ops = self.generate_ops(u);
        if self.cfg.locking && !self.try_lock(u, &ops) {
            // Conservative pre-declaration failed: park until a release.
            self.users[u as usize].parked = Some((ops, now));
            self.parked_fifo.push_back(u);
            self.metrics.lock_waits += 1;
            self.registry.bump(self.counters.lock_wait);
            if self.trace.enabled() {
                self.trace.emit(&TraceEvent::LockWait { at: now, user: u });
            }
            return;
        }
        self.begin_txn(u, ops, now, now);
    }

    /// Start a transaction whose locks are held. `submitted` is when the
    /// user submitted it (response time includes any lock wait).
    fn begin_txn(&mut self, u: u32, ops: Vec<Op>, submitted: SimTime, now: SimTime) {
        let is_read = ops.iter().all(|op| matches!(op, Op::Read { .. }));
        let token = if is_read {
            None
        } else {
            Some(self.log.begin())
        };
        self.txn_seq += 1;
        let id = self.txn_seq;
        // Any gap between submission and lock grant is the lock-wait
        // component of the transaction's response time.
        let span = SpanBreakdown {
            lock_wait_us: now.since(submitted).as_micros(),
            ..SpanBreakdown::default()
        };
        if self.trace.enabled() {
            self.trace.emit(&TraceEvent::TxnBegin {
                at: now,
                user: u,
                txn: id,
                is_read,
                ops: ops.len() as u32,
            });
        }
        self.users[u as usize].txn = Some(ActiveTxn {
            ops,
            next_op: 0,
            started: submitted,
            is_read,
            token,
            id,
            span,
        });
        self.run_next_op(u, now);
    }

    /// Hierarchical conservative lock acquisition for a transaction's
    /// pre-declared object set.
    fn try_lock(&mut self, u: u32, ops: &[Op]) -> bool {
        let tok = self.prof_enter(Phase::LockAcquire);
        let mut requests = std::mem::take(&mut self.lock_requests);
        requests.clear();
        for op in ops {
            let (object, mode) = match *op {
                Op::Read { root, .. } => (root, LockMode::Shared),
                Op::Create { anchor, .. } => (anchor, LockMode::Exclusive),
                Op::Update { target } | Op::Delete { target } => (target, LockMode::Exclusive),
            };
            LockManager::hierarchical_lockset_into(&self.db, object, mode, &mut requests);
        }
        let granted = self
            .locks
            .try_acquire_all(semcluster_lock::TxnId(u as u64), &requests);
        self.lock_requests = requests;
        // Lock acquisition is instantaneous in simulated time (any wait
        // is charged to the parked transaction, not this phase).
        self.prof_exit(tok, 0);
        granted
    }

    fn on_op_done(&mut self, u: u32, now: SimTime) {
        let txn = self.users[u as usize].txn.as_ref().expect(
            "user owns a transaction in flight (op/txn events only fire for active transactions)",
        );
        if txn.next_op < txn.ops.len() {
            self.run_next_op(u, now);
        } else {
            // Commit.
            let token = txn.token;
            let mut done = now;
            if let Some(token) = token {
                let ios = self.log.commit(token);
                self.commits_seen += 1;
                if let Some(m) = self.mirror.as_mut() {
                    // The durable commit force is the acknowledgement
                    // gate: a failed fsync (fsyncgate) means the token
                    // must never be acked, and is never retried.
                    if !m.commit(token.raw()) {
                        self.mirror_failed.push(token);
                    }
                }
                if let CrashPoint::Commit(k) = self.crash_point {
                    if self.commits_seen == k {
                        self.crash_pending = true;
                    }
                }
                for _ in 0..ios {
                    done = self.submit_log_io(done, LogFlushKind::Commit);
                }
            }
            // The commit force is part of the transaction's log component.
            let commit_span = std::mem::take(&mut self.cur_span);
            self.users[u as usize]
                .txn
                .as_mut()
                .expect("user owns a transaction in flight (op/txn events only fire for active transactions)")
                .span
                .add(&commit_span);
            self.queue.schedule(done, Event::TxnDone(u));
        }
    }

    fn on_txn_done(&mut self, u: u32, now: SimTime) {
        let txn = self.users[u as usize].txn.take().expect(
            "user owns a transaction in flight (op/txn events only fire for active transactions)",
        );
        let response = now.since(txn.started);
        // Every microsecond of response time is attributed to exactly one
        // component: the op chain only ever advances through the charge_*
        // helpers, which account each advance as they make it.
        debug_assert_eq!(
            txn.span.total_us(),
            response.as_micros(),
            "span components must sum exactly to the response time"
        );
        self.registry
            .observe("txn.response_us", response.as_micros());
        if self.trace.enabled() {
            self.trace.emit(&TraceEvent::TxnCommit {
                at: now,
                user: u,
                txn: txn.id,
                response_us: response.as_micros(),
                cpu_us: txn.span.cpu_us,
                data_read_us: txn.span.data_read_us,
                dirty_flush_us: txn.span.dirty_flush_us,
                cluster_search_us: txn.span.cluster_search_us,
                log_us: txn.span.log_us,
                lock_wait_us: txn.span.lock_wait_us,
            });
        }
        if self.cfg.retain_log {
            // This is the moment the client sees the commit: durable by
            // construction (the force completed before TxnDone was
            // scheduled), so recovery must never lose it.
            if let Some(token) = txn.token {
                if self.mirror_failed.contains(&token) {
                    // The durable backend could not force this commit:
                    // the simulation proceeds, but the client was never
                    // acknowledged — recovery owes it nothing.
                    self.unacked_commits.push(token);
                } else {
                    self.acked_commits.push(token);
                }
            }
        }
        self.observe_degradation(txn.span.cluster_search_us, now);
        if self.cfg.locking {
            self.locks.release_all(semcluster_lock::TxnId(u as u64));
            self.wake_parked(now);
        }
        if self.recent_kinds.len() == RW_WINDOW {
            self.recent_kinds.pop_front();
        }
        self.recent_kinds.push_back(txn.is_read);
        self.tl.commits += 1;
        if self.measuring {
            self.metrics.record_txn(response, txn.is_read, txn.span);
        }
        self.completed += 1;
        if !self.measuring && self.completed >= self.cfg.warmup_txns {
            self.begin_measurement(now);
        }
        let user = &mut self.users[u as usize];
        user.session_left = user.session_left.saturating_sub(1);
        if user.session_left == 0 {
            self.start_session(u);
        }
        let think = self.rng.exp_duration(self.cfg.think_time);
        self.queue.schedule(now + think, Event::ThinkDone(u));
    }

    /// Retry parked transactions in FIFO order; each success starts its
    /// transaction at `now` (the lock wait is inside its response time).
    fn wake_parked(&mut self, now: SimTime) {
        let mut still_parked = VecDeque::new();
        while let Some(u) = self.parked_fifo.pop_front() {
            let Some((ops, submitted)) = self.users[u as usize].parked.take() else {
                continue;
            };
            if self.try_lock(u, &ops) {
                if self.measuring {
                    self.metrics.lock_wait_time += now - submitted;
                }
                if self.trace.enabled() {
                    self.trace.emit(&TraceEvent::LockGrant {
                        at: now,
                        user: u,
                        wait_us: now.since(submitted).as_micros(),
                    });
                }
                self.begin_txn(u, ops, submitted, now);
            } else {
                self.users[u as usize].parked = Some((ops, submitted));
                still_parked.push_back(u);
            }
        }
        self.parked_fifo = still_parked;
    }

    fn begin_measurement(&mut self, now: SimTime) {
        self.measuring = true;
        self.measure_start = now;
        self.metrics = MetricsCollector::default();
        // Counters restart with the measured interval so the final
        // snapshot reconciles with the RunReport's I/O breakdown.
        self.registry.reset();
        self.pool.reset_stats();
        self.log.reset_stats();
        self.disks.reset_stats();
        self.cpu.reset_stats();
        self.log_disk.reset_stats();
        self.faults.reset_stats();
        self.abort_reasons.clear();
    }

    /// Feed a finished transaction's cluster-search time into the
    /// graceful-degradation window; record any mode transition.
    fn observe_degradation(&mut self, search_us: u64, now: SimTime) {
        if let Some(entered) = self.faults.observe_txn_search(search_us) {
            self.registry.bump(if entered {
                self.counters.fault_degrade_enter
            } else {
                self.counters.fault_degrade_exit
            });
            if self.trace.enabled() {
                self.trace.emit(&TraceEvent::Degrade { at: now, entered });
            }
        }
    }

    /// Abort the transaction in flight for user `u` after a run-path
    /// failure (retry exhaustion): write an abort record, release
    /// locks, and send the user back to thinking. The simulation keeps
    /// going — a fault aborts one transaction, not the run.
    ///
    /// Aborted transactions are *not* recorded in the response metrics
    /// (reports describe committed work); their count and reasons are
    /// reported separately via [`RunReport::faults`].
    fn abort_txn(&mut self, u: u32, err: EngineError, now: SimTime) {
        let txn = self.users[u as usize].txn.take().expect(
            "user owns a transaction in flight (op/txn events only fire for active transactions)",
        );
        let response = now.since(txn.started);
        // The failed op charged its waits (attempts + backoff) as they
        // accrued, so attribution still sums exactly; only the CPU tail
        // of the aborted op is abandoned.
        debug_assert_eq!(
            txn.span.total_us(),
            response.as_micros(),
            "abort-time span components must sum exactly to the elapsed response"
        );
        if let Some(token) = txn.token {
            self.log.abort(token);
            if let Some(m) = self.mirror.as_mut() {
                m.abort(token.raw());
            }
            if self.cfg.retain_log {
                self.aborted_tokens.push(token);
            }
        }
        self.faults.stats.txn_aborts += 1;
        self.registry.bump(self.counters.fault_txn_abort);
        self.tl.aborts += 1;
        if self.abort_reasons.len() < 8 {
            self.abort_reasons.push(err.to_string());
        }
        if self.trace.enabled() {
            if let EngineError::Io(e) = &err {
                self.trace.emit(&TraceEvent::TxnAbort {
                    at: now,
                    user: u,
                    txn: txn.id,
                    op: fault_op(e.op),
                    page: PageId(e.page),
                    disk: e.disk,
                });
            }
        }
        self.observe_degradation(txn.span.cluster_search_us, now);
        if self.cfg.locking {
            self.locks.release_all(semcluster_lock::TxnId(u as u64));
            self.wake_parked(now);
        }
        if self.recent_kinds.len() == RW_WINDOW {
            self.recent_kinds.pop_front();
        }
        self.recent_kinds.push_back(txn.is_read);
        // Counts toward run progress (the closed network must not wedge)
        // but not toward the measured response statistics.
        self.completed += 1;
        if !self.measuring && self.completed >= self.cfg.warmup_txns {
            self.begin_measurement(now);
        }
        let user = &mut self.users[u as usize];
        user.session_left = user.session_left.saturating_sub(1);
        if user.session_left == 0 {
            self.start_session(u);
        }
        let think = self.rng.exp_duration(self.cfg.think_time);
        self.queue.schedule(now + think, Event::ThinkDone(u));
    }

    // ------------------------------------------------- session & targets

    fn start_session(&mut self, u: u32) {
        let len = sample_session_length(&self.cfg.workload, &mut self.rng);
        // Seed the working set with a checkout: a random root plus its
        // transitive components.
        let root = self.pick_uniform();
        let seed = &mut self.read_objects;
        seed.clear();
        seed.push(root);
        self.db
            .graph()
            .transitive_components(root, 8, &mut self.walk, seed);
        let user = &mut self.users[u as usize];
        user.session_left = len;
        user.working_set.clear();
        user.working_set.extend(seed.iter().copied());
    }

    fn pick_uniform(&mut self) -> ObjectId {
        ObjectId(self.rng.below(self.db.object_count() as u64) as u32)
    }

    fn remember(&mut self, u: u32, obj: ObjectId) {
        let ws = &mut self.users[u as usize].working_set;
        if ws.len() == WORKING_SET_CAP {
            ws.pop_front();
        }
        ws.push_back(obj);
    }

    fn pick_target(&mut self, u: u32) -> ObjectId {
        let ws_len = self.users[u as usize].working_set.len();
        if ws_len > 0 && self.rng.chance(self.cfg.working_set_bias) {
            let i = self.rng.below(ws_len as u64) as usize;
            self.users[u as usize].working_set[i]
        } else {
            self.pick_uniform()
        }
    }

    /// Pick a read root that actually has components (for composite
    /// retrieval the paper's structure density is a property of composite
    /// objects).
    fn pick_composite(&mut self, u: u32) -> ObjectId {
        for _ in 0..8 {
            let cand = self.pick_target(u);
            if self.db.graph().downward_fanout(cand) > 0 {
                return cand;
            }
            // Walking up from a leaf finds its composite.
            if let Some(&up) = self.db.graph().composites(cand).first() {
                return up;
            }
        }
        self.pick_target(u)
    }

    fn generate_ops(&mut self, u: u32) -> Vec<Op> {
        let spec = match &self.cfg.phases {
            Some(schedule) => schedule.spec_at(self.completed).clone(),
            None => self.cfg.workload.clone(),
        };
        if self.rng.chance(spec.read_probability()) {
            let kind = sample_read_kind(&mut self.rng);
            let root = match kind {
                QueryKind::CompositeRetrieval => self.pick_composite(u),
                _ => self.pick_target(u),
            };
            vec![Op::Read { kind, root }]
        } else {
            // A write transaction is a checkin: every mutation targets one
            // anchor's neighbourhood (§4.1 — "a checkin operation invokes
            // some object insertions and updating"). Under clustering the
            // touched objects share pages, which is what lets the log
            // manager coalesce before-images (Figure 5.5).
            let anchor = self.pick_target(u);
            let shape = sample_write_shape(&spec, &mut self.rng);
            shape
                .into_iter()
                .map(|create| match create {
                    Some(mode) => Op::Create { anchor, mode },
                    None => {
                        let comps = self.db.graph().components(anchor);
                        let target = if comps.is_empty() {
                            anchor
                        } else {
                            let i = self.rng.below(comps.len() as u64 + 1) as usize;
                            if i == comps.len() {
                                anchor
                            } else {
                                comps[i]
                            }
                        };
                        // A checkin occasionally removes an obsolete
                        // component instead of updating it.
                        if target != anchor && self.rng.chance(spec.delete_fraction) {
                            Op::Delete { target }
                        } else {
                            Op::Update { target }
                        }
                    }
                })
                .collect()
        }
    }

    // ------------------------------------------------------ op execution

    fn run_next_op(&mut self, u: u32, now: SimTime) {
        let txn = self.users[u as usize].txn.as_mut().expect(
            "user owns a transaction in flight (op/txn events only fire for active transactions)",
        );
        let op = txn.ops[txn.next_op];
        txn.next_op += 1;
        let token = txn.token;
        let done = match op {
            Op::Read { kind, root } => self.exec_read(u, kind, root, now),
            Op::Create { anchor, mode } => {
                let token = token
                    .expect("write txn holds a log token (invariant: non-read txns begin one)");
                self.exec_create(u, anchor, mode, token, now)
            }
            Op::Update { target } => {
                let token = token
                    .expect("write txn holds a log token (invariant: non-read txns begin one)");
                self.exec_update(u, target, token, now)
            }
            Op::Delete { target } => {
                let token = token
                    .expect("write txn holds a log token (invariant: non-read txns begin one)");
                self.exec_delete(target, token, now)
            }
        };
        // Drain this operation's attribution into the owning transaction
        // (on failure too — the waits up to the failure were real).
        let op_span = std::mem::take(&mut self.cur_span);
        self.users[u as usize]
            .txn
            .as_mut()
            .expect("user owns a transaction in flight (op/txn events only fire for active transactions)")
            .span
            .add(&op_span);
        match done {
            Ok(done) => self.queue.schedule(done.max(now), Event::OpDone(u)),
            Err(err) => {
                let at = match &err {
                    EngineError::Io(e) => SimTime::from_micros(e.at_us),
                    EngineError::Placement { .. } => now,
                };
                self.abort_txn(u, err, at.max(now));
            }
        }
    }

    /// The clustering policy in force right now (resolves `Adaptive`
    /// against the observed read/write ratio of the last transactions).
    /// Under graceful degradation the candidate search is suspended:
    /// placement falls back to plain append until the cluster-search
    /// budget recovers.
    fn effective_clustering(&self) -> ClusteringPolicy {
        if self.faults.degraded() {
            return ClusteringPolicy::NoCluster;
        }
        if self.cfg.clustering != ClusteringPolicy::Adaptive {
            return self.cfg.clustering;
        }
        let reads = self.recent_kinds.iter().filter(|&&r| r).count() as f64;
        let writes = (self.recent_kinds.len() as f64 - reads).max(1.0);
        self.cfg.clustering.resolve_adaptive(reads / writes)
    }

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

    /// Run one disk I/O with fault injection: degraded/spike service
    /// multipliers per attempt, transient failures from the fault plan,
    /// and bounded retry with deterministic backoff charged in
    /// simulated time. Returns the completion time of the successful
    /// attempt, or the [`IoError`] after the budget is exhausted. Every
    /// failed attempt still occupies the disk for its full (possibly
    /// spiked) service time. With an inert fault config this reduces
    /// exactly to one `submit_to` call.
    fn faulty_disk_io(
        &mut self,
        op: IoOp,
        page: PageId,
        d: usize,
        mut t: SimTime,
    ) -> Result<SimTime, IoError> {
        let retry = self.faults.retry();
        let max_attempts = retry.max_attempts.max(1);
        let mut attempt = 1u32;
        loop {
            let mult = self.faults.service_mult(d as u32);
            let done = self.disks.submit_to(d, t, self.disk_service.times(mult));
            let failed = match op {
                IoOp::Read => self.faults.read_fails(d as u32),
                IoOp::Write => self.faults.write_fails(d as u32),
                IoOp::Log => unreachable!("log I/O stalls, it does not fail"),
            };
            if !failed {
                return Ok(done);
            }
            self.registry.bump(match op {
                IoOp::Read => self.counters.fault_io_read_error,
                IoOp::Write => self.counters.fault_io_write_error,
                IoOp::Log => unreachable!(),
            });
            if self.trace.enabled() {
                self.trace.emit(&TraceEvent::IoFault {
                    at: done,
                    op: fault_op(op),
                    page,
                    disk: d as u32,
                    attempt,
                });
            }
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
            self.faults.stats.retries += 1;
            self.registry.bump(self.counters.fault_io_retry);
            if self.trace.enabled() {
                self.trace.emit(&TraceEvent::IoRetry {
                    at: t,
                    op: fault_op(op),
                    page,
                    disk: d as u32,
                    attempt,
                    backoff_us: backoff,
                });
            }
        }
    }

    /// Fault `page` through the pool, chaining any physical I/O after `t`.
    /// Returns the time the page is available. `cause` decides whether the
    /// read is a demand read or a clustering-search read — the two are
    /// charged to different response components and counters. Under fault
    /// injection the read may retry with backoff (all of it charged to
    /// the same component) or fail the owning transaction.
    fn charge_access(
        &mut self,
        page: PageId,
        t: SimTime,
        cause: ReadCause,
    ) -> Result<SimTime, EngineError> {
        let tok = self.prof_enter(Phase::BufferLookup);
        match self.pool.access(page) {
            Access::Hit => {
                self.registry.bump(self.counters.buffer_hit);
                self.tl.hits += 1;
                self.prof_exit(tok, 0);
                Ok(t)
            }
            Access::Miss { evicted_dirty } => {
                self.registry.bump(self.counters.buffer_miss);
                self.tl.misses += 1;
                let issued = t;
                let mut ios = 1u32;
                let mut t = t;
                if let Some(victim) = evicted_dirty {
                    match self.charge_flush(victim, t, FlushCause::Evict) {
                        Ok(done) => t = done,
                        Err(e) => {
                            // Failed write-back aborts the access; the
                            // phase still closes (its span was already
                            // charged to the transaction by charge_flush).
                            self.prof_exit(tok, 0);
                            return Err(e);
                        }
                    }
                    ios += 1;
                }
                let d = self.layout.disk_of(page) as usize;
                let read_issued = t;
                let outcome = self.faulty_disk_io(IoOp::Read, page, d, t);
                let end = match &outcome {
                    Ok(done) => *done,
                    Err(e) => SimTime::from_micros(e.at_us),
                };
                // The whole retry saga (attempts + backoff) is read wait,
                // charged even when the I/O ultimately fails — the
                // transaction really did spend that time.
                let wait = end.since(read_issued).as_micros();
                match cause {
                    ReadCause::Demand => {
                        self.metrics.io.data_reads += 1;
                        self.registry.bump(self.counters.io_read_demand);
                        self.cur_span.data_read_us += wait;
                    }
                    ReadCause::ClusterSearch => {
                        self.metrics.io.cluster_search_ios += 1;
                        self.registry
                            .bump(self.counters.cluster_search_candidate_io);
                        self.cur_span.cluster_search_us += wait;
                    }
                }
                // Phase self cost covers the whole miss expansion
                // (eviction write-back + read wait), even when the read
                // ultimately fails — close before the `?` propagates.
                self.prof_exit(tok, end.since(issued).as_micros());
                let t = outcome?;
                if self.trace.enabled() {
                    self.trace.emit(&TraceEvent::IoExpand {
                        at: issued,
                        page,
                        ios,
                    });
                    self.trace.emit(&TraceEvent::PageRead {
                        at: read_issued,
                        page,
                        disk: d as u32,
                        cause,
                        done: t,
                    });
                }
                Ok(t)
            }
        }
    }

    /// Write a dirty page back on the transaction's critical path.
    fn charge_flush(
        &mut self,
        page: PageId,
        t: SimTime,
        cause: FlushCause,
    ) -> Result<SimTime, EngineError> {
        if self.mirror.is_some() {
            // Stealing a dirty page to disk: the mirror forces a page
            // snapshot into the WAL first (so a torn page write is
            // always repairable), then performs the real write + fsync.
            let slots: Vec<(u32, u32)> = self
                .store
                .objects_on(page)
                .map(|objs| objs.iter().map(|&(o, s)| (o.0, s)).collect())
                .unwrap_or_default();
            if let Some(m) = self.mirror.as_mut() {
                m.steal(page.0, &slots);
            }
        }
        let d = self.layout.disk_of(page) as usize;
        let outcome = self.faulty_disk_io(IoOp::Write, page, d, t);
        let end = match &outcome {
            Ok(done) => *done,
            Err(e) => SimTime::from_micros(e.at_us),
        };
        self.cur_span.dirty_flush_us += end.since(t).as_micros();
        let done = outcome?;
        match cause {
            FlushCause::Evict => {
                self.metrics.io.dirty_writebacks += 1;
                self.registry.bump(self.counters.buffer_evict_dirty);
            }
            FlushCause::Split => {
                self.metrics.io.split_ios += 1;
                self.registry.bump(self.counters.split_io);
            }
            FlushCause::Prefetch => unreachable!("prefetch write-backs are asynchronous"),
        }
        if self.trace.enabled() {
            self.trace.emit(&TraceEvent::PageFlush {
                at: t,
                page,
                disk: d as u32,
                cause,
                done,
            });
        }
        Ok(done)
    }

    /// Admit a page the engine just created (no disk image yet).
    fn charge_install(&mut self, page: PageId, mut t: SimTime) -> Result<SimTime, EngineError> {
        if let Some(victim) = self.pool.install(page) {
            t = self.charge_flush(victim, t, FlushCause::Evict)?;
        }
        Ok(t)
    }

    /// One physical log-device I/O of the given kind, chained after `t`.
    /// Log I/O never fails (the device is redundant in the model) but an
    /// injected stall can delay it; the stall is charged to the log
    /// component in simulated time.
    fn submit_log_io(&mut self, t: SimTime, kind: LogFlushKind) -> SimTime {
        let tok = self.prof_enter(Phase::WalFlush);
        self.log_flushes_seen += 1;
        if let CrashPoint::MidFlush(k) = self.crash_point {
            if self.log_flushes_seen == k {
                self.crash_pending = true;
            }
        }
        let stall = self.faults.log_stall_us();
        let issue = if stall > 0 {
            self.registry.bump(self.counters.fault_log_stall);
            if self.trace.enabled() {
                self.trace.emit(&TraceEvent::LogStall {
                    at: t,
                    stall_us: stall,
                });
            }
            t + SimDuration::from_micros(stall)
        } else {
            t
        };
        let done = self.log_disk.submit(issue, self.disk_service);
        self.metrics.io.log_ios += 1;
        self.registry.bump(match kind {
            LogFlushKind::BeforeImage => self.counters.wal_flush_before_image,
            LogFlushKind::Full => self.counters.wal_flush_full,
            LogFlushKind::Commit => self.counters.wal_flush_commit,
        });
        self.cur_span.log_us += done.since(t).as_micros();
        self.prof_exit(tok, done.since(t).as_micros());
        if self.trace.enabled() {
            self.trace.emit(&TraceEvent::LogFlush { at: t, kind, done });
        }
        done
    }

    /// Log an update and charge the physical log I/Os it caused
    /// (first-touch before-image and/or log-buffer wraps).
    fn charge_log(
        &mut self,
        token: semcluster_wal::TxnToken,
        page: PageId,
        bytes: u32,
        mut t: SimTime,
    ) -> SimTime {
        let tok = self.prof_enter(Phase::WalAppend);
        let io = self.log.log_update_detail(token, page, bytes);
        if io.before_image {
            t = self.submit_log_io(t, LogFlushKind::BeforeImage);
        }
        for _ in 0..io.wrap_flushes {
            t = self.submit_log_io(t, LogFlushKind::Full);
        }
        // Physical flush time nests under `wal_flush`; the append itself
        // is bookkeeping with zero simulated self cost.
        self.prof_exit(tok, 0);
        t
    }

    /// Context-sensitive relationship boosting: pages of objects related
    /// to the one just touched survive longer.
    fn context_boost(&mut self, obj: ObjectId) {
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

    /// Asynchronous prefetch for an access to `obj` arriving via `kind`.
    /// Honours graceful degradation: while degraded, database-wide
    /// prefetch narrows to within-buffer (see [`Self::effective_prefetch`]).
    fn do_prefetch(&mut self, obj: ObjectId, kind: QueryKind, t: SimTime) {
        let tok = self.prof_enter(Phase::Prefetch);
        self.do_prefetch_inner(obj, kind, t);
        // Prefetch I/O is asynchronous: zero simulated self cost on the
        // issuing transaction's path.
        self.prof_exit(tok, 0);
    }

    fn do_prefetch_inner(&mut self, obj: ObjectId, kind: QueryKind, t: SimTime) {
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
            QueryKind::SimpleLookup | QueryKind::Mutation => return,
        };
        let group = prefetch_group(&self.db, &self.store, obj, hint);
        if group.is_empty() {
            return;
        }
        let effect = apply_prefetch(&mut self.pool, &group, scope);
        if !effect.fetched.is_empty() || !effect.write_backs.is_empty() {
            self.registry.bump(self.counters.prefetch_issue);
            if self.trace.enabled() {
                self.trace.emit(&TraceEvent::PrefetchIssue {
                    at: t,
                    fetched: effect.fetched.len() as u32,
                    write_backs: effect.write_backs.len() as u32,
                });
            }
        }
        // Prefetch I/Os are issued asynchronously: they load the disks but
        // do not extend this transaction's critical path. They never fail
        // or retry, but a persistently degraded disk still serves them
        // slowly (static multiplier — no fault-plan draws).
        for &page in &effect.fetched {
            let d = self.layout.disk_of(page) as usize;
            let service = self.disk_service.times(self.faults.disk_mult(d as u32));
            let done = self.disks.submit_to(d, t, service);
            self.metrics.io.prefetch_ios += 1;
            self.registry.bump(self.counters.prefetch_io);
            if self.trace.enabled() {
                self.trace.emit(&TraceEvent::PrefetchIo {
                    at: t,
                    page,
                    disk: d as u32,
                    write_back: false,
                    done,
                });
            }
        }
        for &victim in &effect.write_backs {
            let d = self.layout.disk_of(victim) as usize;
            let service = self.disk_service.times(self.faults.disk_mult(d as u32));
            let done = self.disks.submit_to(d, t, service);
            self.metrics.io.prefetch_ios += 1;
            self.registry.bump(self.counters.prefetch_io);
            if self.trace.enabled() {
                self.trace.emit(&TraceEvent::PrefetchIo {
                    at: t,
                    page: victim,
                    disk: d as u32,
                    write_back: true,
                    done,
                });
            }
        }
    }

    fn exec_read(
        &mut self,
        u: u32,
        kind: QueryKind,
        root: ObjectId,
        now: SimTime,
    ) -> Result<SimTime, EngineError> {
        let query = match kind {
            QueryKind::SimpleLookup => semcluster_vdm::ReadQuery::SimpleLookup,
            QueryKind::ComponentRetrieval => semcluster_vdm::ReadQuery::ComponentRetrieval,
            QueryKind::CompositeRetrieval => semcluster_vdm::ReadQuery::CompositeRetrieval {
                fanout: self.cfg.workload.density.sample_fanout(&mut self.rng),
            },
            QueryKind::DescendantRetrieval => semcluster_vdm::ReadQuery::DescendantRetrieval,
            QueryKind::AncestorRetrieval => semcluster_vdm::ReadQuery::AncestorRetrieval,
            QueryKind::CorrespondentRetrieval => semcluster_vdm::ReadQuery::CorrespondentRetrieval,
            QueryKind::Mutation => unreachable!("reads only"),
        };
        semcluster_vdm::execute_read(
            &self.db,
            query,
            root,
            &mut self.walk,
            &mut self.read_objects,
        );

        let cpu_time = self
            .cfg
            .cpu_per_access
            .times(self.read_objects.len() as u64);
        let cpu_done = self.cpu.submit(now, cpu_time);

        let mut t = now;
        // By index: the accesses below need `&mut self`, and none of them
        // touches `read_objects`.
        for i in 0..self.read_objects.len() {
            let obj = self.read_objects[i];
            if let Some(page) = self.store.page_of(obj) {
                t = self.charge_access(page, t, ReadCause::Demand)?;
            }
            if i == 0 {
                self.context_boost(obj);
                self.do_prefetch(obj, kind, now);
            }
        }
        self.remember(u, root);
        Ok(self.finish_op(t, cpu_done))
    }

    /// Close an operation: any time the CPU keeps the transaction busy
    /// beyond its I/O chain is the operation's CPU component.
    fn finish_op(&mut self, t: SimTime, cpu_done: SimTime) -> SimTime {
        let done = cpu_done.max(t);
        self.cur_span.cpu_us += done.since(t).as_micros();
        done
    }

    fn exec_create(
        &mut self,
        u: u32,
        anchor: ObjectId,
        mode: CreateMode,
        token: semcluster_wal::TxnToken,
        now: SimTime,
    ) -> Result<SimTime, EngineError> {
        // 1. Logical creation. The anchor can legally have been deleted
        // by an earlier transaction, so a missing anchor is a run
        // condition (the create aborts), not an invariant violation.
        let id = match mode {
            CreateMode::NewComponent => {
                let a = *self
                    .db
                    .get_live(anchor)
                    .map_err(|_| EngineError::Placement {
                        object: anchor.0,
                        detail: "create anchor no longer exists",
                    })?;
                self.create_seq += 1;
                self.name_buf.clear();
                write!(self.name_buf, "w{}", self.create_seq)
                    .expect("writing to a String cannot fail");
                let name = NameKey {
                    base: self.db.intern(&self.name_buf),
                    version: 1,
                    rep: a.name.rep,
                };
                let body = self.rng.range_inclusive(64, 512) as u32;
                let id = self
                    .db
                    .create_object_key(name, a.ty, body)
                    .expect("generated names are unique (monotone create_seq)");
                self.db
                    .relate(RelKind::Configuration, anchor, id)
                    .expect("edge to a freshly created object cannot already exist");
                id
            }
            CreateMode::NewVersion => {
                let derived = derive_version(&mut self.db, anchor, &self.cfg.inherit_model)
                    .map_err(|_| EngineError::Placement {
                        object: anchor.0,
                        detail: "version-derivation anchor no longer exists",
                    })?;
                derived.id
            }
        };
        let size = self
            .db
            .get(id)
            .expect("object created two statements ago is present")
            .size_bytes();

        // 2. Placement search (candidate-page reads are charged). The
        // scoring runs on the engine's dense scratch arenas — pinned
        // allocation-free by the profile golden.
        let policy = self.effective_clustering();
        let ptok = self.prof_enter(Phase::PlacementScore);
        let plan = plan_placement_in(
            &self.db,
            &self.store,
            &self.pool,
            policy,
            &self.weights,
            id,
            size,
            &mut self.scratch,
        );
        let cpu_done = self.cpu.submit(now, self.cfg.cpu_per_access);
        let mut t = now;
        // Candidate-page reads flow through the buffer manager; misses
        // they cause are search I/Os, not demand reads. They nest under
        // the placement phase, whose own simulated self cost is zero
        // (scoring is CPU work, charged through the CPU server). A read
        // failure must still close the phase before propagating.
        let mut charged = Ok(());
        for c in &plan.examined {
            match self.charge_access(c.page, t, ReadCause::ClusterSearch) {
                Ok(done) => t = done,
                Err(e) => {
                    charged = Err(e);
                    break;
                }
            }
        }
        self.prof_exit(ptok, 0);
        charged?;

        // 3. Page-overflow handling.
        let mut split_verdict = if plan.preferred_full.is_some() {
            SplitVerdict::Declined
        } else {
            SplitVerdict::NotConsidered
        };
        let landed = if plan.target == PlacementTarget::Append
            && plan.preferred_full.is_some()
            && self.cfg.split != SplitPolicy::NoSplit
        {
            let Some(full) = plan.preferred_full else {
                unreachable!("guarded by the surrounding condition");
            };
            match consider_split(
                &self.db,
                &self.store,
                &self.weights,
                self.cfg.split,
                full,
                plan.preferred_full_affinity,
                plan.chosen_affinity,
                (id, size),
            ) {
                Some(split_plan) => {
                    let outcome = execute_split(&mut self.store, &split_plan).map_err(|_| {
                        EngineError::Placement {
                            object: id.0,
                            detail: "split plan no longer feasible against the store",
                        }
                    })?;
                    let split_cpu = self.cpu.submit(now, self.cfg.cpu_per_split);
                    let chained = t.max(split_cpu);
                    self.cur_span.cpu_us += chained.since(t).as_micros();
                    t = chained;
                    t = self.charge_access(full, t, ReadCause::Demand)?;
                    t = self.charge_install(outcome.new_page, t)?;
                    self.pool.mark_dirty(full);
                    self.pool.mark_dirty(outcome.new_page);
                    // One extra I/O to flush the new page, plus a log
                    // record for the split (§5.1.2).
                    t = self.charge_flush(outcome.new_page, t, FlushCause::Split)?;
                    t = self.charge_log(token, outcome.new_page, size, t);
                    if self.mirror.is_some() {
                        // Each object the split carried off the full page
                        // is a logged move (sizes read back from the new
                        // page, where they now live).
                        let on_new: Vec<(ObjectId, u32)> = self
                            .store
                            .objects_on(outcome.new_page)
                            .map(|objs| objs.to_vec())
                            .unwrap_or_default();
                        for &moved in &outcome.moved {
                            let msize = on_new
                                .iter()
                                .find(|&&(o, _)| o == moved)
                                .map(|&(_, s)| s)
                                .unwrap_or(0);
                            self.mirror_op(
                                token,
                                WalOp::Move {
                                    object: moved.0,
                                    size: msize,
                                    from: full.0,
                                    to: outcome.new_page.0,
                                },
                            );
                        }
                    }
                    self.metrics.splits += 1;
                    self.registry.bump(self.counters.cluster_split);
                    if self.trace.enabled() {
                        self.trace.emit(&TraceEvent::Split {
                            at: t,
                            from: full,
                            new: outcome.new_page,
                        });
                    }
                    split_verdict = SplitVerdict::Executed {
                        new_page: outcome.new_page,
                    };
                    outcome.incoming_page
                }
                None => execute_placement(&mut self.store, id, size, &plan).map_err(|_| {
                    EngineError::Placement {
                        object: id.0,
                        detail: "append after declined split found no page",
                    }
                })?,
            }
        } else {
            execute_placement(&mut self.store, id, size, &plan).map_err(|_| {
                EngineError::Placement {
                    object: id.0,
                    detail: "planned target page could not take the object",
                }
            })?
        };

        if let Some(audit) = self.audit.as_mut() {
            audit.push(PlacementAudit {
                at: now,
                kind: AuditKind::Create,
                object: id.0,
                candidates: plan
                    .examined
                    .iter()
                    .map(|c| CandidateAudit {
                        page: c.page,
                        score_milli: milli(c.score),
                        fits: c.fits,
                    })
                    .collect(),
                chosen: match plan.target {
                    PlacementTarget::Existing(p) => Some(p),
                    PlacementTarget::Append => None,
                },
                landed,
                score_milli: milli(plan.chosen_affinity),
                preferred_full: plan.preferred_full,
                split: split_verdict,
                search_ios: plan.search_ios,
            });
        }
        self.scratch.put_examined(plan.examined);

        // 4. Touch + dirty + log the landing page.
        let fresh = self
            .store
            .page(landed)
            .map(|p| p.object_count() == 1)
            .unwrap_or(false);
        t = if fresh {
            self.charge_install(landed, t)?
        } else {
            self.charge_access(landed, t, ReadCause::Demand)?
        };
        self.pool.mark_dirty(landed);
        t = self.charge_log(token, landed, size, t);
        self.mirror_op(
            token,
            WalOp::Place {
                object: id.0,
                size,
                page: landed.0,
            },
        );
        if self.measuring {
            self.metrics.objects_created += 1;
        }
        self.remember(u, id);
        Ok(self.finish_op(t, cpu_done))
    }

    fn exec_update(
        &mut self,
        u: u32,
        target: ObjectId,
        token: semcluster_wal::TxnToken,
        now: SimTime,
    ) -> Result<SimTime, EngineError> {
        let cpu_done = self.cpu.submit(now, self.cfg.cpu_per_access);
        let mut t = now;
        let Some(page) = self.store.page_of(target) else {
            return Ok(self.finish_op(now, cpu_done));
        };
        t = self.charge_access(page, t, ReadCause::Demand)?;
        self.pool.mark_dirty(page);
        let size = self
            .store
            .objects_on(page)
            .ok()
            .and_then(|objs| objs.iter().find(|&&(o, _)| o == target).map(|&(_, s)| s))
            .unwrap_or(128);
        t = self.charge_log(token, page, size, t);
        self.mirror_op(
            token,
            WalOp::Touch {
                object: target.0,
                size,
                page: page.0,
            },
        );

        // Run-time reclustering: the update is the moment the cluster
        // manager re-evaluates the object's placement. Suspended while
        // degraded (effective policy is NoCluster, which never clusters).
        let policy = self.effective_clustering();
        if policy.clusters() {
            let ptok = self.prof_enter(Phase::PlacementScore);
            let plan = plan_recluster_in(
                &self.db,
                &self.store,
                &self.pool,
                policy,
                &self.weights,
                target,
                self.cfg.recluster_min_gain,
                &mut self.scratch,
            );
            // Candidate reads nest under the scoring phase; close it
            // before any error propagates or the move executes.
            let mut charged = Ok(());
            if let Some(plan) = &plan {
                for c in &plan.examined {
                    match self.charge_access(c.page, t, ReadCause::ClusterSearch) {
                        Ok(done) => t = done,
                        Err(e) => {
                            charged = Err(e);
                            break;
                        }
                    }
                }
            }
            self.prof_exit(ptok, 0);
            charged?;
            if let Some(plan) = plan {
                let moved = self.store.move_object(target, plan.to).is_ok();
                if moved {
                    self.pool.mark_dirty(page);
                    self.pool.mark_dirty(plan.to);
                    t = self.charge_log(token, plan.to, size, t);
                    self.mirror_op(
                        token,
                        WalOp::Move {
                            object: target.0,
                            size,
                            from: page.0,
                            to: plan.to.0,
                        },
                    );
                    self.metrics.recluster_moves += 1;
                    self.registry.bump(self.counters.cluster_recluster_move);
                    if self.trace.enabled() {
                        self.trace.emit(&TraceEvent::ReclusterMove {
                            at: t,
                            object: target.0,
                            from: page,
                            to: plan.to,
                        });
                    }
                }
                if let Some(audit) = self.audit.as_mut() {
                    audit.push(PlacementAudit {
                        at: now,
                        kind: AuditKind::Recluster,
                        object: target.0,
                        candidates: plan
                            .examined
                            .iter()
                            .map(|c| CandidateAudit {
                                page: c.page,
                                score_milli: milli(c.score),
                                fits: c.fits,
                            })
                            .collect(),
                        chosen: Some(plan.to),
                        landed: if moved { plan.to } else { page },
                        score_milli: milli(plan.gain),
                        preferred_full: None,
                        split: SplitVerdict::NotConsidered,
                        search_ios: plan.search_ios,
                    });
                }
                self.scratch.put_examined(plan.examined);
            }
        }
        self.remember(u, target);
        Ok(self.finish_op(t, cpu_done))
    }

    /// §4.1 query type 7 also covers deletion: remove the object
    /// logically (tombstoned; refused while by-reference inheritors
    /// exist) and physically, logging the page update.
    fn exec_delete(
        &mut self,
        target: ObjectId,
        token: semcluster_wal::TxnToken,
        now: SimTime,
    ) -> Result<SimTime, EngineError> {
        let cpu_done = self.cpu.submit(now, self.cfg.cpu_per_access);
        if self.db.delete_object(target).is_err() {
            // Already gone, or protected by inheritors: a no-op read of
            // the catalog.
            return Ok(self.finish_op(now, cpu_done));
        }
        let mut t = now;
        if let Some(page) = self.store.page_of(target) {
            t = self.charge_access(page, t, ReadCause::Demand)?;
            let size = self
                .store
                .objects_on(page)
                .ok()
                .and_then(|objs| objs.iter().find(|&&(o, _)| o == target).map(|&(_, s)| s))
                .unwrap_or(0);
            let removed = self.store.remove(target).is_ok();
            self.pool.mark_dirty(page);
            t = self.charge_log(token, page, size, t);
            if removed {
                self.mirror_op(
                    token,
                    WalOp::Remove {
                        object: target.0,
                        size,
                        page: page.0,
                    },
                );
            }
            if self.measuring {
                self.metrics.objects_deleted += 1;
            }
        }
        Ok(self.finish_op(t, cpu_done))
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
    use semcluster_clustering::HintPolicy;

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
        let clustered = run_simulation(base.clone().with_clustering(ClusteringPolicy::NoLimit));
        let scattered = run_simulation(base.with_clustering(ClusteringPolicy::NoCluster));
        let rate =
            |r: &crate::RunReport| r.log.before_image_ios as f64 / r.log.commits.max(1) as f64;
        assert!(
            rate(&clustered) < rate(&scattered),
            "clustered {:.3} vs scattered {:.3} images/commit",
            rate(&clustered),
            rate(&scattered)
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
        let locked = run_simulation(cfg.clone());
        assert!(
            locked.lock_waits > 0,
            "expected lock waits under contention"
        );
        assert!(locked.mean_lock_wait_s >= 0.0);
        cfg.locking = false;
        let unlocked = run_simulation(cfg);
        assert_eq!(unlocked.lock_waits, 0);
        // Both complete the full measured load either way.
        assert_eq!(locked.txns, 600);
        assert_eq!(unlocked.txns, 600);
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
    use semcluster_workload::PhaseSchedule;

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

    #[test]
    fn deletions_happen_and_are_accounted() {
        let mut cfg = SimConfig {
            database_bytes: 1024 * 1024,
            buffer_pages: 16,
            warmup_txns: 50,
            measured_txns: 1500,
            ..SimConfig::default()
        };
        cfg.workload = semcluster_workload::WorkloadSpec::new(StructureDensity::Med5, 2.0);
        cfg.workload.delete_fraction = 0.5;
        let mut engine = Engine::new(cfg);
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
}

#[cfg(test)]
mod crash_tests {
    use super::*;

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
        let outcome = Engine::new(cfg).run_and_crash_at(CrashPoint::End);
        let (report, recovery) = (outcome.report, outcome.recovery);
        // Every winner committed; with force-on-commit nothing committed
        // can be lost, and in-flight losers are bounded by the user count.
        assert!(!recovery.winners.is_empty());
        assert!(
            recovery.losers.len() <= 10,
            "{} losers",
            recovery.losers.len()
        );
        assert!(
            !recovery.redone.is_empty(),
            "committed updates must be redone"
        );
        assert!(report.writes > 0);
        // Redo page set is a subset of pages the store knows.
        assert!(!recovery.dirty_pages.is_empty());
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
        assert!(report.p95_response_s <= report.max_response_s + 0.011);
        assert!(report.p50_response_s > 0.0);
    }
}
