//! What the file server holds when the first user arrives: the database
//! the workload's density implies, laid out as the configured policy's
//! history would have left it (model notes on [`super`]).
//!
//! The structure-order arm is also the paper's §2.1 static clustering
//! pass, [`static_layout`], which `reorg`, `inspect` and the static-drift
//! exhibit run on databases of their own.
//!
//! A clustered load uses two threads. Each search is scored against
//! the objects before it in the load order — exactly what the store
//! holds when it is placed — so one scoped helper scores batches ahead
//! while the loading thread chooses and places them strictly in order
//! (DESIGN.md §14.2). Only this file in the engine runs a thread.

use crate::config::SimConfig;
use semcluster_clustering::{
    choose_placement_in, score_placement_in, AllResident, ClusteringPolicy, PlacementTarget,
    ResidencyView, ScoreScratch, WeightModel,
};
use semcluster_sim::SimRng;
use semcluster_storage::{PageId, StorageManager, PAGE_OVERHEAD_BYTES};
use semcluster_vdm::{Database, DetHashSet, ObjectId};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Mutex;
use std::thread::ScopedJoinHandle;
use std::time::Duration;

const DENSE_IDS: &str = "seeded object ids are dense in 0..object_count";
const APPEND_FITS: &str =
    "append always finds or opens a page (object larger than a page would be a workload bug)";

/// The synthetic database plus the first object id of each of its
/// modules (contiguous id ranges, ascending).
pub(super) fn build_database(cfg: &SimConfig, rng: &mut SimRng) -> (Database, Vec<ObjectId>) {
    let density = cfg.workload.density;
    let spec = density.database_spec(cfg.target_objects(), rng.below(u64::MAX / 2));
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

/// What a placement search could see while the history played out, told
/// where each object landed.
trait HistoryView: ResidencyView {
    fn landed(&mut self, _page: PageId) {}
}

impl HistoryView for AllResident {}

/// FIFO window over recently touched pages — the candidate pages a
/// within-buffer clusterer would have seen during history.
struct RecencyWindow {
    cap: usize,
    set: DetHashSet<PageId>,
    queue: VecDeque<PageId>,
}

impl ResidencyView for RecencyWindow {
    fn is_resident(&self, page: PageId) -> bool {
        self.set.contains(&page)
    }
}

impl HistoryView for RecencyWindow {
    fn landed(&mut self, page: PageId) {
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

/// Lay the database out as the configured policy's own history would
/// have: full-visibility affinity placement for the I/O-capable
/// policies, a recency-window-constrained search for
/// `Cluster_within_Buffer`, plain arrival-order append for
/// `No_Cluster`. The history order itself (interleaved module
/// sessions) is the same for every policy.
pub(super) fn load_database(
    cfg: &SimConfig,
    db: &Database,
    module_starts: &[ObjectId],
    weights: &WeightModel,
    rng: &mut SimRng,
) -> StorageManager {
    load_database_with(cfg, db, module_starts, weights, rng, true, BATCH)
}

/// [`load_database`] with the scoring helper on or off and `batch`
/// objects per scoring batch; every combination lays out the same pages.
fn load_database_with(
    cfg: &SimConfig,
    db: &Database,
    module_starts: &[ObjectId],
    weights: &WeightModel,
    rng: &mut SimRng,
    helper: bool,
    batch: usize,
) -> StorageManager {
    match cfg.clustering {
        ClusteringPolicy::NoCluster => {
            // Arrival-order append over the interleaved history.
            let mut store = StorageManager::new(cfg.page_bytes);
            for id in history_order(db, module_starts, rng, 16) {
                let obj = db.get(id).expect(DENSE_IDS);
                store.append(obj.id, obj.size_bytes()).expect(APPEND_FITS);
            }
            store
        }
        ClusteringPolicy::WithinBuffer => {
            // The same interleaved history, but the candidate search
            // only ever saw the recency window of buffered pages.
            let mut store = StorageManager::new(cfg.page_bytes);
            let mut window = RecencyWindow {
                cap: cfg.buffer_pages,
                set: DetHashSet::default(),
                queue: VecDeque::new(),
            };
            let order = LoadOrder::history(history_order(db, module_starts, rng, 16));
            let placer = Placer::new(ClusteringPolicy::WithinBuffer, db, weights, &order, batch);
            placer.run(&mut store, &mut window, helper);
            store
        }
        ClusteringPolicy::IoLimit(_) | ClusteringPolicy::NoLimit | ClusteringPolicy::Adaptive => {
            // Unbounded search plus months of run-time reclustering
            // converge on relationship-order placement: the static
            // layout.
            structure_layout(db, weights, cfg.page_bytes, helper, batch)
        }
    }
}

/// The static clustering pass of the paper's §2.1, run on a quiesced
/// database: every object affinity-placed in id (structure) order with
/// full visibility and no search limit, each appended page keeping
/// about 30 % slack for relatives placed later. It is also the layout
/// every I/O-capable policy's engine starts from (DESIGN.md §7.1).
pub fn static_layout(db: &Database, weights: &WeightModel, page_bytes: u32) -> StorageManager {
    structure_layout(db, weights, page_bytes, true, BATCH)
}

/// [`static_layout`] with the scoring helper on or off and `batch`
/// objects per scoring batch.
fn structure_layout(
    db: &Database,
    weights: &WeightModel,
    page_bytes: u32,
    helper: bool,
    batch: usize,
) -> StorageManager {
    let mut store = StorageManager::new(page_bytes);
    let order = LoadOrder::Structure(db.object_count());
    let placer = Placer::new(ClusteringPolicy::NoLimit, db, weights, &order, batch);
    placer.run(&mut store, &mut AllResident, helper);
    store
}

/// Objects per scoring batch: enough that a hand-off is rare next to
/// scoring, few enough that a batch's lists (≈16 entries an object, so
/// ≈64 KiB) stay small.
const BATCH: usize = 256;

/// How far scoring runs ahead of placing: the helper's hand-off channel
/// holds this many batches, and the loading thread scores no more than
/// this many past the one it is placing. With the batch each thread is
/// working on, at most `2 * AHEAD + 2` batches are alive at once.
const AHEAD: usize = 2;

/// How long the loading thread waits for a batch the helper holds before
/// scoring it itself. A batch takes ≈0.1 ms to score, so a longer wait
/// means the helper is not running — its core is busy, as under a
/// `--jobs N` sweep — and waiting on would make the load slower than one
/// thread.
const STALL: Duration = Duration::from_millis(1);

/// The order a load places objects in. When an object is placed, the
/// objects already placed are exactly those before it in this order,
/// so its search can be scored before any of them land.
enum LoadOrder {
    /// Ids ascending (structure order) over this many objects.
    Structure(usize),
    /// An explicit order, and each object's position in it.
    History {
        order: Vec<ObjectId>,
        rank: Vec<u32>,
    },
}

impl LoadOrder {
    fn history(order: Vec<ObjectId>) -> Self {
        let mut rank = vec![0u32; order.len()];
        for (i, id) in order.iter().enumerate() {
            rank[id.index()] = i as u32;
        }
        LoadOrder::History { order, rank }
    }

    fn len(&self) -> usize {
        match self {
            LoadOrder::Structure(n) => *n,
            LoadOrder::History { order, .. } => order.len(),
        }
    }

    /// The object placed `i`-th.
    fn at(&self, i: usize) -> ObjectId {
        match self {
            LoadOrder::Structure(_) => ObjectId(i as u32),
            LoadOrder::History { order, .. } => order[i],
        }
    }

    /// The position `id` is placed at.
    fn rank(&self, id: ObjectId) -> usize {
        match self {
            LoadOrder::Structure(_) => id.index(),
            LoadOrder::History { rank, .. } => rank[id.index()] as usize,
        }
    }
}

/// One batch's scored neighbourhoods, laid end to end, and each
/// object's size and where its neighbourhood ends.
#[derive(Default)]
struct Scored {
    batch: usize,
    lists: Vec<(ObjectId, f64)>,
    objects: Vec<(u32, usize)>,
}

/// What a load's two threads share: the database, the weight model, the
/// order and the search settings, read-only, and the spare batch
/// buffers.
struct Placer<'a> {
    db: &'a Database,
    weights: &'a WeightModel,
    order: &'a LoadOrder,
    batch: usize,
    /// The search limit: `Cluster_within_Buffer` for a within-buffer
    /// history, `No_limit` for every other clustering history, which in
    /// the long run had none.
    policy: ClusteringPolicy,
    /// Placed batches' buffers, reused by the next batch either thread
    /// scores.
    spares: Mutex<Vec<Scored>>,
}

const SPARES: &str = "nothing panics while holding the spare batches";

impl<'a> Placer<'a> {
    fn new(
        policy: ClusteringPolicy,
        db: &'a Database,
        weights: &'a WeightModel,
        order: &'a LoadOrder,
        batch: usize,
    ) -> Self {
        Placer {
            db,
            weights,
            order,
            batch,
            spares: Mutex::new(Vec::new()),
            policy,
        }
    }

    /// Score every object of batch `b` against the objects before it in
    /// the load order — exactly what the store will hold when it is
    /// placed.
    fn score(&self, b: usize, scratch: &mut ScoreScratch) -> Scored {
        let positions = b * self.batch..((b + 1) * self.batch).min(self.order.len());
        let mut scored = self.spares.lock().expect(SPARES).pop().unwrap_or_default();
        scored.batch = b;
        scored.lists.clear();
        scored.objects.clear();
        for i in positions {
            let id = self.order.at(i);
            let placed = |o: ObjectId| self.order.rank(o) < i;
            score_placement_in(self.db, self.weights, id, placed, scratch);
            scored.lists.extend_from_slice(&scratch.extended);
            let size = self.db.get(id).expect(DENSE_IDS).size_bytes();
            scored.objects.push((size, scored.lists.len()));
        }
        scored
    }

    /// Choose a page for, and place, every object of a scored batch, in
    /// order, each search seeing only the pages `view` calls resident.
    fn place(
        &self,
        scored: Scored,
        store: &mut StorageManager,
        view: &mut impl HistoryView,
        scratch: &mut ScoreScratch,
    ) {
        // Clustering stores keep slack on freshly filled pages so later
        // relatives can join (~30 % of the page).
        let reserve = (store.page_bytes() - PAGE_OVERHEAD_BYTES) * 3 / 10;
        let mut start = 0;
        for (k, &(size, end)) in scored.objects.iter().enumerate() {
            let id = self.order.at(scored.batch * self.batch + k);
            scratch.extended.clear();
            scratch
                .extended
                .extend_from_slice(&scored.lists[start..end]);
            start = end;
            let plan = choose_placement_in(store, view, self.policy, size, scratch);
            let page = match plan.target {
                PlacementTarget::Existing(page) => {
                    store
                        .place(id, size, page)
                        .expect("placement plan verified the page had room when it was drawn");
                    page
                }
                PlacementTarget::Append => store
                    .append_reserving(id, size, reserve)
                    .expect(APPEND_FITS),
            };
            scratch.put_examined(plan.examined);
            view.landed(page);
        }
        self.spares.lock().expect(SPARES).push(scored);
    }

    /// Place every object in order. With `helper`, one scoped thread
    /// scores batches ahead while this one chooses and places; both
    /// claim batches from one cursor, so this thread scores whatever the
    /// helper has not reached. Only this thread touches the store and the
    /// view, and it places strictly in order, so every object lands where
    /// a one-at-a-time search would put it.
    fn run(&self, store: &mut StorageManager, view: &mut impl HistoryView, helper: bool) {
        let batches = self.order.len().div_ceil(self.batch);
        let cursor = AtomicUsize::new(0);
        #[cfg(test)]
        let hook = tests::HELPER_HOOK.get();
        std::thread::scope(|s| {
            // Created inside the scope, so a panic on this thread drops
            // the receiver and a helper blocked in `send` returns.
            let (tx, rx) = mpsc::sync_channel::<Scored>(AHEAD);
            let mut helper = helper.then(|| {
                let cursor = &cursor;
                s.spawn(move || {
                    #[cfg(test)]
                    assert!(hook != tests::Hook::Panic, "injected helper panic");
                    let mut scratch = ScoreScratch::new();
                    while let Some(b) = claim(cursor, batches) {
                        #[cfg(test)]
                        if hook == tests::Hook::Stall {
                            std::thread::sleep(3 * STALL);
                        }
                        if tx.send(self.score(b, &mut scratch)).is_err() {
                            break; // the loading thread is unwinding
                        }
                    }
                })
            });
            // Batches this thread scored ahead of the one it is placing.
            let mut stolen: VecDeque<Scored> = VecDeque::new();
            let mut next = |b: usize, scratch: &mut ScoreScratch| loop {
                if stolen.front().is_some_and(|s| s.batch == b) {
                    return stolen.pop_front().expect("front checked");
                }
                let arrived = match rx.try_recv() {
                    Ok(scored) => scored,
                    Err(_) => {
                        if let Some(c) = claim(&cursor, batches.min(b + AHEAD)) {
                            stolen.push_back(self.score(c, scratch));
                            continue;
                        }
                        // Batch `b` is the helper's.
                        match rx.recv_timeout(STALL) {
                            Ok(scored) => scored,
                            // The helper is not running: score `b` here;
                            // its copy will arrive stale.
                            Err(RecvTimeoutError::Timeout) => return self.score(b, scratch),
                            // It is gone without sending `b`: it panicked.
                            Err(RecvTimeoutError::Disconnected) => {
                                rejoin(helper.take());
                                unreachable!("the helper returned holding batch {b}");
                            }
                        }
                    }
                };
                // The helper sends in claim order, so what arrives is `b`
                // or a batch this thread has already placed.
                if arrived.batch == b {
                    return arrived;
                }
                assert!(arrived.batch < b, "load batches arrive in order");
                self.spares.lock().expect(SPARES).push(arrived);
            };
            let mut scratch = ScoreScratch::new();
            for b in 0..batches {
                let scored = next(b, &mut scratch);
                self.place(scored, store, view, &mut scratch);
            }
            // Unblock a helper sending a stale batch, then wait for it: a
            // helper that panicked after this thread stopped needing it
            // still fails the load, with its own message.
            drop(rx);
            rejoin(helper);
        });
    }
}

/// Wait for the helper, if there is one, and re-raise its panic.
fn rejoin(helper: Option<ScopedJoinHandle<'_, ()>>) {
    if let Some(Err(panic)) = helper.map(ScopedJoinHandle::join) {
        std::panic::resume_unwind(panic);
    }
}

/// Claim the next unscored batch if it is below `limit`. `Relaxed`
/// suffices: the read-modify-write hands each batch out once, and the
/// cursor publishes nothing else — scores reach the loading thread
/// through the channel, which orders them.
fn claim(cursor: &AtomicUsize, limit: usize) -> Option<usize> {
    cursor
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |next| {
            (next < limit).then_some(next + 1)
        })
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use semcluster_buffer::AccessHint;
    use semcluster_clustering::{plan_placement_in, HintPolicy};
    use std::cell::Cell;

    /// What the helper of a load started on this thread does wrong.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub(super) enum Hook {
        None,
        /// Panics before it claims a batch.
        Panic,
        /// Holds every batch it claims three stall timeouts long.
        Stall,
    }

    thread_local! {
        pub(super) static HELPER_HOOK: Cell<Hook> = const { Cell::new(Hook::None) };
    }

    /// The one-at-a-time load the batched one replaced: each object's
    /// whole search, scored against the store, then placed.
    fn model_load(
        cfg: &SimConfig,
        db: &Database,
        module_starts: &[ObjectId],
        weights: &WeightModel,
        rng: &mut SimRng,
    ) -> StorageManager {
        let mut store = StorageManager::new(cfg.page_bytes);
        match cfg.clustering {
            ClusteringPolicy::NoCluster => unreachable!("the model covers the clustering loads"),
            ClusteringPolicy::WithinBuffer => {
                let mut window = RecencyWindow {
                    cap: cfg.buffer_pages,
                    set: DetHashSet::default(),
                    queue: VecDeque::new(),
                };
                let order = history_order(db, module_starts, rng, 16);
                model_place(cfg, db, weights, &mut store, order, &mut window);
            }
            _ => {
                let order = (0..db.object_count()).map(|i| ObjectId(i as u32));
                model_place(cfg, db, weights, &mut store, order, &mut AllResident);
            }
        }
        store
    }

    fn model_place(
        cfg: &SimConfig,
        db: &Database,
        weights: &WeightModel,
        store: &mut StorageManager,
        order: impl IntoIterator<Item = ObjectId>,
        view: &mut impl HistoryView,
    ) {
        let policy = match cfg.clustering {
            ClusteringPolicy::WithinBuffer => ClusteringPolicy::WithinBuffer,
            _ => ClusteringPolicy::NoLimit,
        };
        let reserve = (cfg.page_bytes - PAGE_OVERHEAD_BYTES) * 3 / 10;
        let mut scratch = ScoreScratch::with_capacity(db.object_count(), 0);
        for id in order {
            let size = db.get(id).expect(DENSE_IDS).size_bytes();
            let plan = plan_placement_in(db, store, view, policy, weights, id, size, &mut scratch);
            let page = match plan.target {
                PlacementTarget::Existing(page) => {
                    store.place(id, size, page).expect("plan checked the room");
                    page
                }
                PlacementTarget::Append => store
                    .append_reserving(id, size, reserve)
                    .expect(APPEND_FITS),
            };
            scratch.put_examined(plan.examined);
            view.landed(page);
        }
    }

    fn cfg(label: &str, clustering: ClusteringPolicy, hints: HintPolicy) -> SimConfig {
        SimConfig {
            database_bytes: 2 * 1024 * 1024,
            buffer_pages: 24,
            workload: crate::workload_from_label(label).expect("preset label"),
            clustering,
            hints,
            session_hint: AccessHint::ByConfiguration,
            seed: 31,
            ..SimConfig::default()
        }
    }

    fn weights(cfg: &SimConfig) -> WeightModel {
        match cfg.hints {
            HintPolicy::UserHints => WeightModel::with_hint(cfg.session_hint),
            HintPolicy::NoHints => WeightModel::no_hints(),
        }
    }

    /// Where the first difference between two layouts is, if any.
    fn layout_diff(db: &Database, got: &StorageManager, want: &StorageManager) -> Option<String> {
        for obj in db.objects() {
            if got.page_of(obj.id) != want.page_of(obj.id) {
                return Some(format!(
                    "{:?} on {:?}, model {:?}",
                    obj.id,
                    got.page_of(obj.id),
                    want.page_of(obj.id)
                ));
            }
        }
        // Same pages per object; the whole store (page contents in
        // insertion order, free space, the append cursor) must match too.
        (format!("{got:?}") != format!("{want:?}")).then(|| "same pages, different stores".into())
    }

    /// The batched load puts every object on the model's page under every
    /// clustering history — structure order for NoLimit, IoLimit and
    /// Adaptive, the interleaved history behind a recency window for
    /// WithinBuffer — with the helper on and off, and with batches of 1
    /// and 7 objects, whose boundaries fall inside every module.
    #[test]
    fn batched_load_matches_one_at_a_time_model() {
        let policies = [
            ClusteringPolicy::NoLimit,
            ClusteringPolicy::IoLimit(2),
            ClusteringPolicy::Adaptive,
            ClusteringPolicy::WithinBuffer,
        ];
        let worlds = [
            ("low3-5", HintPolicy::NoHints),
            ("hi10-100", HintPolicy::NoHints),
            ("med5-10", HintPolicy::UserHints),
        ];
        for policy in policies {
            for (label, hints) in worlds {
                let cfg = cfg(label, policy, hints);
                let weights = weights(&cfg);
                let mut rng = SimRng::seed_from_u64(cfg.seed);
                let (db, module_starts) = build_database(&cfg, &mut rng);
                assert!(module_starts.len() > 1);
                let mut model_rng = rng.clone();
                let model = model_load(&cfg, &db, &module_starts, &weights, &mut model_rng);
                for (helper, batch) in [(false, 1), (true, 1), (false, 7), (true, 7), (true, BATCH)]
                {
                    let mut load_rng = rng.clone();
                    let store = load_database_with(
                        &cfg,
                        &db,
                        &module_starts,
                        &weights,
                        &mut load_rng,
                        helper,
                        batch,
                    );
                    if let Some(diff) = layout_diff(&db, &store, &model) {
                        panic!(
                            "{label} {policy:?} {hints:?}, helper {helper}, batch {batch}: {diff}"
                        );
                    }
                    assert_eq!(load_rng.below(u64::MAX), model_rng.clone().below(u64::MAX));
                }
            }
        }
    }

    /// A helper that stops running while it holds a batch costs the load
    /// a stall timeout, not the layout: the loading thread scores that
    /// batch itself and drops the helper's copy when it arrives.
    #[test]
    fn stalled_helper_load_matches_model() {
        HELPER_HOOK.set(Hook::Stall);
        for policy in [ClusteringPolicy::NoLimit, ClusteringPolicy::WithinBuffer] {
            let cfg = cfg("hi10-100", policy, HintPolicy::NoHints);
            let weights = weights(&cfg);
            let mut rng = SimRng::seed_from_u64(cfg.seed);
            let (db, module_starts) = build_database(&cfg, &mut rng);
            let model = model_load(&cfg, &db, &module_starts, &weights, &mut rng.clone());
            for batch in [7, BATCH] {
                let store = load_database_with(
                    &cfg,
                    &db,
                    &module_starts,
                    &weights,
                    &mut rng.clone(),
                    true,
                    batch,
                );
                if let Some(diff) = layout_diff(&db, &store, &model) {
                    panic!("{policy:?}, batch {batch}: {diff}");
                }
            }
        }
    }

    /// A helper that panics fails `Engine::new` with the helper's own
    /// panic; nothing waits for a batch that will never come.
    #[test]
    fn helper_panic_fails_engine_new() {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            HELPER_HOOK.set(Hook::Panic);
            let cfg = cfg("hi10-100", ClusteringPolicy::NoLimit, HintPolicy::NoHints);
            let outcome = std::panic::catch_unwind(|| crate::Engine::new(cfg).completed_txns());
            let message = outcome.err().map(|panic| {
                panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_default()
            });
            let _ = tx.send(message);
        });
        let message = rx
            .recv_timeout(std::time::Duration::from_secs(300))
            .expect("Engine::new hung after its helper panicked");
        assert_eq!(message.as_deref(), Some("injected helper panic"));
    }
}
