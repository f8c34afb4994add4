//! What the file server holds when the first user arrives: the database
//! the workload's density implies, laid out as the configured policy's
//! history would have left it (model notes on [`super`]).

use crate::config::SimConfig;
use semcluster_clustering::{
    plan_placement_in, AllResident, ClusteringPolicy, PlacementTarget, ResidencyView, ScoreScratch,
    WeightModel,
};
use semcluster_sim::SimRng;
use semcluster_storage::{PageId, StorageManager, PAGE_OVERHEAD_BYTES};
use semcluster_vdm::{Database, DetHashSet, ObjectId};
use std::collections::VecDeque;

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
    let mut store = StorageManager::new(cfg.page_bytes);
    match cfg.clustering {
        ClusteringPolicy::NoCluster => {
            // Arrival-order append over the interleaved history.
            for id in history_order(db, module_starts, rng, 16) {
                let obj = db.get(id).expect(DENSE_IDS);
                store.append(obj.id, obj.size_bytes()).expect(APPEND_FITS);
            }
        }
        ClusteringPolicy::WithinBuffer => {
            // The same interleaved history, but the candidate search
            // only ever saw the recency window of buffered pages.
            let mut window = RecencyWindow {
                cap: cfg.buffer_pages,
                set: DetHashSet::default(),
                queue: VecDeque::new(),
            };
            let order = history_order(db, module_starts, rng, 16);
            place_in_order(cfg, db, weights, &mut store, order, &mut window);
        }
        ClusteringPolicy::IoLimit(_) | ClusteringPolicy::NoLimit | ClusteringPolicy::Adaptive => {
            // Unbounded search plus months of run-time reclustering
            // converge on relationship-order placement; load in
            // structure order with full visibility.
            let order = (0..db.object_count()).map(|i| ObjectId(i as u32));
            place_in_order(cfg, db, weights, &mut store, order, &mut AllResident);
        }
    }
    store
}

/// Affinity-place the objects of `order` one at a time, each search
/// seeing only the pages `view` calls resident.
fn place_in_order(
    cfg: &SimConfig,
    db: &Database,
    weights: &WeightModel,
    store: &mut StorageManager,
    order: impl IntoIterator<Item = ObjectId>,
    view: &mut impl HistoryView,
) {
    // A within-buffer history searched within its buffer; every other
    // clustering history had, in the long run, no limit.
    let policy = match cfg.clustering {
        ClusteringPolicy::WithinBuffer => ClusteringPolicy::WithinBuffer,
        _ => ClusteringPolicy::NoLimit,
    };
    // Clustering stores keep slack on freshly filled pages so later
    // relatives can join (~30 % of the page).
    let reserve = (cfg.page_bytes - PAGE_OVERHEAD_BYTES) * 3 / 10;
    let mut scratch = ScoreScratch::with_capacity(db.object_count(), 0);
    for id in order {
        let size = db.get(id).expect(DENSE_IDS).size_bytes();
        let plan = plan_placement_in(db, store, view, policy, weights, id, size, &mut scratch);
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
}
