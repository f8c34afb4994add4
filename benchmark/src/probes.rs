//! Kernel probes: a loop over one layer's public function with inputs
//! shaped like the workloads', median of five batches. They run after
//! the traced rounds, never beside a timed one.

use crate::host;
use crate::metrics::MetricSet;
use crate::stats::median;
use semcluster::serve::{
    ConnFsm, ExecResult, Frame, FrameDecoder, FsmAction, FsmInput, Request, TxnOp, TxnRequest,
};
use semcluster_buffer::{BufferPool, ReplacementPolicy};
use semcluster_clustering::{
    plan_placement_in, AllResident, ClusteringPolicy, ScoreScratch, WeightModel,
};
use semcluster_faults::FsFaultConfig;
use semcluster_lock::{LockManager, LockMode, TxnId};
use semcluster_sim::{EventQueue, SimTime};
use semcluster_storage::{
    decode_page, encode_page, FilePageStore, PageId, StorageManager, DEFAULT_PAGE_BYTES,
};
use semcluster_vdm::{ObjectId, SyntheticDbSpec};
use semcluster_wal::{LogConfig, LogManager};
use std::hint::black_box;
use std::time::Instant;

const BATCHES: usize = 5;

/// Median over [`BATCHES`] batches of the mean nanoseconds one call of
/// `op` takes in a batch of `iters` calls.
fn ns_per_op(iters: u64, mut op: impl FnMut(u64)) -> f64 {
    let samples: Vec<f64> = (0..BATCHES as u64)
        .map(|b| {
            let start = Instant::now();
            for i in 0..iters {
                op(b * iters + i);
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&samples)
}

fn db_spec() -> SyntheticDbSpec {
    SyntheticDbSpec {
        modules: 30,
        depth: 3,
        fanout: (3, 6),
        ..SyntheticDbSpec::default()
    }
}

fn txn_of_four(i: u64) -> TxnRequest {
    TxnRequest {
        session: 1,
        client_txn: i + 1,
        deadline_ms: 5000,
        ops: (0..4u64)
            .map(|k| TxnOp {
                write: k == 0,
                object: ((i * 4 + k) % 4096) as u32,
            })
            .collect(),
    }
}

/// Run every probe. `pool_pages` and `policy` shape the buffer probes
/// like the workload's pool.
pub fn run(m: &mut MetricSet, pool_pages: usize, policy: ReplacementPolicy) {
    // sim: steady-state calendar at the depth ten users keep it.
    let mut queue = EventQueue::with_capacity(128);
    for i in 0..64u64 {
        queue.schedule(SimTime::from_micros(i * 7919 % 100_000), i);
    }
    m.set(
        "sim.queue_push_pop_ns",
        ns_per_op(200_000, |i| {
            let (at, ev) = queue.pop().expect("queue holds 64 events");
            queue.schedule(
                SimTime::from_micros(at.as_micros() + 1 + (i * 7919) % 4000),
                black_box(ev),
            );
        }),
    );

    // vdm: synthetic database construction.
    let objects = db_spec().build().0.object_count() as f64;
    let build_ns = ns_per_op(1, |_| {
        black_box(db_spec().build().0.object_count());
    });
    m.set("vdm.build_objects_per_s", objects / (build_ns / 1e9));

    // buffer: a hit re-reads a resident page; a miss cycles through more
    // pages than the pool holds, so every access evicts.
    let mut pool = BufferPool::new(pool_pages, policy, 7);
    pool.ensure_page_capacity(4 * pool_pages + 64);
    for p in 0..pool_pages as u32 {
        pool.access(PageId(p));
    }
    let resident = pool_pages as u64;
    m.set(
        "buffer.access_hit_ns",
        ns_per_op(200_000, |i| {
            black_box(pool.access(PageId((i * 31 % resident) as u32)));
        }),
    );
    // Fewer calls where each one scans more frames.
    let miss_iters = (20_000_000 / resident).clamp(500, 50_000);
    let cycle = 2 * resident + 1;
    let mut next = resident;
    m.set(
        "buffer.access_miss_ns",
        ns_per_op(miss_iters, |_| {
            black_box(pool.access(PageId(next as u32)));
            next = (next + 1) % cycle;
        }),
    );

    // clustering: placement planning for an object of a loaded store.
    let (db, _) = db_spec().build();
    let mut store = StorageManager::new(DEFAULT_PAGE_BYTES);
    for obj in db.objects() {
        store
            .append(obj.id, obj.size_bytes())
            .expect("synthetic objects fit a page");
    }
    let model = WeightModel::no_hints();
    let mut scratch = ScoreScratch::with_capacity(db.object_count() + 64, store.page_count() + 64);
    let n = db.object_count() as u64;
    m.set(
        "clustering.plan_placement_ns",
        ns_per_op(20_000, |i| {
            let plan = plan_placement_in(
                &db,
                &store,
                &AllResident,
                ClusteringPolicy::NoLimit,
                &model,
                ObjectId((i % n) as u32),
                256,
                &mut scratch,
            );
            black_box(plan.search_ios);
            scratch.put_examined(plan.examined);
        }),
    );

    // lock: the served path's all-or-nothing acquire of four objects.
    let mut locks = LockManager::new();
    locks.ensure_object_capacity(4096 + 64);
    m.set(
        "lock.acquire_release_ns",
        ns_per_op(100_000, |i| {
            let req = [0u64, 1, 2, 3].map(|k| {
                let mode = if k == 0 {
                    LockMode::Exclusive
                } else {
                    LockMode::Shared
                };
                (ObjectId(((i * 4 + k) % 4096) as u32), mode)
            });
            black_box(locks.try_acquire_all(TxnId(i + 1), &req));
            black_box(locks.release_all(TxnId(i + 1)).len());
        }),
    );

    // wal: one transaction of eight updates through the simulated log.
    let mut log = LogManager::new(LogConfig::default());
    m.set(
        "wal.commit_txn8_ns",
        ns_per_op(50_000, |_| {
            let t = log.begin();
            for p in 0..8u32 {
                black_box(log.log_update(t, PageId(p % 3), 200));
            }
            black_box(log.commit(t));
        }),
    );

    // storage: the page codec, then a real steal and a real commit.
    let slots: Vec<(u32, u32)> = (0..12u32).map(|s| (1000 + s, 200 + s * 7)).collect();
    m.set(
        "storage.encode_page_ns",
        ns_per_op(20_000, |i| {
            black_box(encode_page(i as u32, i, &slots).expect("twelve slots fit a page"));
        }),
    );
    let image = encode_page(9, 9, &slots).expect("twelve slots fit a page");
    m.set(
        "storage.decode_page_ns",
        ns_per_op(20_000, |_| {
            black_box(decode_page(black_box(&image)));
        }),
    );
    let dir = host::out_dir()
        .join("scratch")
        .join(format!("probe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    if let Ok(mut files) = FilePageStore::create(&dir, FsFaultConfig::default()) {
        let empty: &[(u32, u32)] = &[];
        if files.checkpoint((0..64u32).map(|p| (p, empty))).is_ok() {
            m.set(
                "storage.steal_us",
                ns_per_op(20, |i| {
                    black_box(files.steal((i % 64) as u32, &slots).is_ok());
                }) / 1e3,
            );
            m.set(
                "storage.commit_fsync_us",
                ns_per_op(20, |i| {
                    black_box(files.commit(i + 1).is_ok());
                }) / 1e3,
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    // serve.protocol: a four-operation TXN out to bytes and back.
    m.set(
        "serve.protocol.encode_txn_ns",
        ns_per_op(100_000, |i| {
            black_box(Request::Txn(txn_of_four(i)).encode().encode());
        }),
    );
    let wire = Request::Txn(txn_of_four(0)).encode().encode();
    let mut decoder = FrameDecoder::new();
    m.set(
        "serve.protocol.decode_txn_ns",
        ns_per_op(100_000, |_| {
            decoder.push(&wire);
            let frame: Frame = decoder
                .next_frame()
                .expect("well-formed frame")
                .expect("one whole frame");
            black_box(Request::parse(&frame).expect("well-formed TXN"));
        }),
    );

    // serve.session: bytes in, submit, executed, reply out.
    let mut fsm = ConnFsm::new(1, 5000, 1024, 0);
    let mut actions: Vec<FsmAction> = Vec::new();
    let hello = Request::Hello { sessions: 1 }.encode().encode();
    fsm.on_input(FsmInput::Bytes(&hello), 0, &mut actions);
    m.set(
        "serve.session.fsm_txn_ns",
        ns_per_op(100_000, |i| {
            let bytes = Request::Txn(txn_of_four(i)).encode().encode();
            actions.clear();
            fsm.on_input(FsmInput::Bytes(&bytes), 0, &mut actions);
            fsm.on_input(
                FsmInput::Executed {
                    session: 1,
                    client_txn: i + 1,
                    result: ExecResult::Committed {
                        token: None,
                        commit_lsn: i,
                        completed: i,
                        done: false,
                    },
                },
                0,
                &mut actions,
            );
            black_box(actions.len());
        }),
    );
}
