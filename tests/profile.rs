//! Tier-1 contract of the deterministic phase profiler (DESIGN.md §13):
//! profiling must never perturb the simulation it measures, its
//! deterministic counters (calls, simulated time, allocation
//! accounting) must be byte-identical at any worker-thread count, and
//! the timeline sampler's page-locality fold must stay allocation-free.

use std::hint::black_box;

use semcluster::{run_simulation_observed, ObsConfig, SimConfig, SweepRunner};
use semcluster_cli::golden::{
    pinned_leaf_expected, profile_golden_jobs, DEFAULT_TIMELINE_INTERVAL_US, ZERO_ALLOC_PIN_LEAVES,
};
use semcluster_cli::{dispatch, Args};
use semcluster_clustering::{ClusteringPolicy, SplitPolicy};
use semcluster_obs::{allocation_counts, shared, AuditKind, TraceEvent};
use semcluster_workload::StructureDensity;

/// Register the same counting allocator the CLI binary uses, so the
/// allocation counts asserted below are real measurements, not the
/// all-zero placeholder of an uninstrumented binary.
#[global_allocator]
static ALLOC: semcluster_obs::CountingAlloc = semcluster_obs::CountingAlloc;

fn tiny(seed: u64) -> SimConfig {
    SimConfig {
        database_bytes: 2 * 1024 * 1024,
        buffer_pages: 24,
        warmup_txns: 40,
        measured_txns: 120,
        seed,
        ..SimConfig::default()
    }
    .with_workload(StructureDensity::Med5, 10.0)
}

fn parse(tokens: &[&str]) -> Args {
    Args::parse(tokens.iter().map(|s| s.to_string())).expect("valid flags")
}

#[test]
fn counting_allocator_is_registered_and_counts_bytes() {
    let (bytes_before, allocs_before) = allocation_counts();
    let v: Vec<u8> = black_box(Vec::with_capacity(4096));
    let (bytes_after, allocs_after) = allocation_counts();
    drop(v);
    assert!(
        bytes_after - bytes_before >= 4096,
        "expected the 4 KiB buffer to be counted, got {} bytes",
        bytes_after - bytes_before
    );
    assert!(allocs_after > allocs_before);
    // Frees must not decrement: the counters measure allocation
    // pressure, not live heap.
    let (bytes_final, _) = allocation_counts();
    assert!(bytes_final >= bytes_after);
}

/// Profiling on vs off: the simulation result must be byte-identical.
/// The profiler only ever observes — one drifting counter here would
/// mean the instrumentation itself changed engine behaviour.
#[test]
fn profiler_is_inert() {
    let (plain, _) = run_simulation_observed(tiny(42), ObsConfig::default());
    let (profiled, obs) = run_simulation_observed(tiny(42), ObsConfig::default().profile());
    assert_eq!(plain.to_json(), profiled.to_json());
    let profile = obs.profile.expect("profiling was enabled");
    assert!(profile.get("run").is_some(), "missing root stack");
    assert!(
        profile.get("run;buffer_lookup").is_some(),
        "missing buffer_lookup stack"
    );
}

/// The golden sweep's merged profiles — calls, simulated time and
/// allocation counts — must not depend on the worker-thread count,
/// and every pinned hot-path leaf phase (page locality, placement
/// scoring, split planning, buffer lookup, event-queue pop) must be
/// allocation-free under the real counting allocator.
#[test]
fn profile_is_identical_at_any_thread_count() {
    let jobs = profile_golden_jobs();
    let run = |threads: usize| {
        SweepRunner::new(threads)
            .with_obs(|_, _| {
                ObsConfig::default()
                    .timeline(DEFAULT_TIMELINE_INTERVAL_US)
                    .profile()
            })
            .run(jobs.clone())
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(serial.items.len(), parallel.items.len());
    for ((a, b), job) in serial.items.iter().zip(&parallel.items).zip(&jobs) {
        let pa = a.obs.profile.as_ref().expect("profiled sweep");
        let pb = b.obs.profile.as_ref().expect("profiled sweep");
        assert_eq!(
            pa.to_json(),
            pb.to_json(),
            "job {} profile drifted",
            a.label
        );
        for leaf in ZERO_ALLOC_PIN_LEAVES {
            let pinned: Vec<_> = pa
                .phases()
                .filter(|(path, _)| path.rsplit(';').next() == Some(*leaf))
                .collect();
            assert!(
                !pinned.is_empty() || !pinned_leaf_expected(leaf, &job.cfg),
                "job {}: no {leaf} stack",
                a.label
            );
            for (path, s) in pinned {
                assert!(s.calls > 0, "job {}: {path} never ran", a.label);
                assert_eq!(
                    (s.alloc_bytes, s.allocs),
                    (0, 0),
                    "job {}: pinned hot-path stack {path} allocated",
                    a.label
                );
            }
        }
    }
    let ma = serial.obs.profile.expect("merged profile");
    let mb = parallel.obs.profile.expect("merged profile");
    assert_eq!(ma.to_json(), mb.to_json());
}

/// The split decision is its own phase, entered once per create that
/// was bound for the append cursor because its preferred page was full —
/// shortcut, partition and verdict alike — and it never allocates.
#[test]
fn split_plan_phase_counts_overflowing_creates_and_does_not_allocate() {
    let cfg = SimConfig {
        clustering: ClusteringPolicy::NoLimit,
        split: SplitPolicy::Linear,
        ..tiny(4200)
    };
    let events = shared(Vec::<TraceEvent>::new());
    let (report, obs) = run_simulation_observed(
        cfg,
        ObsConfig::with_sink(Box::new(events.clone())).profile(),
    );
    let overflowing = events
        .borrow()
        .iter()
        .filter(|e| {
            matches!(
                e,
                TraceEvent::Placement {
                    kind: AuditKind::Create,
                    preferred_full: Some(_),
                    chosen: None,
                    ..
                }
            )
        })
        .count() as u64;
    assert!(report.splits > 0 && overflowing > report.splits);
    let profile = obs.profile.expect("profiling was enabled");
    let phase = profile.get("run;split_plan").expect("split_plan stack");
    assert_eq!(phase.calls, overflowing);
    assert_eq!((phase.alloc_bytes, phase.allocs, phase.sim_us), (0, 0, 0));
}

/// `simulate --profile` puts only deterministic counters on stdout.
#[test]
fn simulate_profile_emits_schema_line() {
    let out = dispatch(&parse(&[
        "simulate",
        "--preset",
        "low3-5",
        "--txns",
        "60",
        "--buffer-pages",
        "16",
        "--profile",
    ]))
    .expect("simulate --profile runs");
    assert!(out.contains("\"profile_schema\":1"));
    assert!(out.contains("\"run;buffer_lookup\""));
    assert!(
        !out.contains("wall_ns"),
        "wall-clock material leaked onto stdout"
    );
}

/// The object catalog's create path is allocation-free: a record is
/// `Copy`, names are interned into one arena and a derivation reports
/// masks, so 10 000 derivations — and 10 000 creates the way the engine's
/// `exec_create` makes them, each under a name never seen before — cost
/// only the doublings of the catalog's own vectors and tables. (The
/// string-keyed catalog made 26.5 and 14.2 allocator calls per call.)
#[test]
fn catalog_creates_and_derivations_do_not_allocate() {
    use semcluster_vdm::{derive_version, NameKey, ObjectId, RelKind, SyntheticDbSpec};
    use std::fmt::Write as _;

    const CALLS: u32 = 10_000;
    let (mut db, stats) = SyntheticDbSpec {
        modules: 150,
        version_prob: 0.0,
        seed: 1989,
        ..SyntheticDbSpec::default()
    }
    .build();
    assert!(stats.objects > CALLS as usize);
    let model = semcluster_vdm::CopyVsRefModel::default();

    let (_, before) = allocation_counts();
    let mut by_reference = 0;
    for parent in 0..CALLS {
        let derived = derive_version(&mut db, ObjectId(parent), &model).expect("live parent");
        by_reference += derived.referenced.count_ones();
    }
    let (_, after) = allocation_counts();
    assert!(by_reference >= CALLS, "derivations inherited nothing");
    // 33 at seed 1989: a spill table beside the graph's nodes adds its
    // own doublings (43).
    assert!(
        after - before <= 40,
        "{CALLS} derivations made {} allocator calls",
        after - before
    );

    let mut name_buf = String::with_capacity(16);
    let (_, before) = allocation_counts();
    for seq in 0..CALLS {
        let anchor = *db.get(ObjectId(seq)).expect("built object");
        name_buf.clear();
        write!(name_buf, "w{seq}").expect("writing to a String cannot fail");
        let name = NameKey {
            base: db.intern(&name_buf),
            version: 1,
            rep: anchor.name.rep,
        };
        let id = db
            .create_object_key(name, anchor.ty, 256)
            .expect("fresh name");
        db.relate(RelKind::Configuration, anchor.id, id)
            .expect("fresh edge");
    }
    let (_, after) = allocation_counts();
    assert!(
        after - before <= 64,
        "{CALLS} fresh-named creates made {} allocator calls",
        after - before
    );
    assert_eq!(db.object_count(), stats.objects + 2 * CALLS as usize);
}

/// The durable write path in steady state — two op records, a page
/// steal and the commit that forces them, through the fault layer to
/// the real files — reuses the store's log buffer and write-behind
/// queue and the fault layer's pending arenas: once they have grown to
/// a cycle's size, nothing allocates.
#[test]
fn durable_commit_cycle_does_not_allocate() {
    use semcluster_faults::FsFaultConfig;
    use semcluster_storage::{FilePageStore, WalOp};

    let root = std::env::temp_dir().join(format!("semcluster-profile-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let quiet = FsFaultConfig {
        skip_physical_sync: true,
        ..FsFaultConfig::default()
    };
    let mut store = FilePageStore::create(&root, quiet).expect("scratch store");
    let slots: Vec<(u32, u32)> = (0..12).map(|s| (1000 + s, 200 + s * 7)).collect();
    store
        .checkpoint((0..64u32).map(|p| (p, &slots[..])))
        .expect("checkpoint");
    let mut cycle = |txn: u64| {
        let page = (txn % 64) as u32;
        for object in [2000, 2001] {
            let op = WalOp::Touch {
                object,
                size: 50,
                page,
            };
            store.append_op(txn, &op).expect("buffered");
        }
        store.steal(page, &slots).expect("queued");
        store.commit(txn).expect("forced");
        assert_eq!(store.take_drain_error(), None);
    };
    (1..=8).for_each(&mut cycle);
    let (before, _) = allocation_counts();
    (9..=1008).for_each(&mut cycle);
    let (after, _) = allocation_counts();
    assert_eq!(after - before, 0, "bytes allocated by 1000 commit cycles");
    std::fs::remove_dir_all(&root).expect("scratch store removed");
}

/// Restart recovery streams both store files: what it allocates is the
/// recovered pages and the transaction sets, never either file's bytes
/// or the log's records. A page-heavy store (2 048 pages of 12 slots, an
/// 8 MiB `pages.db`) and a log-heavy one (64 pages under 24 000 touch +
/// steal + commit cycles, a 5.6 MiB `wal.log`) each recover for under a
/// quarter of their larger file. Reading the files whole requested more
/// than that file's size on both.
#[test]
fn recovery_allocates_for_pages_not_for_file_bytes() {
    use semcluster_faults::FsFaultConfig;
    use semcluster_storage::{recover_dir, FilePageStore, WalOp, PAGES_FILE, WAL_FILE};

    let page_slots =
        |page: u32| -> Vec<(u32, u32)> { (0..12).map(|s| (page * 12 + s, 200 + s * 7)).collect() };
    for (name, pages, cycles) in [("page-heavy", 2048u32, 0u64), ("log-heavy", 64, 24_000)] {
        let root =
            std::env::temp_dir().join(format!("semcluster-profile-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let quiet = FsFaultConfig {
            skip_physical_sync: true,
            ..FsFaultConfig::default()
        };
        let mut store = FilePageStore::create(&root, quiet).expect("scratch store");
        store
            .checkpoint((0..pages).map(|p| (p, page_slots(p))))
            .expect("checkpoint");
        for txn in 1..=cycles {
            let page = (txn % u64::from(pages)) as u32;
            let touch = WalOp::Touch {
                object: page * 12,
                size: 50,
                page,
            };
            store.append_op(txn, &touch).expect("buffered");
            store.steal(page, &page_slots(page)).expect("queued");
            store.commit(txn).expect("forced");
        }
        store.finish().expect("clean shutdown");
        let larger = [PAGES_FILE, WAL_FILE]
            .iter()
            .map(|file| {
                std::fs::metadata(root.join(file))
                    .expect("store file")
                    .len()
            })
            .max()
            .expect("two files");

        let (before, _) = allocation_counts();
        let rec = recover_dir(&root).expect("recovers");
        let (after, _) = allocation_counts();
        assert!(rec.violations.is_empty(), "{name}: {:?}", rec.violations);
        assert_eq!(rec.pages.len(), pages as usize, "{name}");
        assert_eq!(rec.winners.len() as u64, cycles, "{name}");
        assert!(
            (after - before) * 4 < larger,
            "{name}: recovery requested {} bytes beside a {larger}-byte file",
            after - before
        );
        std::fs::remove_dir_all(&root).expect("scratch store removed");
    }
}
