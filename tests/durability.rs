//! Durable file-store contract (DESIGN.md §15): the crash matrix, run
//! against real files on disk, finds zero ACID violations — including at
//! injected syscall-crash, torn-write and fsync-failure points — its
//! render is byte-identical at any worker thread count, and restart
//! recovery from a crashed directory is an idempotent byte-level no-op.

use semcluster::{run_crash_matrix, CrashMatrixConfig, CrashPoint, SimConfig};
use semcluster_faults::FsFaultConfig;
use semcluster_storage::{recover_dir, FilePageStore, WalOp, PAGES_FILE, WAL_FILE};

fn tiny_matrix(jobs: usize) -> CrashMatrixConfig {
    let mut mc = CrashMatrixConfig::smoke();
    mc.cfg = SimConfig {
        database_bytes: 256 * 1024,
        buffer_pages: 8,
        warmup_txns: 3,
        measured_txns: 10,
        seed: 90,
        ..SimConfig::default()
    };
    mc.event_samples = 4;
    mc.mid_flush_samples = 2;
    mc.syscall_samples = 5;
    mc.fsync_fail_samples = 2;
    mc.skip_physical_sync = true; // durability semantics kept; physical sync_all skipped
    mc.jobs = jobs;
    mc
}

#[test]
fn file_backend_matrix_is_violation_free_with_full_fault_coverage() {
    let report = run_crash_matrix(&tiny_matrix(2));
    assert_eq!(report.violation_count(), 0, "{}", report.render());

    // The matrix must exercise every filesystem fault mode: syscall
    // crashes, torn partial-sector writes, and runs that survive an
    // injected fsync failure without acking.
    assert!(
        report
            .points
            .iter()
            .any(|p| matches!(p.point, CrashPoint::Syscall(_))),
        "no syscall crash points sampled"
    );
    assert!(
        report
            .points
            .iter()
            .any(|p| matches!(p.point, CrashPoint::FsyncFail(_))),
        "no fsync-failure points sampled"
    );
    assert!(
        report.points.iter().any(|p| p.torn_write),
        "no point tore its final write"
    );
    assert!(
        report.points.iter().any(|p| p.fsync_failed),
        "no run survived an injected fsync failure"
    );
    // Recovery actually did work somewhere: pages repaired from the
    // log or torn WAL tails truncated.
    assert!(
        report
            .points
            .iter()
            .any(|p| p.repaired_pages > 0 || p.wal_truncated > 0),
        "recovery never repaired or truncated anything"
    );
}

#[test]
fn a_failed_fsync_costs_exactly_the_acks_that_waited_on_it() {
    // Fail every post-checkpoint fsync in turn. A failed WAL force
    // poisons the log, so no later commit is acked; a failed pages.db
    // fsync — the drain a successful force released — fails no commit
    // at all: its images are healed from their logged snapshots.
    let mut mc = tiny_matrix(2);
    mc.fsync_fail_samples = usize::MAX;
    let report = run_crash_matrix(&mc);
    assert_eq!(report.violation_count(), 0, "{}", report.render());
    let failed: Vec<_> = report.points.iter().filter(|p| p.fsync_failed).collect();
    let all_acked = report.points.iter().map(|p| p.acked).max().unwrap();
    assert!(
        failed.iter().any(|p| p.acked < all_acked),
        "no WAL force was failed"
    );
    assert!(
        failed
            .iter()
            .any(|p| p.acked == all_acked && p.repaired_pages > 0),
        "no pages.db drain was failed"
    );
}

#[test]
fn crash_matrix_render_is_thread_count_invariant_on_both_backends() {
    // Every point class is sampled: commit boundaries, events, torn
    // log writes, syscall crashes and fsync failures.
    let serial = run_crash_matrix(&tiny_matrix(1));
    let parallel = run_crash_matrix(&tiny_matrix(4));
    assert_eq!(serial.render(), parallel.render());
    assert_eq!(serial.violation_count(), 0, "{}", serial.render());
    for class in ["commit:", "event:", "midflush:", "syscall:", "fsyncfail:"] {
        assert!(
            serial
                .points
                .iter()
                .any(|p| p.point.label().starts_with(class)),
            "no {class} point"
        );
    }
}

#[test]
fn recovery_after_fsync_failure_never_surfaces_the_unacked_commit() {
    // fsyncgate end to end, against real files: a commit whose fsync
    // fails must not be acknowledged, and restart recovery must not
    // surface it as a winner even though its records may be on disk.
    let root = std::env::temp_dir().join(format!("semcluster-durab-gate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let cfg = FsFaultConfig {
        // fsyncs 1-2 are the checkpoint (pages, wal); fsync 3 is the
        // first commit's log force.
        fsync_fail_at: vec![3],
        skip_physical_sync: true,
        ..FsFaultConfig::default()
    };
    let mut store = FilePageStore::create(&root, cfg).unwrap();
    store.checkpoint([(0u32, &[(1u32, 100u32)][..])]).unwrap();
    store
        .append_op(
            7,
            &WalOp::Place {
                object: 2,
                size: 50,
                page: 0,
            },
        )
        .unwrap();
    assert!(
        store.commit(7).is_err(),
        "commit must not ack a failed fsync"
    );
    assert!(
        store.commit(7).is_err(),
        "retrying on a poisoned handle must fail"
    );
    store.crash(false);

    let rec = recover_dir(&root).unwrap();
    assert!(rec.violations.is_empty(), "{:?}", rec.violations);
    assert!(
        !rec.winners.contains(&7),
        "unacked commit surfaced as a winner: {:?}",
        rec.winners
    );

    // Recovery is an idempotent byte-level no-op the second time.
    let bytes1 = (
        std::fs::read(root.join(PAGES_FILE)).unwrap(),
        std::fs::read(root.join(WAL_FILE)).unwrap(),
    );
    let again = recover_dir(&root).unwrap();
    let bytes2 = (
        std::fs::read(root.join(PAGES_FILE)).unwrap(),
        std::fs::read(root.join(WAL_FILE)).unwrap(),
    );
    assert_eq!(rec.pages, again.pages);
    assert_eq!(bytes1, bytes2);
    std::fs::remove_dir_all(&root).unwrap();
}
