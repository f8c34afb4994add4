//! Property-based tests for the log manager.

use proptest::prelude::*;
use semcluster_storage::PageId;
use semcluster_wal::{LogConfig, LogManager, TxnToken};
use std::collections::HashSet;

proptest! {
    /// For any update stream inside one transaction, summing what the
    /// calls return: before-image I/Os equal the number of *distinct*
    /// pages touched, buffer flushes equal the byte arithmetic, and
    /// commit forces exactly once when anything is buffered.
    #[test]
    fn accounting_matches_model(
        buffer_kb in 1u32..64,
        updates in proptest::collection::vec((0u32..20, 1u32..2000), 1..100),
    ) {
        let cfg = LogConfig {
            buffer_bytes: buffer_kb * 1024,
            record_header_bytes: 24,
            force_on_commit: true,
        };
        let mut log = LogManager::new(cfg);
        let txn = log.begin();
        let mut distinct = HashSet::new();
        let mut total_bytes = 0u64;
        let (mut flushes, mut images, mut ios) = (0u64, 0u64, 0u64);
        for &(page, size) in &updates {
            distinct.insert(page);
            total_bytes += (size + 24) as u64;
            let io = log.log_update_detail(txn, PageId(page), size);
            flushes += u64::from(io.wrap_flushes);
            images += u64::from(io.before_image);
            ios += u64::from(io.total());
        }
        let expected_flushes = total_bytes / cfg.buffer_bytes as u64;
        prop_assert_eq!(flushes, expected_flushes);
        prop_assert_eq!(images, distinct.len() as u64);
        prop_assert_eq!(ios, flushes + images, "an update's I/Os are its kinds' sum");
        let commit_io = log.commit(txn);
        let leftover = total_bytes % cfg.buffer_bytes as u64;
        prop_assert_eq!(commit_io, u32::from(leftover > 0));
        prop_assert_eq!(log.buffered_bytes(), 0);
    }

    /// Concurrent transactions: each sees its own page set; interleaving
    /// never loses or double-counts before-images.
    #[test]
    fn interleaved_transactions_isolate_page_sets(
        script in proptest::collection::vec((0usize..3, 0u32..6), 1..120),
    ) {
        let mut log = LogManager::new(LogConfig {
            buffer_bytes: 1 << 20, // large: isolate the before-image logic
            record_header_bytes: 0,
            force_on_commit: false,
        });
        let mut txns = [log.begin(), log.begin(), log.begin()];
        let mut sets: [HashSet<u32>; 3] =
            [HashSet::new(), HashSet::new(), HashSet::new()];
        for &(t, page) in &script {
            let ios = log.log_update(txns[t], PageId(page), 8);
            let first = sets[t].insert(page);
            prop_assert_eq!(ios, u32::from(first));
        }
        for (t, txn) in txns.iter().enumerate() {
            prop_assert_eq!(log.commit(*txn), 0, "no force configured");
            let _ = t;
        }
        // Fresh transactions start with empty page sets.
        txns = [log.begin(), log.begin(), log.begin()];
        prop_assert_eq!(log.log_update(txns[0], PageId(0), 8), 1);
        for txn in txns {
            let _ = log.commit(txn);
        }
    }

    /// The log sequence number counts records: after any script of
    /// begins, updates, commits, group commits and aborts over up to
    /// four open transactions, `current_lsn` is the number of update,
    /// commit and abort records logged — the commit LSN the concurrent
    /// server puts on the wire.
    #[test]
    fn current_lsn_counts_updates_commits_and_aborts(
        script in proptest::collection::vec((0u8..5, 0usize..4, 0u32..8), 0..150),
    ) {
        let mut log = LogManager::new(LogConfig::default());
        let mut open: Vec<TxnToken> = Vec::new();
        let mut records = 0u64;
        for &(action, pick, page) in &script {
            let picked = pick % open.len().max(1);
            match action {
                0 if open.len() < 4 => open.push(log.begin()),
                1 if !open.is_empty() => {
                    log.log_update(open[picked], PageId(page), 64);
                    records += 1;
                }
                2 if !open.is_empty() => {
                    log.commit(open.swap_remove(picked));
                    records += 1;
                }
                3 if !open.is_empty() => {
                    log.abort(open.swap_remove(picked));
                    records += 1;
                }
                4 => {
                    let n = (pick + 1).min(open.len());
                    let group: Vec<TxnToken> = open.drain(..n).collect();
                    log.commit_group(&group);
                    records += group.len() as u64;
                }
                _ => {}
            }
            prop_assert_eq!(log.current_lsn(), records);
        }
    }
}
