//! The transaction log manager.
//!
//! Faithful to §4's description of the simulation model:
//!
//! * log records are sized by the created/modified object,
//! * records accumulate in a **circular in-memory log buffer** shared by
//!   all transactions and are flushed (one physical I/O) when the buffer
//!   fills,
//! * commits force the buffered tail, and
//! * the *original page* of an updated object is flushed **once per
//!   transaction** even when several objects on it are updated — the
//!   before-image coalescing behind Figure 5.5's result that clustering
//!   reduces logging I/O.
//!
//! Multiple transactions (one per user of the closed network) may be open
//! concurrently; each holds its own page set. Records are not kept:
//! every update, commit and abort takes the next log sequence number,
//! and that is all that is left of it. Nor are I/Os tallied here: every
//! call returns the physical I/Os it triggered, and the caller counts
//! them in its own ledger.

use semcluster_storage::PageId;
use semcluster_vdm::{DetHashMap, DetHashSet};

/// Handle of an open transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TxnToken(u64);

impl TxnToken {
    /// Raw transaction id, for backends keyed on plain integers (the
    /// durable file store logs `u64` transaction ids).
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// Log-manager configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogConfig {
    /// Capacity of the circular in-memory log buffer in bytes.
    pub buffer_bytes: u32,
    /// Fixed header per log record in bytes.
    pub record_header_bytes: u32,
    /// Whether commit forces the buffered tail to disk.
    pub force_on_commit: bool,
}

impl Default for LogConfig {
    fn default() -> Self {
        LogConfig {
            buffer_bytes: 16 * 1024,
            record_header_bytes: 24,
            force_on_commit: true,
        }
    }
}

/// Physical log I/Os triggered by one [`LogManager::log_update`],
/// broken down by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateLogIo {
    /// Whether this update's page needed a first-touch before-image.
    pub before_image: bool,
    /// Circular-buffer wrap flushes (a huge record can wrap repeatedly).
    pub wrap_flushes: u32,
}

impl UpdateLogIo {
    /// Total physical I/Os.
    pub fn total(&self) -> u32 {
        self.wrap_flushes + self.before_image as u32
    }
}

/// The log manager. One instance per simulated server.
#[derive(Debug, Clone)]
pub struct LogManager {
    cfg: LogConfig,
    buffered: u32,
    next_token: u64,
    // Fixed-seed hashing: the open-transaction map is mutated inside
    // the engine's profiled WAL-append phase, so its allocation pattern
    // must not depend on the thread's random hash seed (DESIGN.md §13).
    open: DetHashMap<TxnToken, DetHashSet<PageId>>,
    /// Log sequence numbers assigned so far.
    next_lsn: u64,
}

impl LogManager {
    /// New log manager with an empty buffer.
    pub fn new(cfg: LogConfig) -> Self {
        assert!(cfg.buffer_bytes > 0, "log buffer must be non-empty");
        LogManager {
            cfg,
            buffered: 0,
            next_token: 0,
            open: DetHashMap::default(),
            next_lsn: 0,
        }
    }

    /// Next log sequence number to be assigned: the update, commit and
    /// abort records logged so far.
    pub fn current_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Configuration in use.
    pub fn config(&self) -> LogConfig {
        self.cfg
    }

    /// Bytes currently buffered (not yet flushed).
    pub fn buffered_bytes(&self) -> u32 {
        self.buffered
    }

    /// Number of transactions currently open.
    pub fn open_transactions(&self) -> usize {
        self.open.len()
    }

    /// Open a transaction.
    pub fn begin(&mut self) -> TxnToken {
        let token = TxnToken(self.next_token);
        self.next_token += 1;
        self.open.insert(token, DetHashSet::default());
        token
    }

    /// Log a create/update of an object of `object_bytes` living on
    /// `page`, inside transaction `txn`. Returns the number of physical
    /// I/Os this action triggered (buffer-full flushes plus a first-touch
    /// before-image).
    ///
    /// # Panics
    /// Panics if `txn` is not open.
    pub fn log_update(&mut self, txn: TxnToken, page: PageId, object_bytes: u32) -> u32 {
        self.log_update_detail(txn, page, object_bytes).total()
    }

    /// Like [`LogManager::log_update`], but reporting the physical I/Os
    /// by kind, so callers can attribute before-images separately from
    /// buffer-wrap flushes.
    ///
    /// # Panics
    /// Panics if `txn` is not open.
    pub fn log_update_detail(
        &mut self,
        txn: TxnToken,
        page: PageId,
        object_bytes: u32,
    ) -> UpdateLogIo {
        let pages = self.open.get_mut(&txn).expect("transaction is open");
        let mut io = UpdateLogIo::default();
        self.buffered += self.cfg.record_header_bytes + object_bytes;
        // Before-image of the original page, once per transaction.
        io.before_image = pages.insert(page);
        self.next_lsn += 1;
        // The circular buffer wraps: flush whole buffers as needed. A
        // single huge record can wrap more than once.
        while self.buffered >= self.cfg.buffer_bytes {
            self.buffered -= self.cfg.buffer_bytes;
            io.wrap_flushes += 1;
        }
        io
    }

    /// Commit `txn`. Returns the physical I/Os triggered (the commit
    /// force, if configured and anything is buffered).
    ///
    /// # Panics
    /// Panics if `txn` is not open.
    pub fn commit(&mut self, txn: TxnToken) -> u32 {
        self.open.remove(&txn).expect("transaction is open");
        self.next_lsn += 1;
        if self.cfg.force_on_commit && self.buffered > 0 {
            self.buffered = 0;
            1
        } else {
            0
        }
    }

    /// Commit a whole group of transactions with a **single** force:
    /// every member's commit record is appended, then one flush makes
    /// the entire batch durable together. This is the group-commit
    /// primitive the concurrent server uses — under contention, N
    /// transactions committing in the same window pay one physical log
    /// force instead of N. Returns the physical I/Os triggered (0 or 1).
    ///
    /// Durability contract is identical to calling [`LogManager::commit`]
    /// per member: no member may be acknowledged before this call
    /// returns, and after it returns every member's commit record has
    /// reached stable storage (when `force_on_commit` is set).
    ///
    /// # Panics
    /// Panics if any member of `txns` is not open.
    pub fn commit_group(&mut self, txns: &[TxnToken]) -> u32 {
        for &txn in txns {
            self.open.remove(&txn).expect("transaction is open");
            self.next_lsn += 1;
        }
        if txns.is_empty() {
            return 0;
        }
        if self.cfg.force_on_commit && self.buffered > 0 {
            self.buffered = 0;
            1
        } else {
            0
        }
    }

    /// Abort `txn` (buffered records stay — they will be superseded by
    /// compensation in a real system; the simulation only needs the I/O
    /// accounting to stop).
    ///
    /// # Panics
    /// Panics if `txn` is not open.
    pub fn abort(&mut self, txn: TxnToken) {
        self.open.remove(&txn).expect("transaction is open");
        self.next_lsn += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> PageId {
        PageId(i)
    }

    fn mgr(buffer: u32) -> LogManager {
        LogManager::new(LogConfig {
            buffer_bytes: buffer,
            record_header_bytes: 24,
            force_on_commit: true,
        })
    }

    #[test]
    fn small_txn_is_one_image_plus_force() {
        let mut log = mgr(16 * 1024);
        let t = log.begin();
        let ios = log.log_update(t, p(1), 100);
        assert_eq!(ios, 1, "first touch of the page logs a before-image");
        let ios = log.commit(t);
        assert_eq!(ios, 1, "commit forces the tail");
        assert_eq!(log.buffered_bytes(), 0);
    }

    #[test]
    fn same_page_updates_coalesce() {
        let mut log = mgr(16 * 1024);
        let t = log.begin();
        let mut ios = 0;
        for _ in 0..5 {
            ios += log.log_update(t, p(7), 100);
        }
        assert_eq!(ios, 1, "one before-image for five same-page updates");
        ios += log.commit(t);
        assert_eq!(ios, 2);

        // Scattered updates: five pages, five images. This is exactly why
        // clustering reduces log I/O (Figure 5.5).
        let mut scattered = mgr(16 * 1024);
        let t = scattered.begin();
        let mut ios2 = 0;
        for i in 0..5 {
            ios2 += scattered.log_update(t, p(i), 100);
        }
        ios2 += scattered.commit(t);
        assert_eq!(ios2, 6);
    }

    #[test]
    fn group_commit_forces_once_for_the_whole_batch() {
        let mut log = mgr(16 * 1024);
        let group: Vec<TxnToken> = (0..4)
            .map(|i| {
                let t = log.begin();
                log.log_update(t, p(i), 100);
                t
            })
            .collect();
        let ios = log.commit_group(&group);
        assert_eq!(ios, 1, "one force covers four commits");
        assert_eq!(log.current_lsn(), 8, "four updates, four commit records");
        assert_eq!(log.open_transactions(), 0);
        assert_eq!(log.buffered_bytes(), 0);
        // Empty batch is a no-op.
        assert_eq!(log.commit_group(&[]), 0);
        assert_eq!(log.current_lsn(), 8);
    }

    #[test]
    fn concurrent_transactions_have_independent_page_sets() {
        let mut log = mgr(16 * 1024);
        let a = log.begin();
        let b = log.begin();
        assert_eq!(log.open_transactions(), 2);
        assert_eq!(log.log_update(a, p(1), 10), 1);
        // Same page, different transaction: its own before-image.
        assert_eq!(log.log_update(b, p(1), 10), 1);
        assert_eq!(log.log_update(a, p(1), 10), 0);
        log.commit(a);
        log.commit(b);
        assert_eq!(log.open_transactions(), 0);
    }

    #[test]
    fn buffer_wrap_flushes() {
        let mut log = mgr(1000);
        let t = log.begin();
        // 24 + 476 = 500 bytes per record: second record wraps.
        let io1 = log.log_update(t, p(1), 476);
        let io2 = log.log_update(t, p(1), 476);
        let io3 = log.log_update(t, p(1), 476);
        assert_eq!(io1, 1); // before-image only
        assert_eq!(io2, 1); // buffer reaches exactly 1000 → flush
        assert_eq!(io3, 0); // 500 buffered, same page
        assert_eq!(log.buffered_bytes(), 500);
    }

    #[test]
    fn oversized_record_wraps_multiple_times() {
        let mut log = mgr(100);
        let t = log.begin();
        let io = log.log_update_detail(t, p(1), 276); // 300 bytes vs 100-byte buffer
        assert_eq!(io.wrap_flushes, 3);
        assert_eq!(io.total(), 4); // 3 wraps + 1 before-image
        assert_eq!(log.buffered_bytes(), 0);
    }

    #[test]
    fn page_set_resets_per_transaction() {
        let mut log = mgr(16 * 1024);
        let t1 = log.begin();
        assert_eq!(log.log_update(t1, p(1), 10), 1);
        log.commit(t1);
        let t2 = log.begin();
        assert_eq!(log.log_update(t2, p(1), 10), 1, "new txn, new image");
        log.commit(t2);
    }

    #[test]
    fn no_force_config_skips_commit_io() {
        let mut log = LogManager::new(LogConfig {
            force_on_commit: false,
            ..LogConfig::default()
        });
        let t = log.begin();
        log.log_update(t, p(1), 100);
        assert_eq!(log.commit(t), 0);
        assert!(log.buffered_bytes() > 0, "tail stays buffered");
    }

    #[test]
    fn abort_clears_transaction_state() {
        let mut log = mgr(16 * 1024);
        let t = log.begin();
        log.log_update(t, p(1), 10);
        log.abort(t);
        assert_eq!(log.open_transactions(), 0);
        let t2 = log.begin();
        assert_eq!(log.log_update(t2, p(1), 10), 1);
    }

    #[test]
    #[should_panic(expected = "transaction is open")]
    fn update_on_committed_txn_panics() {
        let mut log = mgr(1024);
        let t = log.begin();
        log.commit(t);
        log.log_update(t, p(1), 10);
    }
}
