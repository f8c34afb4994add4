//! [`FilePageStore`]: the real file-backed page store (DESIGN.md §15).
//! Restart recovery over its files is [`crate::recover_dir`].
//!
//! ## Layout
//!
//! A store directory holds two files:
//!
//! * `pages.db` — fixed 4096-byte checksummed page slots at offset
//!   `page_id * 4096` (see [`crate::codec`]);
//! * `wal.log` — an append-only stream of checksummed WAL records.
//!
//! ## Fsync ordering rules
//!
//! 1. **Snapshot durable before the page image is written.** A steal
//!    appends a full [`WalOp::PageSnapshot`] of the page to the log
//!    buffer and parks the image, stamped with that record's LSN, in a
//!    write-behind queue. The next WAL force — a commit's, normally —
//!    makes the snapshot durable, and only then are the queued images
//!    written and `pages.db` fsynced, once per drain. A torn page write
//!    is therefore always repairable from the log. A steal forces the
//!    log itself only when the queue holds 32 images.
//! 2. **Fsync before ack, one write per force.** Records collect in the
//!    log buffer; [`FilePageStore::commit`] appends the commit record,
//!    hands the whole buffer to the filesystem as one write and fsyncs
//!    the WAL before returning. Only an `Ok` return may be acknowledged
//!    to a client, and that verdict is the WAL fsync's alone: a failure
//!    writing the queued images afterwards loses nothing recovery cannot
//!    rebuild from the snapshots, so it is reported on the side
//!    ([`FilePageStore::take_drain_error`]), never as a failed commit.
//! 3. **A failed fsync poisons the handle** (fsyncgate). The pending
//!    writes are gone; retrying cannot resurrect them, so `commit`
//!    surfaces the error and the caller must fail the transaction,
//!    never retry-and-ack. The fault layer enforces this: post-failure
//!    operations return [`FsError::Poisoned`]. A failed WAL force also
//!    drops the queued images, whose snapshots went with it.
//!
//! ## Recovery
//!
//! [`crate::recover_dir`] runs on the plain files (no fault layer — it
//! models the restarted process): it truncates the torn WAL tail,
//! rebuilds each page from its newest trusted base (valid disk image or
//! logged snapshot), redoes terminated transactions' operations gated
//! on the per-page LSN, undoes in-flight losers, and repairs the files
//! in place — recovering twice is a no-op. It streams both files, so
//! its memory is the recovered pages and the transaction sets, not the
//! size of either file or the number of log records.

use crate::codec::{
    decode_page, encode_page_into, encode_snapshot_into, encode_wal_record_into, CodecError,
    PageRead, WalOp, DISK_PAGE_BYTES,
};
use semcluster_faults::{
    CrashPoint, FaultedDir, FsCrashReport, FsError, FsFaultConfig, FsFile, FsStats,
};
use std::fmt;
use std::path::{Path, PathBuf};

/// Errors the file store can raise.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// Filesystem-level failure (path is in the message).
    Fs(FsError),
    /// Encoding failure (page overflow).
    Codec(CodecError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Fs(e) => write!(f, "{e}"),
            StoreError::Codec(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<FsError> for StoreError {
    fn from(e: FsError) -> Self {
        StoreError::Fs(e)
    }
}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        StoreError::Codec(e)
    }
}

/// Page-slot file name inside a store directory.
pub const PAGES_FILE: &str = "pages.db";
/// WAL file name inside a store directory.
pub const WAL_FILE: &str = "wal.log";

pub(crate) const PAGE_BYTES: usize = DISK_PAGE_BYTES as usize;

/// Offset of `page`'s slot in `pages.db`.
pub(crate) fn slot_offset(page: u32) -> u64 {
    page as u64 * PAGE_BYTES as u64
}

/// Stolen page images the write-behind queue holds before a steal
/// forces the log itself rather than wait for the next commit's force.
const STEAL_QUEUE_IMAGES: usize = 32;
/// Page images a checkpoint writes between two `pages.db` fsyncs, which
/// bounds what the fault layer holds pending to 1 MiB.
const CHECKPOINT_SYNC_PAGES: usize = 256;

/// The real file-backed page store. See the module docs for the
/// on-disk protocol.
#[derive(Debug)]
pub struct FilePageStore {
    fs: FaultedDir,
    pages: FsFile,
    wal: FsFile,
    next_lsn: u64,
    /// The log buffer: every record appended since the last force,
    /// handed to the filesystem as one write by [`Self::sync_wal`].
    log: Vec<u8>,
    /// The write-behind queue: ids of the stolen pages whose images wait
    /// for the force that makes their snapshots durable, oldest first...
    queued: Vec<u32>,
    /// ...and those images in the same order, in the leading slots of
    /// a buffer of [`STEAL_QUEUE_IMAGES`] page slots.
    queue: Vec<u8>,
    /// First failure writing queued images out since it was last taken.
    drain_error: Option<StoreError>,
}

impl FilePageStore {
    /// Create a store rooted at `root` (created if absent) behind the
    /// given filesystem fault schedule.
    pub fn create(root: &Path, cfg: FsFaultConfig) -> Result<Self, StoreError> {
        let mut fs = FaultedDir::create(root, cfg)?;
        let pages = fs.open(PAGES_FILE)?;
        let wal = fs.open(WAL_FILE)?;
        Ok(FilePageStore {
            fs,
            pages,
            wal,
            next_lsn: 1,
            log: Vec::new(),
            queued: Vec::new(),
            queue: vec![0; STEAL_QUEUE_IMAGES * PAGE_BYTES],
            drain_error: None,
        })
    }

    /// Store directory.
    pub fn root(&self) -> &Path {
        self.fs.root()
    }

    /// Filesystem syscall/injection counters.
    pub fn stats(&self) -> FsStats {
        self.fs.stats()
    }

    /// Whether an injected crash point has fired.
    pub fn is_crashed(&self) -> bool {
        self.fs.is_crashed()
    }

    /// Next LSN to be assigned.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Arm a filesystem fault whose K counts from this call (see
    /// [`FaultedDir::arm_from_here`]).
    pub fn arm_from_here(&mut self, point: CrashPoint) {
        self.fs.arm_from_here(point);
    }

    /// The LSN the next record takes, or why a dead store takes none.
    fn claim_lsn(&mut self) -> Result<u64, StoreError> {
        if self.fs.is_crashed() {
            return Err(FsError::Crashed.into());
        }
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        Ok(lsn)
    }

    /// Append one WAL record to the log buffer (durable only after a
    /// WAL force). Returns the record's LSN.
    pub fn append_op(&mut self, txn: u64, op: &WalOp) -> Result<u64, StoreError> {
        let lsn = self.claim_lsn()?;
        encode_wal_record_into(&mut self.log, lsn, txn, op);
        Ok(lsn)
    }

    /// Force the WAL: one write of the whole log buffer, one fsync. The
    /// result is that fsync's alone. A successful force then writes out
    /// the queued page images — every snapshot they wait on is durable
    /// now — under one `pages.db` fsync; a failure there does not undo
    /// the force and is reported by [`Self::take_drain_error`]. A failed
    /// force drops the queue with the records (fsyncgate): images whose
    /// snapshots are gone must never reach the disk.
    pub fn sync_wal(&mut self) -> Result<(), StoreError> {
        let forced = self.force_log();
        self.log.clear();
        if forced.is_ok() {
            if let Err(e) = self.write_queued() {
                self.drain_error.get_or_insert(e.into());
            }
        }
        self.queued.clear();
        Ok(forced?)
    }

    fn force_log(&mut self) -> Result<(), FsError> {
        if !self.log.is_empty() {
            self.fs.append(self.wal, &self.log)?;
        }
        self.fs.fsync(self.wal)
    }

    fn write_queued(&mut self) -> Result<(), FsError> {
        if self.queued.is_empty() {
            return Ok(());
        }
        for (&page, image) in self.queued.iter().zip(self.queue.chunks_exact(PAGE_BYTES)) {
            self.fs.write_at(self.pages, slot_offset(page), image)?;
        }
        self.fs.fsync(self.pages)
    }

    /// The first failure to write queued page images out since the last
    /// call. The images it lost are healed from their logged snapshots
    /// at recovery; no commit's verdict depends on it.
    pub fn take_drain_error(&mut self) -> Option<StoreError> {
        self.drain_error.take()
    }

    /// Commit `txn`: append the commit record and force the WAL.
    /// Only an `Ok` return may be acknowledged; on `Err` the commit is
    /// not durable and — per fsyncgate — must not be retried.
    pub fn commit(&mut self, txn: u64) -> Result<u64, StoreError> {
        let lsn = self.append_op(txn, &WalOp::Commit)?;
        self.sync_wal()?;
        Ok(lsn)
    }

    /// Append an abort record (buffered; if it is lost to a crash the
    /// transaction recovers as a loser instead, which is equivalent).
    pub fn abort(&mut self, txn: u64) -> Result<u64, StoreError> {
        self.append_op(txn, &WalOp::Abort)
    }

    /// Steal (write back) a page: log a full snapshot of it and queue
    /// its image, stamped with the snapshot's LSN, behind the next WAL
    /// force — the WAL rule, satisfied by the group's force. Only a
    /// queue that has reached [`STEAL_QUEUE_IMAGES`] forces by itself.
    pub fn steal(&mut self, page: u32, slots: &[(u32, u32)]) -> Result<(), StoreError> {
        let lsn = self.claim_lsn()?;
        let slot = &mut self.queue[self.queued.len() * PAGE_BYTES..][..PAGE_BYTES];
        encode_page_into(slot, page, lsn, slots)?;
        self.queued.push(page);
        encode_snapshot_into(&mut self.log, lsn, page, slots);
        if self.queued.len() == STEAL_QUEUE_IMAGES {
            self.sync_wal()?;
        }
        Ok(())
    }

    /// Write the initial database image: every page, then a
    /// `CheckpointEnd` record. Recovery treats a WAL without a durable
    /// `CheckpointEnd` as a store that never opened.
    pub fn checkpoint<I, S>(&mut self, pages: I) -> Result<(), StoreError>
    where
        I: IntoIterator<Item = (u32, S)>,
        S: AsRef<[(u32, u32)]>,
    {
        let mut unsynced = 0;
        for (page, slots) in pages {
            if unsynced == CHECKPOINT_SYNC_PAGES {
                self.fs.fsync(self.pages)?;
                unsynced = 0;
            }
            self.write_page(page, 0, slots.as_ref())?;
            unsynced += 1;
        }
        self.fs.fsync(self.pages)?;
        self.append_op(0, &WalOp::CheckpointEnd)?;
        self.sync_wal()
    }

    /// Kill the process image: unsynced writes, the log buffer and the
    /// queued images are dropped; with `tear_last_write` the log buffer
    /// was mid-flight to the WAL and a partial prefix of it persists.
    /// Returns what the crash left behind.
    pub fn crash(&mut self, tear_last_write: bool) -> FsCrashReport {
        let in_flight = tear_last_write.then_some((self.wal, self.log.as_slice()));
        self.fs.crash(in_flight)
    }

    /// Report of an already-fired crash point, if any.
    pub fn crash_report(&self) -> Option<&FsCrashReport> {
        self.fs.crash_report()
    }

    /// Clean shutdown: force both files and return the root.
    pub fn finish(mut self) -> Result<PathBuf, StoreError> {
        self.sync()?;
        Ok(self.fs.root().to_path_buf())
    }

    /// Write (or overwrite) the image of `page` stamped with `lsn`.
    pub fn write_page(
        &mut self,
        page: u32,
        lsn: u64,
        slots: &[(u32, u32)],
    ) -> Result<(), StoreError> {
        let mut image = [0u8; PAGE_BYTES];
        encode_page_into(&mut image, page, lsn, slots)?;
        self.fs.write_at(self.pages, slot_offset(page), &image)?;
        Ok(())
    }

    /// Read back the image of `page`, verifying its checksum.
    pub fn read_page(&mut self, page: u32) -> Result<PageRead, StoreError> {
        // The newest queued image of the page is what the process sees.
        if let Some(i) = self.queued.iter().rposition(|&p| p == page) {
            return Ok(decode_page(&self.queue[i * PAGE_BYTES..][..PAGE_BYTES]));
        }
        let buf = self.fs.read_at(self.pages, slot_offset(page), PAGE_BYTES)?;
        Ok(decode_page(&buf))
    }

    /// Force the WAL, then make every written page durable.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.sync_wal()?;
        if let Some(e) = self.take_drain_error() {
            return Err(e);
        }
        self.fs.fsync(self.pages)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recover_dir;

    fn scratch(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("semcluster-filestore-{name}"));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn quiet_cfg() -> FsFaultConfig {
        FsFaultConfig {
            skip_physical_sync: true,
            ..FsFaultConfig::default()
        }
    }

    #[test]
    fn clean_run_recovers_committed_state() {
        let root = scratch("clean");
        let mut store = FilePageStore::create(&root, quiet_cfg()).unwrap();
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
        store.commit(7).unwrap();
        store.finish().unwrap();

        let rec = recover_dir(&root).unwrap();
        assert!(rec.checkpoint_seen);
        assert_eq!(rec.winners, vec![7]);
        assert!(rec.losers.is_empty());
        assert!(rec.violations.is_empty(), "{:?}", rec.violations);
        assert_eq!(rec.pages[&0].slots, vec![(1, 100), (2, 50)]);

        // Idempotence: a second recovery changes nothing.
        let again = recover_dir(&root).unwrap();
        assert_eq!(again.pages, rec.pages);
        assert!(again.repaired_pages.is_empty());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn unsynced_commit_recovers_as_loser_and_is_undone() {
        let root = scratch("loser");
        let mut store = FilePageStore::create(&root, quiet_cfg()).unwrap();
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
        store.sync_wal().unwrap(); // the op is durable, the commit is not
        store.append_op(7, &WalOp::Commit).unwrap();
        store.crash(false);

        let rec = recover_dir(&root).unwrap();
        assert_eq!(rec.losers, vec![7]);
        assert!(rec.winners.is_empty());
        assert!(rec.violations.is_empty(), "{:?}", rec.violations);
        assert_eq!(rec.pages[&0].slots, vec![(1, 100)], "loser place undone");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn torn_page_write_is_repaired_from_the_snapshot() {
        let root = scratch("tornpage");
        let mut store = FilePageStore::create(&root, quiet_cfg()).unwrap();
        store.checkpoint([(0u32, &[(1u32, 100u32)][..])]).unwrap();
        // Steal page 0 with new content; then tear the page bytes on
        // disk to simulate a torn write that the CRC catches.
        store.steal(0, &[(1, 100), (3, 300)]).unwrap();
        store.finish().unwrap();
        let pages_path = root.join(PAGES_FILE);
        let mut bytes = std::fs::read(&pages_path).unwrap();
        for b in bytes.iter_mut().skip(2048) {
            *b = 0xFF;
        }
        std::fs::write(&pages_path, &bytes).unwrap();

        let rec = recover_dir(&root).unwrap();
        assert_eq!(rec.torn_pages, vec![0]);
        assert_eq!(rec.repaired_pages, vec![0]);
        assert!(rec.violations.is_empty(), "{:?}", rec.violations);
        assert_eq!(rec.pages[&0].slots, vec![(1, 100), (3, 300)]);

        let again = recover_dir(&root).unwrap();
        assert!(again.torn_pages.is_empty());
        assert!(again.repaired_pages.is_empty());
        assert_eq!(again.pages, rec.pages);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn store_without_checkpoint_resets_to_empty() {
        let root = scratch("nockpt");
        let mut store = FilePageStore::create(&root, quiet_cfg()).unwrap();
        store.write_page(0, 0, &[(1, 100)]).unwrap();
        store
            .append_op(
                5,
                &WalOp::Place {
                    object: 9,
                    size: 10,
                    page: 0,
                },
            )
            .unwrap();
        store.sync().unwrap();
        store.crash(false);

        let rec = recover_dir(&root).unwrap();
        assert!(!rec.checkpoint_seen);
        assert!(rec.pages.is_empty());
        assert_eq!(std::fs::read(root.join(WAL_FILE)).unwrap(), b"");
        assert_eq!(std::fs::read(root.join(PAGES_FILE)).unwrap(), b"");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn fsyncgate_commit_failure_is_not_durable_and_not_retryable() {
        let root = scratch("fsyncgate");
        let cfg = FsFaultConfig {
            // fsync 1-2: checkpoint (pages, wal); fsync 3: the commit.
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
        let err = store.commit(7).unwrap_err();
        assert!(
            matches!(err, StoreError::Fs(FsError::SyncFailed { .. })),
            "{err}"
        );
        // Retrying the commit must fail too — the handle is poisoned
        // and the dirty records are gone.
        let retry = store.commit(7).unwrap_err();
        assert!(
            matches!(retry, StoreError::Fs(FsError::Poisoned { .. })),
            "{retry}"
        );
        store.crash(false);

        let rec = recover_dir(&root).unwrap();
        assert!(rec.winners.is_empty(), "failed commit must not be durable");
        assert_eq!(rec.pages[&0].slots, vec![(1, 100)]);
        std::fs::remove_dir_all(&root).unwrap();
    }

    fn place(object: u32, page: u32) -> WalOp {
        WalOp::Place {
            object,
            size: 50,
            page,
        }
    }

    #[test]
    fn a_commit_is_one_write_and_one_fsync_however_many_ops() {
        let root = scratch("onewrite");
        let mut store = FilePageStore::create(&root, quiet_cfg()).unwrap();
        store.checkpoint([(0u32, &[(1u32, 100u32)][..])]).unwrap();
        let before = store.stats();
        for object in 2..5 {
            store.append_op(7, &place(object, 0)).unwrap();
        }
        store.commit(7).unwrap();
        let after = store.stats();
        assert_eq!(after.writes - before.writes, 1, "the log buffer, once");
        assert_eq!(after.fsyncs - before.fsyncs, 1, "the WAL force");
        store.crash(false);
        assert_eq!(recover_dir(&root).unwrap().winners, vec![7]);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn a_stolen_image_waits_for_the_force_that_logs_its_snapshot() {
        let stolen: &[(u32, u32)] = &[(1, 100), (2, 50)];
        let image = |lsn: u64| PageRead::Valid {
            page: 0,
            lsn,
            slots: stolen.to_vec(),
        };

        // Crash before any force: the process saw the image, the disk
        // never did, and recovery rebuilds the page without it.
        let root = scratch("stealwaits");
        let mut store = FilePageStore::create(&root, quiet_cfg()).unwrap();
        store.checkpoint([(0u32, &[(1u32, 100u32)][..])]).unwrap();
        store.append_op(7, &place(2, 0)).unwrap();
        store.commit(7).unwrap();
        let before = store.stats();
        store.steal(0, stolen).unwrap();
        assert_eq!(store.stats(), before, "a steal is buffered");
        let snapshot_lsn = store.next_lsn() - 1;
        assert_eq!(store.read_page(0).unwrap(), image(snapshot_lsn));
        store.crash(false);
        let rec = recover_dir(&root).unwrap();
        assert!(rec.violations.is_empty(), "{:?}", rec.violations);
        assert_eq!(rec.pages[&0].slots, stolen, "checkpoint + redo");
        assert!(rec.pages[&0].lsn < snapshot_lsn, "the snapshot was lost");
        std::fs::remove_dir_all(&root).unwrap();

        // The next commit's force writes it out at the snapshot's LSN.
        let root = scratch("stealrides");
        let mut store = FilePageStore::create(&root, quiet_cfg()).unwrap();
        store.checkpoint([(0u32, &[(1u32, 100u32)][..])]).unwrap();
        store.append_op(7, &place(2, 0)).unwrap();
        store.steal(0, stolen).unwrap();
        let snapshot_lsn = store.next_lsn() - 1;
        let before = store.stats();
        store.commit(7).unwrap();
        let after = store.stats();
        assert_eq!(after.writes - before.writes, 2, "log buffer + image");
        assert_eq!(after.fsyncs - before.fsyncs, 2, "wal.log + pages.db");
        assert_eq!(store.queued.len(), 0);
        store.crash(false);
        let on_disk = std::fs::read(root.join(PAGES_FILE)).unwrap();
        assert_eq!(decode_page(&on_disk), image(snapshot_lsn));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn a_failed_page_drain_does_not_fail_the_commit_it_followed() {
        let root = scratch("drainfail");
        let cfg = FsFaultConfig {
            // fsync 1-2: checkpoint; 3: the commit's WAL force; 4: the
            // pages.db fsync of the drain that force released.
            fsync_fail_at: vec![4],
            ..quiet_cfg()
        };
        let mut store = FilePageStore::create(&root, cfg).unwrap();
        store.checkpoint([(0u32, &[(1u32, 100u32)][..])]).unwrap();
        store.append_op(7, &place(2, 0)).unwrap();
        store.steal(0, &[(1, 100), (2, 50)]).unwrap();
        store.commit(7).expect("the WAL force succeeded");
        let drain = store.take_drain_error().expect("the drain did not");
        assert!(
            matches!(drain, StoreError::Fs(FsError::SyncFailed { .. })),
            "{drain}"
        );
        assert_eq!(store.take_drain_error(), None);
        store.crash(false);

        let rec = recover_dir(&root).unwrap();
        assert_eq!(rec.winners, vec![7]);
        assert!(rec.violations.is_empty(), "{:?}", rec.violations);
        assert_eq!(rec.pages[&0].slots, vec![(1, 100), (2, 50)]);
        assert_eq!(rec.repaired_pages, vec![0], "healed from the snapshot");
        let again = recover_dir(&root).unwrap();
        assert!(again.repaired_pages.is_empty());
        assert_eq!(again.pages, rec.pages);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn steals_without_a_commit_force_themselves_at_the_queue_bound() {
        let root = scratch("queuebound");
        let mut store = FilePageStore::create(&root, quiet_cfg()).unwrap();
        let empty: &[(u32, u32)] = &[];
        store.checkpoint((0..40u32).map(|p| (p, empty))).unwrap();
        let before = store.stats();
        for page in 0..40u32 {
            store.steal(page, &[(page + 100, 10)]).unwrap();
            assert!(store.queued.len() < STEAL_QUEUE_IMAGES);
        }
        assert_eq!(store.queued.len(), 40 - STEAL_QUEUE_IMAGES);
        let after = store.stats();
        assert_eq!(after.fsyncs - before.fsyncs, 2, "one private force");
        assert_eq!(after.writes - before.writes, 1 + STEAL_QUEUE_IMAGES as u64);
        store.finish().unwrap();
        let rec = recover_dir(&root).unwrap();
        assert!(rec.violations.is_empty(), "{:?}", rec.violations);
        assert!(rec.repaired_pages.is_empty(), "finish drained the rest");
        assert_eq!(rec.pages[&39].slots, vec![(139, 10)]);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn a_torn_crash_tears_the_log_buffer_into_the_wal_tail() {
        let root = scratch("tornbuffer");
        let mut store = FilePageStore::create(&root, quiet_cfg()).unwrap();
        store.checkpoint([(0u32, &[(1u32, 100u32)][..])]).unwrap();
        store.append_op(7, &place(2, 0)).unwrap();
        store.steal(0, &[(1, 100), (2, 50)]).unwrap();
        let report = store.crash(true);
        let torn = report.torn.expect("the log buffer was in flight");
        assert!(torn.file.ends_with(WAL_FILE) && torn.kept > 0 && torn.lost > 0);

        let rec = recover_dir(&root).unwrap();
        assert!(rec.wal_truncated_bytes > 0, "a torn tail was cut");
        assert!(rec.violations.is_empty(), "{:?}", rec.violations);
        assert_eq!(rec.pages[&0].slots, vec![(1, 100)], "the loser is gone");
        let again = recover_dir(&root).unwrap();
        assert_eq!(again.wal_truncated_bytes, 0);
        assert!(again.repaired_pages.is_empty());
        assert_eq!(again.pages, rec.pages);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn a_fault_armed_after_the_checkpoint_counts_from_its_end() {
        // Short-write draws are seeded, so two stores' checkpoints take
        // different numbers of syscalls; a point armed afterwards fires
        // on the same post-checkpoint syscall in both.
        let empty: &[(u32, u32)] = &[];
        let run = |seed: u64| {
            let root = scratch(&format!("armed-{seed}"));
            let cfg = FsFaultConfig {
                seed,
                short_write_rate: 0.3,
                ..quiet_cfg()
            };
            let mut store = FilePageStore::create(&root, cfg).unwrap();
            store.checkpoint((0..64u32).map(|p| (p, empty))).unwrap();
            let checkpoint = store.stats();
            store.arm_from_here(CrashPoint::Syscall(2));
            store.arm_from_here(CrashPoint::FsyncFail(1));
            store.append_op(7, &place(2, 0)).unwrap();
            // Syscall 1 is the log write (too short to be cut short),
            // syscall 2 the fsync: the crash point outranks the failure.
            let err = store.commit(7).unwrap_err();
            assert_eq!(err, StoreError::Fs(FsError::Crashed));
            assert_eq!(store.stats().syscalls, checkpoint.syscalls + 2);
            std::fs::remove_dir_all(&root).unwrap();
            checkpoint.syscalls
        };
        assert_ne!(run(1), run(2), "pick seeds whose checkpoints differ");
    }

    #[test]
    fn moves_replay_across_pages() {
        let root = scratch("moves");
        let mut store = FilePageStore::create(&root, quiet_cfg()).unwrap();
        store
            .checkpoint([(0u32, &[(1u32, 100u32), (2, 200)][..]), (1u32, &[][..])])
            .unwrap();
        store
            .append_op(
                9,
                &WalOp::Move {
                    object: 2,
                    size: 200,
                    from: 0,
                    to: 1,
                },
            )
            .unwrap();
        store.commit(9).unwrap();
        store.crash(false);

        let rec = recover_dir(&root).unwrap();
        assert!(rec.violations.is_empty(), "{:?}", rec.violations);
        assert_eq!(rec.pages[&0].slots, vec![(1, 100)]);
        assert_eq!(rec.pages[&1].slots, vec![(2, 200)]);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
