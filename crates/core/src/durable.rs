//! The durable mirror: a [`FilePageStore`] shadowing a simulation run
//! (DESIGN.md §15).
//!
//! The engine stays a discrete-event simulation — simulated time,
//! placement decisions and metrics are untouched — but with a mirror
//! attached every logical storage effect is also written through the
//! real file-backed store under the WAL protocol:
//!
//! * object placement / removal / movement / update → WAL op records
//!   owned by the simulated transaction's token;
//! * page write-back (evict or split flush) → log-forced
//!   [`WalOp::PageSnapshot`] followed by the real page write;
//! * commit → commit record + WAL fsync, and the engine only
//!   acknowledges the transaction if that fsync succeeded (an injected
//!   fsync failure reroutes the token to `unacked`, never retried);
//! * engine abort → abort record.
//!
//! Everything is a single `Option` branch when no mirror is attached,
//! so the four golden suites are byte-identical with the feature
//! compiled in — the same inertness discipline as tracing and
//! profiling.

use semcluster_faults::{FsCrashReport, FsFaultConfig};
use semcluster_storage::{FilePageStore, StorageManager, StoreError, WalOp};
use std::path::{Path, PathBuf};

/// How many mirror-side errors are retained verbatim for diagnosis.
const MAX_ERRORS: usize = 8;

/// Counters of the mirror's durable traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MirrorStats {
    /// WAL op records appended (places, removes, moves, touches).
    pub ops_logged: u64,
    /// Page steals (snapshot + page write + fsyncs).
    pub steals: u64,
    /// Commits whose WAL fsync succeeded (ackable).
    pub commits_ok: u64,
    /// Commits whose WAL fsync failed or was impossible (never acked).
    pub commits_failed: u64,
    /// Abort records appended.
    pub aborts: u64,
}

/// What a crashed (or finished) mirror leaves behind for recovery and
/// verification.
#[derive(Debug, Clone)]
pub struct FileCrashArtifacts {
    /// The store directory holding `pages.db` and `wal.log`.
    pub dir: PathBuf,
    /// The fault layer's crash report (torn write, syscall counters).
    pub report: FsCrashReport,
    /// Filesystem syscalls consumed by the initial checkpoint; crash
    /// points below this never observe transactional state.
    pub checkpoint_syscalls: u64,
    /// Fsyncs consumed by the initial checkpoint.
    pub checkpoint_fsyncs: u64,
    /// Durable-traffic counters.
    pub stats: MirrorStats,
    /// First few mirror-side errors (fsync failures, post-poison ops).
    pub errors: Vec<String>,
}

/// A [`FilePageStore`] wired to shadow one engine run.
#[derive(Debug)]
pub struct DurableMirror {
    store: FilePageStore,
    stats: MirrorStats,
    errors: Vec<String>,
    checkpoint_syscalls: u64,
    checkpoint_fsyncs: u64,
}

impl DurableMirror {
    /// Create a mirror rooted at `dir` behind the given filesystem
    /// fault schedule.
    pub fn create(dir: &Path, cfg: FsFaultConfig) -> Result<Self, StoreError> {
        Ok(DurableMirror {
            store: FilePageStore::create(dir, cfg)?,
            stats: MirrorStats::default(),
            errors: Vec::new(),
            checkpoint_syscalls: 0,
            checkpoint_fsyncs: 0,
        })
    }

    /// Store directory.
    pub fn root(&self) -> &Path {
        self.store.root()
    }

    /// Write the initial database image (every page the simulated
    /// store currently holds) and the `CheckpointEnd` record. Called
    /// once, before the run drives.
    pub fn checkpoint(&mut self, sim: &StorageManager) -> Result<(), StoreError> {
        let pages: Vec<(u32, Vec<(u32, u32)>)> = (0..sim.page_count() as u32)
            .map(|p| {
                let slots = sim
                    .objects_on(semcluster_storage::PageId(p))
                    .map(|objs| objs.iter().map(|&(o, s)| (o.0, s)).collect())
                    .unwrap_or_default();
                (p, slots)
            })
            .collect();
        self.store
            .checkpoint(pages.iter().map(|(p, s)| (*p, s.as_slice())))?;
        let stats = self.store.stats();
        self.checkpoint_syscalls = stats.syscalls;
        self.checkpoint_fsyncs = stats.fsyncs;
        Ok(())
    }

    /// Whether an injected crash point has killed the backend.
    pub fn crashed(&self) -> bool {
        self.store.is_crashed()
    }

    /// Durable-traffic counters.
    pub fn stats(&self) -> MirrorStats {
        self.stats
    }

    fn note_err(&mut self, ctx: &str, e: &StoreError) {
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(format!("{ctx}: {e}"));
        }
    }

    /// Append one transactional op record (buffered; durable at the
    /// next WAL force). Errors are recorded, not propagated: a dead or
    /// poisoned backend must not change the simulation's control flow —
    /// the commit-time fsync is the gate that decides acknowledgement.
    pub fn op(&mut self, txn: u64, op: WalOp) {
        match self.store.append_op(txn, &op) {
            Ok(_) => self.stats.ops_logged += 1,
            Err(e) => self.note_err("op append", &e),
        }
    }

    /// Mirror a page write-back: snapshot-force then page write.
    pub fn steal(&mut self, page: u32, slots: &[(u32, u32)]) {
        match self.store.steal(page, slots) {
            Ok(()) => self.stats.steals += 1,
            Err(e) => self.note_err("page steal", &e),
        }
    }

    /// Mirror a commit: append + fsync. Returns `true` only if the
    /// commit is durable and may be acknowledged. On `false` the
    /// caller must treat the transaction as failed — per fsyncgate
    /// semantics the lost records cannot be resynced, and the mirror
    /// never retries.
    pub fn commit(&mut self, txn: u64) -> bool {
        match self.store.commit(txn) {
            Ok(_) => {
                self.stats.commits_ok += 1;
                true
            }
            Err(e) => {
                self.stats.commits_failed += 1;
                self.note_err("commit", &e);
                false
            }
        }
    }

    /// Mirror an engine-side abort.
    pub fn abort(&mut self, txn: u64) {
        match self.store.abort(txn) {
            Ok(_) => self.stats.aborts += 1,
            Err(e) => self.note_err("abort", &e),
        }
    }

    /// Kill the backend's process image (dropping unsynced writes;
    /// `tear_last_write` persists a partial prefix of the most recent
    /// in-flight write) and hand the artifacts to the crash harness.
    pub fn crash(mut self, tear_last_write: bool) -> FileCrashArtifacts {
        let report = self.store.crash(tear_last_write);
        FileCrashArtifacts {
            dir: self.store.root().to_path_buf(),
            report,
            checkpoint_syscalls: self.checkpoint_syscalls,
            checkpoint_fsyncs: self.checkpoint_fsyncs,
            stats: self.stats,
            errors: self.errors,
        }
    }

    /// Clean shutdown: force both files; returns the store directory.
    pub fn finish(self) -> Result<PathBuf, StoreError> {
        self.store.finish()
    }
}
