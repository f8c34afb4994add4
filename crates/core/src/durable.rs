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
//! * page write-back (evict or split flush) → a buffered
//!   [`WalOp::PageSnapshot`], the real page write queued behind the
//!   force that makes it durable;
//! * commit → commit record, one write of the log buffer and the WAL
//!   fsync, and the engine only acknowledges the transaction if that
//!   fsync succeeded (an injected fsync failure reroutes the token to
//!   `unacked`, never retried); the same force releases the queued
//!   page writes, whose failures are recorded but fail no commit;
//! * engine abort → abort record.
//!
//! Everything is a single `Option` branch when no mirror is attached,
//! so the four golden suites are byte-identical with the feature
//! compiled in — the same inertness discipline as tracing and
//! profiling.

use semcluster_faults::{CrashPoint, FsCrashReport, FsFaultConfig};
use semcluster_storage::{FilePageStore, PageId, StorageManager, StoreError, WalOp};
use std::path::{Path, PathBuf};

/// How many mirror-side errors are retained verbatim for diagnosis.
const MAX_ERRORS: usize = 8;

/// Counters of the mirror's durable traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MirrorStats {
    /// WAL op records appended (places, removes, moves, touches).
    pub ops_logged: u64,
    /// Page steals (snapshot logged, page write queued).
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

/// The `(object, size)` slots of `page` as the durable store takes them.
fn slots_of(sim: &StorageManager, page: PageId) -> impl Iterator<Item = (u32, u32)> + '_ {
    let objects = sim.objects_on(page).unwrap_or_default();
    objects.iter().map(|&(object, size)| (object.0, size))
}

/// A [`FilePageStore`] wired to shadow one engine run.
#[derive(Debug)]
pub struct DurableMirror {
    store: FilePageStore,
    stats: MirrorStats,
    errors: Vec<String>,
    checkpoint_syscalls: u64,
    checkpoint_fsyncs: u64,
    /// A filesystem fault to arm once the checkpoint is written.
    armed: Option<CrashPoint>,
    /// Reused slot list of the page being stolen.
    slots: Vec<(u32, u32)>,
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
            armed: None,
            slots: Vec::new(),
        })
    }

    /// Arm a [`CrashPoint::Syscall`] or [`CrashPoint::FsyncFail`] whose
    /// K counts from the end of *this* mirror's checkpoint, however long
    /// its seed's short-write draws make it. Other points arm nothing.
    pub fn arm_after_checkpoint(&mut self, point: CrashPoint) {
        self.armed = Some(point);
    }

    /// Store directory.
    pub fn root(&self) -> &Path {
        self.store.root()
    }

    /// Write the initial database image (every page the simulated
    /// store currently holds) and the `CheckpointEnd` record. Called
    /// once, before the run drives.
    pub fn checkpoint(&mut self, sim: &StorageManager) -> Result<(), StoreError> {
        let pages =
            (0..sim.page_count() as u32).map(|p| (p, slots_of(sim, PageId(p)).collect::<Vec<_>>()));
        self.store.checkpoint(pages)?;
        let stats = self.store.stats();
        self.checkpoint_syscalls = stats.syscalls;
        self.checkpoint_fsyncs = stats.fsyncs;
        if let Some(point) = self.armed {
            self.store.arm_from_here(point);
        }
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

    /// Record a failure to write queued page images out. It fails no
    /// commit: the images are healed from their snapshots at recovery.
    fn note_drain(&mut self) {
        if let Some(e) = self.store.take_drain_error() {
            self.note_err("page drain", &e);
        }
    }

    /// Mirror the write-back of `page` as `sim` holds it: snapshot into
    /// the log buffer, page write queued behind the next force.
    pub fn steal(&mut self, sim: &StorageManager, page: PageId) {
        self.slots.clear();
        self.slots.extend(slots_of(sim, page));
        match self.store.steal(page.0, &self.slots) {
            Ok(()) => self.stats.steals += 1,
            Err(e) => self.note_err("page steal", &e),
        }
        self.note_drain();
    }

    /// Mirror a commit: append + fsync. Returns `true` only if the
    /// commit is durable and may be acknowledged. On `false` the
    /// caller must treat the transaction as failed — per fsyncgate
    /// semantics the lost records cannot be resynced, and the mirror
    /// never retries.
    pub fn commit(&mut self, txn: u64) -> bool {
        let forced = self.store.commit(txn);
        self.note_drain();
        match forced {
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
