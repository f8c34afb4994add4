//! Filesystem fault layer: real files with injectable failure semantics.
//!
//! [`FaultedDir`] manages a directory of real files and interposes on
//! every write/fsync with *write-buffering* semantics that model an OS
//! page cache under an adversarial power cut:
//!
//! * `write_at`/`append` buffer data in memory ("the page cache") and
//!   only count as durable once an `fsync` applies them to the real
//!   file and calls `sync_all`. A crash drops every unsynced write.
//! * **Short writes** — a raw write syscall may accept only a prefix,
//!   forcing callers to loop, exactly like a real `write(2)`.
//! * **Torn writes** — a crash during a write persists only a partial
//!   (sub-sector) prefix of the in-flight data onto the real file; a
//!   crash during an fsync persists a prefix of the pending writes and
//!   tears the next one.
//! * **Fsync failures with "fsyncgate" semantics** — an injected fsync
//!   failure *drops the pending dirty data* and poisons the handle.
//!   Retrying the fsync cannot resurrect the lost writes: correct
//!   callers must treat the commit as failed and never ack it.
//! * **Crash-at-syscall points** — the k-th filesystem syscall kills
//!   the process image: all later operations fail with
//!   [`FsError::Crashed`] and only synced data (plus the torn in-flight
//!   prefix) survives on disk for recovery to read.
//!
//! Every injection decision is a pure function of `(seed, counter)`
//! via the same keyed splitmix64 hash as [`crate::FaultPlan`], so a
//! given [`FsFaultConfig`] yields one schedule, byte-identical at any
//! thread count.

use crate::config::CrashPoint;
use crate::plan::splitmix64;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// Salt separating fs-fault draws from the I/O fault plan.
const FS_SALT: u64 = 0xD15C_F417_CAFE_1989;
/// Draw stream for short-write decisions.
const STREAM_SHORT: u64 = 0x51;
/// Draw stream for torn-prefix lengths.
const STREAM_TEAR: u64 = 0x52;

/// Configuration of the filesystem fault schedule. The default is
/// inert: no short writes, no fsync failures, no crash point.
#[derive(Debug, Clone, PartialEq)]
pub struct FsFaultConfig {
    /// Seed keying the deterministic draw schedule.
    pub seed: u64,
    /// Probability a raw write syscall accepts only a prefix.
    pub short_write_rate: f64,
    /// 1-based fsync indices that fail with fsyncgate semantics.
    pub fsync_fail_at: Vec<u64>,
    /// Crash (kill the process image) at this 1-based syscall index.
    pub crash_at_syscall: Option<u64>,
    /// Sector granularity used when tearing an in-flight write.
    pub torn_sector_bytes: u32,
    /// Skip the physical `sync_all` call (keeps the durability
    /// *semantics* — pending writes still only reach the file at
    /// fsync — while sparing tests thousands of real disk syncs).
    pub skip_physical_sync: bool,
}

impl Default for FsFaultConfig {
    fn default() -> Self {
        FsFaultConfig {
            seed: 0,
            short_write_rate: 0.0,
            fsync_fail_at: Vec::new(),
            crash_at_syscall: None,
            torn_sector_bytes: 512,
            skip_physical_sync: false,
        }
    }
}

/// Typed filesystem error. Every variant that concerns a file carries
/// its path so messages are actionable without a debugger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// A real I/O operation failed.
    Io {
        /// Operation that failed (`open`, `write`, `fsync`, ...).
        op: &'static str,
        /// Path of the file involved.
        path: String,
        /// OS error detail.
        detail: String,
    },
    /// An injected fsync failure: the pending dirty data was dropped
    /// and the handle poisoned ("fsyncgate"). The caller must treat
    /// everything since the last successful fsync as lost and must NOT
    /// retry-and-ack.
    SyncFailed {
        /// Path of the poisoned file.
        path: String,
    },
    /// Operation on a handle poisoned by an earlier fsync failure.
    Poisoned {
        /// Path of the poisoned file.
        path: String,
    },
    /// The simulated process image is dead (crash point reached); no
    /// further filesystem work is possible.
    Crashed,
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsError::Io { op, path, detail } => write!(f, "fs {op} failed on {path}: {detail}"),
            FsError::SyncFailed { path } => write!(
                f,
                "fsync failed on {path}: pending writes dropped, handle poisoned"
            ),
            FsError::Poisoned { path } => {
                write!(f, "operation on {path} after a failed fsync (poisoned)")
            }
            FsError::Crashed => write!(f, "filesystem crashed (injected crash point)"),
        }
    }
}

impl std::error::Error for FsError {}

/// Counters of everything the fault layer saw and injected.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FsStats {
    /// Total interposed syscalls (writes + fsyncs).
    pub syscalls: u64,
    /// Raw write syscalls.
    pub writes: u64,
    /// Fsync syscalls.
    pub fsyncs: u64,
    /// Injected short writes.
    pub short_writes: u64,
    /// Injected fsync failures.
    pub fsync_failures: u64,
    /// Bytes accepted by write syscalls (buffered).
    pub bytes_written: u64,
    /// Bytes made durable by successful fsyncs.
    pub bytes_synced: u64,
    /// Pending writes dropped by crashes and failed fsyncs.
    pub dropped_writes: u64,
    /// Writes torn (partially persisted) at a crash.
    pub torn_writes: u64,
}

/// A write that was mid-flight at the crash and persisted only a
/// prefix onto the real file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornWrite {
    /// File the torn write targeted.
    pub file: String,
    /// Offset of the write.
    pub offset: u64,
    /// Bytes of the prefix that reached the platter.
    pub kept: u32,
    /// Bytes of the suffix that were lost.
    pub lost: u32,
}

/// What a crash left behind, for the recovery harness to reason about.
#[derive(Debug, Clone, PartialEq)]
pub struct FsCrashReport {
    /// Syscall/injection counters at the instant of the crash.
    pub stats: FsStats,
    /// The in-flight write that tore, if any.
    pub torn: Option<TornWrite>,
}

/// Opaque handle to a file managed by a [`FaultedDir`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FsFile(usize);

#[derive(Debug)]
struct FaultedFile {
    path: PathBuf,
    file: File,
    /// Buffered writes not yet applied to the real file, as (offset,
    /// length); their bytes lie back to back in `arena`, in order.
    pending: Vec<(u64, usize)>,
    /// The bytes of `pending`. Cleared, never shrunk, at every fsync,
    /// so steady-state buffering allocates nothing.
    arena: Vec<u8>,
    /// Logical length including pending writes.
    logical_len: u64,
    poisoned: bool,
}

impl FaultedFile {
    fn path_str(&self) -> String {
        self.path.display().to_string()
    }

    /// The buffered writes, oldest first, as (offset, data).
    fn pending_writes(&self) -> impl Iterator<Item = (u64, &[u8])> {
        let mut at = 0;
        self.pending.iter().map(move |&(offset, len)| {
            let data = &self.arena[at..at + len];
            at += len;
            (offset, data)
        })
    }

    /// Forget the buffered writes; returns how many there were.
    fn drop_pending(&mut self) -> u64 {
        let dropped = self.pending.len() as u64;
        self.pending.clear();
        self.arena.clear();
        dropped
    }

    fn io_err(&self, op: &'static str, e: std::io::Error) -> FsError {
        FsError::Io {
            op,
            path: self.path_str(),
            detail: e.to_string(),
        }
    }
}

/// A directory of real files behind the fault schedule. See the module
/// docs for the semantics of each injected failure.
#[derive(Debug)]
pub struct FaultedDir {
    root: PathBuf,
    cfg: FsFaultConfig,
    files: Vec<FaultedFile>,
    stats: FsStats,
    crashed: bool,
    crash_report: Option<FsCrashReport>,
    draw_key: u64,
}

impl FaultedDir {
    /// Create (or reuse) `root` and manage files inside it.
    pub fn create(root: &Path, cfg: FsFaultConfig) -> Result<Self, FsError> {
        std::fs::create_dir_all(root).map_err(|e| FsError::Io {
            op: "create_dir_all",
            path: root.display().to_string(),
            detail: e.to_string(),
        })?;
        Ok(FaultedDir {
            root: root.to_path_buf(),
            draw_key: splitmix64(cfg.seed ^ FS_SALT),
            cfg,
            files: Vec::new(),
            stats: FsStats::default(),
            crashed: false,
            crash_report: None,
        })
    }

    /// Directory root.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Open (creating if absent) a file under the root.
    pub fn open(&mut self, name: &str) -> Result<FsFile, FsError> {
        let path = self.root.join(name);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| FsError::Io {
                op: "open",
                path: path.display().to_string(),
                detail: e.to_string(),
            })?;
        let logical_len = file
            .metadata()
            .map_err(|e| FsError::Io {
                op: "metadata",
                path: path.display().to_string(),
                detail: e.to_string(),
            })?
            .len();
        self.files.push(FaultedFile {
            path,
            file,
            pending: Vec::new(),
            arena: Vec::new(),
            logical_len,
            poisoned: false,
        });
        Ok(FsFile(self.files.len() - 1))
    }

    /// Injection/syscall counters so far.
    pub fn stats(&self) -> FsStats {
        self.stats
    }

    /// Whether a crash point has fired.
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    /// The crash report, once crashed.
    pub fn crash_report(&self) -> Option<&FsCrashReport> {
        self.crash_report.as_ref()
    }

    /// Arm a [`CrashPoint::Syscall`] or [`CrashPoint::FsyncFail`] whose
    /// K counts from now (1 = the very next one); other points arm
    /// nothing. [`FsFaultConfig`]'s indices count from the directory's
    /// creation, so a caller whose set-up phase has a length that
    /// depends on the short-write draws arms from the end of it instead.
    pub fn arm_from_here(&mut self, point: CrashPoint) {
        match point {
            CrashPoint::Syscall(k) => self.cfg.crash_at_syscall = Some(self.stats.syscalls + k),
            CrashPoint::FsyncFail(k) => self.cfg.fsync_fail_at.push(self.stats.fsyncs + k),
            _ => {}
        }
    }

    /// Logical file length (pending writes included).
    pub fn logical_len(&self, id: FsFile) -> u64 {
        self.files[id.0].logical_len
    }

    fn unit_draw(&self, stream: u64, counter: u64) -> f64 {
        let bits = splitmix64(
            self.draw_key
                ^ stream.wrapping_mul(0xA24B_AED4_963E_E407)
                ^ counter.wrapping_mul(0x9FB2_1C65_1E98_DF25),
        );
        (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    fn int_draw(&self, stream: u64, counter: u64, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        splitmix64(
            self.draw_key
                ^ stream.wrapping_mul(0xA24B_AED4_963E_E407)
                ^ counter.wrapping_mul(0x9FB2_1C65_1E98_DF25),
        ) % bound
    }

    /// Buffer `data` at `offset`, looping over short writes like a real
    /// `pwrite` caller must.
    pub fn write_at(&mut self, id: FsFile, offset: u64, data: &[u8]) -> Result<(), FsError> {
        let mut offset = offset;
        let mut rest = data;
        while !rest.is_empty() {
            let wrote = self.raw_write(id, offset, rest)?;
            offset += wrote as u64;
            rest = &rest[wrote..];
        }
        Ok(())
    }

    /// Buffer `data` at the logical end of the file; returns the offset
    /// it landed at.
    pub fn append(&mut self, id: FsFile, data: &[u8]) -> Result<u64, FsError> {
        let offset = self.files[id.0].logical_len;
        self.write_at(id, offset, data)?;
        Ok(offset)
    }

    /// One raw write syscall: may crash, may accept only a prefix.
    fn raw_write(&mut self, id: FsFile, offset: u64, data: &[u8]) -> Result<usize, FsError> {
        if self.crashed {
            return Err(FsError::Crashed);
        }
        if self.files[id.0].poisoned {
            return Err(FsError::Poisoned {
                path: self.files[id.0].path_str(),
            });
        }
        self.stats.syscalls += 1;
        self.stats.writes += 1;
        if Some(self.stats.syscalls) == self.cfg.crash_at_syscall {
            return Err(self.crash_tearing_write(id, offset, data));
        }
        let take = if data.len() > 1
            && self.cfg.short_write_rate > 0.0
            && self.unit_draw(STREAM_SHORT, self.stats.writes) < self.cfg.short_write_rate
        {
            self.stats.short_writes += 1;
            (data.len() / 2).max(1)
        } else {
            data.len()
        };
        let f = &mut self.files[id.0];
        f.pending.push((offset, take));
        f.arena.extend_from_slice(&data[..take]);
        f.logical_len = f.logical_len.max(offset + take as u64);
        self.stats.bytes_written += take as u64;
        Ok(take)
    }

    /// Make pending writes durable. An injected failure here follows
    /// fsyncgate semantics: the pending data is dropped, the handle is
    /// poisoned, and a retry cannot bring the data back.
    pub fn fsync(&mut self, id: FsFile) -> Result<(), FsError> {
        if self.crashed {
            return Err(FsError::Crashed);
        }
        if self.files[id.0].poisoned {
            return Err(FsError::Poisoned {
                path: self.files[id.0].path_str(),
            });
        }
        self.stats.syscalls += 1;
        self.stats.fsyncs += 1;
        if Some(self.stats.syscalls) == self.cfg.crash_at_syscall {
            return Err(self.crash_during_fsync(id));
        }
        if self.cfg.fsync_fail_at.contains(&self.stats.fsyncs) {
            self.stats.fsync_failures += 1;
            let f = &mut self.files[id.0];
            self.stats.dropped_writes += f.drop_pending();
            f.logical_len = file_len(f);
            f.poisoned = true;
            return Err(FsError::SyncFailed { path: f.path_str() });
        }
        let f = &mut self.files[id.0];
        for (off, data) in f.pending_writes() {
            f.file
                .write_all_at(data, off)
                .map_err(|e| f.io_err("write", e))?;
            self.stats.bytes_synced += data.len() as u64;
        }
        f.drop_pending();
        if !self.cfg.skip_physical_sync {
            f.file.sync_all().map_err(|e| f.io_err("fsync", e))?;
        } else {
            f.file.flush().map_err(|e| f.io_err("flush", e))?;
        }
        Ok(())
    }

    /// Read the *logical* view: the real file contents with pending
    /// writes overlaid, which is what the running process would see.
    pub fn read_at(&self, id: FsFile, offset: u64, len: usize) -> Result<Vec<u8>, FsError> {
        if self.crashed {
            return Err(FsError::Crashed);
        }
        let f = &self.files[id.0];
        let mut buf = vec![0u8; len];
        let end = (offset + len as u64).min(file_len(f));
        if end > offset {
            let want = (end - offset) as usize;
            f.file
                .read_exact_at(&mut buf[..want], offset)
                .map_err(|e| f.io_err("read", e))?;
        }
        for (off, data) in f.pending_writes() {
            overlay(&mut buf, offset, off, data);
        }
        Ok(buf)
    }

    /// Kill the process image at a non-syscall boundary: every pending
    /// (unsynced) write is lost. `in_flight` is a write the caller was
    /// about to append to a file when the power went (a log buffer it
    /// had not handed over yet): a partial prefix of it persists at the
    /// file's logical end, the analogue of a power cut mid write-out.
    pub fn crash(&mut self, in_flight: Option<(FsFile, &[u8])>) -> FsCrashReport {
        if self.crashed {
            return self
                .crash_report
                .clone()
                .expect("crashed dir always has a report");
        }
        let torn = in_flight
            .filter(|(id, data)| !data.is_empty() && !self.files[id.0].poisoned)
            .and_then(|(id, data)| {
                self.persist_torn_prefix(id.0, self.files[id.0].logical_len, data)
            });
        self.finish_crash(torn)
    }

    /// Crash fired by the k-th syscall being a write: tear the
    /// in-flight data at an arbitrary byte boundary.
    fn crash_tearing_write(&mut self, id: FsFile, offset: u64, data: &[u8]) -> FsError {
        let torn = self.persist_torn_prefix(id.0, offset, data);
        self.finish_crash(torn);
        FsError::Crashed
    }

    /// Crash fired by the k-th syscall being an fsync: a deterministic
    /// prefix of the pending writes reached the platter in full, the
    /// next one tore, the rest are lost.
    fn crash_during_fsync(&mut self, id: FsFile) -> FsError {
        let pending = std::mem::take(&mut self.files[id.0].pending);
        let arena = std::mem::take(&mut self.files[id.0].arena);
        let survive = self.int_draw(STREAM_TEAR, self.stats.syscalls, pending.len() as u64 + 1);
        let mut torn = None;
        let mut at = 0;
        for (i, &(off, len)) in pending.iter().enumerate() {
            let data = &arena[at..at + len];
            at += len;
            if (i as u64) < survive {
                let _ = self.files[id.0].file.write_all_at(data, off);
                self.stats.bytes_synced += len as u64;
            } else {
                torn = self.persist_torn_prefix(id.0, off, data);
                break;
            }
        }
        self.finish_crash(torn);
        FsError::Crashed
    }

    /// Persist a sector-torn prefix of `data` at `offset` onto the real
    /// file. Returns the torn-write record (None if nothing survived).
    fn persist_torn_prefix(&mut self, fi: usize, offset: u64, data: &[u8]) -> Option<TornWrite> {
        let kept = {
            // Keep whole sectors, then a partial tail of the next one.
            let sector = self.cfg.torn_sector_bytes.max(1) as u64;
            let draw = self.int_draw(STREAM_TEAR, self.stats.syscalls, data.len() as u64);
            let full = (draw / sector) * sector;
            let partial = draw % sector;
            (full + partial).min(data.len() as u64 - 1) as usize
        };
        self.stats.torn_writes += 1;
        let f = &mut self.files[fi];
        if kept > 0 {
            let _ = f.file.write_all_at(&data[..kept], offset);
        }
        Some(TornWrite {
            file: f.path.display().to_string(),
            offset,
            kept: kept as u32,
            lost: (data.len() - kept) as u32,
        })
    }

    fn finish_crash(&mut self, torn: Option<TornWrite>) -> FsCrashReport {
        for f in &mut self.files {
            self.stats.dropped_writes += f.drop_pending();
            let _ = f.file.flush();
        }
        self.crashed = true;
        let report = FsCrashReport {
            stats: self.stats,
            torn,
        };
        self.crash_report = Some(report.clone());
        report
    }
}

/// Real on-disk length of a managed file.
fn file_len(f: &FaultedFile) -> u64 {
    f.file.metadata().map(|m| m.len()).unwrap_or(0)
}

/// Overlay `data@data_off` onto `buf` which represents `[buf_off,
/// buf_off + buf.len())` of the file.
fn overlay(buf: &mut [u8], buf_off: u64, data_off: u64, data: &[u8]) {
    let buf_end = buf_off + buf.len() as u64;
    let data_end = data_off + data.len() as u64;
    let start = buf_off.max(data_off);
    let end = buf_end.min(data_end);
    if start >= end {
        return;
    }
    let dst = (start - buf_off) as usize;
    let src = (start - data_off) as usize;
    let n = (end - start) as usize;
    buf[dst..dst + n].copy_from_slice(&data[src..src + n]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("semcluster-fsfault-{name}"));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn unsynced_writes_are_lost_at_crash() {
        let root = scratch("lost");
        let mut dir = FaultedDir::create(&root, FsFaultConfig::default()).unwrap();
        let f = dir.open("data").unwrap();
        dir.write_at(f, 0, b"durable").unwrap();
        dir.fsync(f).unwrap();
        dir.write_at(f, 7, b" volatile").unwrap();
        let report = dir.crash(None);
        assert_eq!(report.stats.dropped_writes, 1);
        assert_eq!(std::fs::read(root.join("data")).unwrap(), b"durable");
        assert_eq!(dir.fsync(f), Err(FsError::Crashed));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn short_writes_force_caller_loops_but_lose_nothing() {
        let root = scratch("short");
        let cfg = FsFaultConfig {
            seed: 7,
            short_write_rate: 0.9,
            ..FsFaultConfig::default()
        };
        let mut dir = FaultedDir::create(&root, cfg).unwrap();
        let f = dir.open("data").unwrap();
        let mut payload = Vec::new();
        for i in 0..20u8 {
            let chunk = [i; 64];
            dir.append(f, &chunk).unwrap();
            payload.extend_from_slice(&chunk);
        }
        dir.fsync(f).unwrap();
        assert!(dir.stats().short_writes > 0, "rate 0.9 must inject");
        assert!(dir.stats().writes > 20, "short writes force extra syscalls");
        assert_eq!(std::fs::read(root.join("data")).unwrap(), payload);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn fsyncgate_drops_pending_and_poisons_the_handle() {
        let root = scratch("fsyncgate");
        let cfg = FsFaultConfig {
            fsync_fail_at: vec![2],
            ..FsFaultConfig::default()
        };
        let mut dir = FaultedDir::create(&root, cfg).unwrap();
        let f = dir.open("wal").unwrap();
        dir.write_at(f, 0, b"first").unwrap();
        dir.fsync(f).unwrap();
        dir.write_at(f, 5, b"second").unwrap();
        let err = dir.fsync(f).unwrap_err();
        assert!(matches!(err, FsError::SyncFailed { .. }), "{err}");
        // The dirty data is gone; a retry must NOT make it durable.
        let retry = dir.fsync(f).unwrap_err();
        assert!(matches!(retry, FsError::Poisoned { .. }), "{retry}");
        assert_eq!(std::fs::read(root.join("wal")).unwrap(), b"first");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn crash_at_write_syscall_tears_the_in_flight_data() {
        let root = scratch("torn");
        let cfg = FsFaultConfig {
            seed: 3,
            crash_at_syscall: Some(2),
            ..FsFaultConfig::default()
        };
        let mut dir = FaultedDir::create(&root, cfg).unwrap();
        let f = dir.open("pages").unwrap();
        dir.write_at(f, 0, &[0xAA; 1024]).unwrap();
        let err = dir.fsync(f).unwrap_err(); // syscall 2 crashes mid-fsync
        assert_eq!(err, FsError::Crashed);
        assert!(dir.is_crashed());
        // The pending write either persisted in full, tore, or was
        // dropped — never anything else, and never any suffix-only data.
        let on_disk = std::fs::read(root.join("pages")).unwrap();
        assert!(on_disk.len() <= 1024);
        assert!(on_disk.iter().all(|&b| b == 0xAA));
        let report = dir.crash_report().unwrap();
        if let Some(t) = &report.torn {
            assert_eq!(on_disk.len(), t.kept as usize);
        }
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn torn_write_keeps_a_strict_prefix() {
        let root = scratch("prefix");
        let cfg = FsFaultConfig {
            seed: 11,
            crash_at_syscall: Some(1),
            torn_sector_bytes: 16,
            ..FsFaultConfig::default()
        };
        let mut dir = FaultedDir::create(&root, cfg).unwrap();
        let f = dir.open("pages").unwrap();
        let payload: Vec<u8> = (0..200u32).map(|i| (i % 251) as u8).collect();
        let err = dir.write_at(f, 0, &payload).unwrap_err();
        assert_eq!(err, FsError::Crashed);
        let torn = dir.crash_report().unwrap().torn.clone().unwrap();
        assert!((torn.kept as usize) < payload.len());
        let on_disk = std::fs::read(root.join("pages")).unwrap();
        assert_eq!(on_disk, payload[..torn.kept as usize]);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn reads_see_the_logical_overlay() {
        let root = scratch("overlay");
        let mut dir = FaultedDir::create(&root, FsFaultConfig::default()).unwrap();
        let f = dir.open("data").unwrap();
        dir.write_at(f, 0, b"aaaa").unwrap();
        dir.fsync(f).unwrap();
        dir.write_at(f, 2, b"BB").unwrap();
        assert_eq!(dir.read_at(f, 0, 4).unwrap(), b"aaBB");
        // The real file still has the synced view only.
        assert_eq!(std::fs::read(root.join("data")).unwrap(), b"aaaa");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn schedule_is_deterministic() {
        let mk = |name: &str| {
            let root = scratch(name);
            let cfg = FsFaultConfig {
                seed: 42,
                short_write_rate: 0.5,
                ..FsFaultConfig::default()
            };
            let mut dir = FaultedDir::create(&root, cfg).unwrap();
            let f = dir.open("data").unwrap();
            for i in 0..50u64 {
                dir.append(f, &[i as u8; 100]).unwrap();
            }
            dir.fsync(f).unwrap();
            let stats = dir.stats();
            std::fs::remove_dir_all(&root).unwrap();
            stats
        };
        assert_eq!(mk("det-a"), mk("det-b"));
    }
}
