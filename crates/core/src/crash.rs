//! Crash points, ACID verification, and the crash-recovery matrix
//! (DESIGN.md §11).
//!
//! [`Engine::run_and_crash_at`](crate::Engine::run_and_crash_at) stops a
//! run at an arbitrary [`CrashPoint`] and returns a [`CrashOutcome`]:
//! the engine's *ground truth* about what clients observed before the
//! crash (acknowledged and unacknowledged commits, in-flight
//! transactions, aborts) and, with a [`DurableMirror`] attached, the
//! files the crashed store left behind.
//! [`CrashOutcome::recover_and_verify`] recovers those files twice and
//! judges them against the ground truth, and [`run_crash_matrix`] sweeps
//! a workload across every commit boundary plus sampled
//! intra-transaction, mid-flush, syscall and fsync-failure points,
//! judging each one that way.

use crate::config::SimConfig;
use crate::durable::{DurableMirror, FileCrashArtifacts};
use crate::engine::Engine;
use crate::metrics::RunReport;
use crate::sweep::ordered_parallel_map;
use semcluster_faults::{CrashPoint, FsFaultConfig};
use semcluster_storage::{recover_dir, FileRecoveryOutcome, PAGES_FILE, WAL_FILE};
use semcluster_wal::TxnToken;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Everything a crashed run leaves behind: the simulation's report up to
/// the crash, the engine-side ground truth recovery must be consistent
/// with, and the durable store's files when a mirror was attached.
#[derive(Debug)]
pub struct CrashOutcome {
    /// Where the run crashed.
    pub point: CrashPoint,
    /// Run report covering everything up to the crash.
    pub report: RunReport,
    /// Transactions whose commit was *acknowledged* to the client
    /// (the TxnDone event ran) before the crash. Durability must hold
    /// for exactly these.
    pub acked: Vec<TxnToken>,
    /// Transactions that finished but whose durable commit fsync
    /// failed: the client was never acknowledged, so recovery owes them
    /// nothing — and fsyncgate semantics demand they never silently
    /// become durable later. Empty without a mirror.
    pub unacked: Vec<TxnToken>,
    /// Transactions still in flight at the crash. They may legally end
    /// up as winners (commit durable, acknowledgement lost) or losers.
    pub in_flight: Vec<TxnToken>,
    /// Transactions the engine aborted (retry exhaustion, placement
    /// failure) before the crash. They must never be recovery winners.
    pub aborted: Vec<TxnToken>,
    /// Simulation events processed before the crash.
    pub events_seen: u64,
    /// Commit records written before the crash.
    pub commits_seen: u64,
    /// Physical log-device flushes issued before the crash.
    pub log_flushes_seen: u64,
    /// What the durable file store left behind (directory, fault
    /// stats, torn-write report). `None` when no mirror was attached.
    pub file: Option<FileCrashArtifacts>,
}

impl CrashOutcome {
    /// Check what needs no files. Returns one human-readable line per
    /// violated invariant; an empty vector means the ground truth is
    /// self-consistent:
    ///
    /// * a transaction ends one way — the acked, unacked, in-flight and
    ///   aborted lists are pairwise disjoint;
    /// * with a mirror attached, no more commits were acked than the
    ///   store forced, and no more left unacked than it failed to force.
    pub fn verify_acid(&self) -> Vec<String> {
        let lists = [
            ("acked", &self.acked),
            ("unacked", &self.unacked),
            ("in-flight", &self.in_flight),
            ("aborted", &self.aborted),
        ];
        let mut all: Vec<(u64, &str)> = lists
            .iter()
            .flat_map(|&(name, list)| list.iter().map(move |t| (t.raw(), name)))
            .collect();
        // Stable: a pair names its lists in the order above.
        all.sort_by_key(|&(raw, _)| raw);
        let mut violations: Vec<String> = all
            .windows(2)
            .filter(|w| w[0].0 == w[1].0)
            .map(|w| {
                format!(
                    "ground truth: txn {} is both {} and {}",
                    w[0].0, w[0].1, w[1].1
                )
            })
            .collect();
        if let Some(files) = &self.file {
            let stats = files.stats;
            if self.acked.len() as u64 > stats.commits_ok {
                violations.push(format!(
                    "ground truth: {} commits acked but the store forced {}",
                    self.acked.len(),
                    stats.commits_ok
                ));
            }
            if self.unacked.len() as u64 > stats.commits_failed {
                violations.push(format!(
                    "ground truth: {} commits unacked but the store failed {}",
                    self.unacked.len(),
                    stats.commits_failed
                ));
            }
        }
        violations
    }
}

/// Configuration of one crash-matrix sweep.
#[derive(Debug, Clone)]
pub struct CrashMatrixConfig {
    /// The workload to crash. `retain_log` is forced on.
    pub cfg: SimConfig,
    /// Intra-transaction crash points sampled evenly across the run's
    /// event count (on top of every commit boundary).
    pub event_samples: usize,
    /// Mid-flush (torn log write) points sampled evenly across the
    /// run's physical log flushes.
    pub mid_flush_samples: usize,
    /// Worker threads (`0` = host parallelism).
    pub jobs: usize,
    /// Crash points sampled across the probe run's post-checkpoint
    /// filesystem syscalls (the fault layer pulls the plug mid-syscall,
    /// tearing the in-flight write at sector granularity).
    pub syscall_samples: usize,
    /// Points injecting an fsync *failure* (not a crash) at the k-th
    /// fsync; the run continues on the poisoned handle and the matrix
    /// verifies failed commits were never acked and never became
    /// durable.
    pub fsync_fail_samples: usize,
    /// Probability any raw write syscall accepts only a prefix
    /// (exercises the short-write retry loop).
    pub short_write_rate: f64,
    /// Keep the durability semantics of the fault layer (pending writes
    /// only reach the file at fsync) but skip the physical `sync_all`
    /// syscall. For fast tests; CI keeps it off.
    pub skip_physical_sync: bool,
    /// Where failing points preserve their store directory (default
    /// `target/crash-scratch`).
    pub scratch_dir: Option<PathBuf>,
}

impl CrashMatrixConfig {
    /// The smoke matrix: a small workload (1 MB database, 16 buffers,
    /// 80 transactions) crashed at every commit plus 50 event samples,
    /// 10 mid-flush, 12 syscall and 4 fsync-failure samples. Runs in
    /// about a second; used by CI.
    pub fn smoke() -> Self {
        CrashMatrixConfig {
            cfg: SimConfig {
                database_bytes: 1024 * 1024,
                buffer_pages: 16,
                warmup_txns: 20,
                measured_txns: 60,
                retain_log: true,
                seed: 4242,
                ..SimConfig::default()
            },
            event_samples: 50,
            mid_flush_samples: 10,
            jobs: 0,
            syscall_samples: 12,
            fsync_fail_samples: 4,
            short_write_rate: 0.05,
            skip_physical_sync: false,
            scratch_dir: None,
        }
    }

    /// The deep matrix: a larger workload and denser sampling for
    /// overnight confidence runs.
    pub fn deep() -> Self {
        CrashMatrixConfig {
            cfg: SimConfig {
                database_bytes: 4 * 1024 * 1024,
                buffer_pages: 32,
                warmup_txns: 50,
                measured_txns: 250,
                retain_log: true,
                seed: 4242,
                ..SimConfig::default()
            },
            event_samples: 200,
            mid_flush_samples: 40,
            jobs: 0,
            syscall_samples: 40,
            fsync_fail_samples: 8,
            short_write_rate: 0.05,
            skip_physical_sync: false,
            scratch_dir: None,
        }
    }
}

/// Result of crashing at one point of the matrix.
#[derive(Debug, Clone)]
pub struct CrashPointResult {
    /// The crash point exercised.
    pub point: CrashPoint,
    /// Commits acknowledged before the crash.
    pub acked: usize,
    /// Winners recovery identified.
    pub winners: usize,
    /// Losers recovery rolled back.
    pub losers: usize,
    /// ACID violations ([`CrashOutcome::verify_acid`] plus
    /// [`CrashOutcome::verify_file`]); empty = clean.
    pub violations: Vec<String>,
    /// The crash tore a partially written sector.
    pub torn_write: bool,
    /// An injected fsync failure fired during the run.
    pub fsync_failed: bool,
    /// Pages recovery rewrote from WAL snapshots.
    pub repaired_pages: usize,
    /// Torn WAL tail bytes physically truncated.
    pub wal_truncated: u64,
    /// Where the store directory was preserved when this point failed
    /// verification (`None` when clean — the scratch directory is
    /// removed).
    pub scratch: Option<String>,
}

impl CrashPointResult {
    /// A result with nothing recorded yet.
    fn new(point: CrashPoint) -> Self {
        CrashPointResult {
            point,
            acked: 0,
            winners: 0,
            losers: 0,
            violations: Vec::new(),
            torn_write: false,
            fsync_failed: false,
            repaired_pages: 0,
            wal_truncated: 0,
            scratch: None,
        }
    }
}

/// The whole matrix: probe-run totals plus one result per crash point,
/// in deterministic point order.
#[derive(Debug)]
pub struct CrashMatrixReport {
    /// Commits the uncrashed probe run performed.
    pub total_commits: u64,
    /// Events the uncrashed probe run processed.
    pub total_events: u64,
    /// Physical log flushes the uncrashed probe run issued.
    pub total_flushes: u64,
    /// Filesystem syscalls the probe run issued.
    pub total_syscalls: u64,
    /// Fsyncs the probe run issued.
    pub total_fsyncs: u64,
    /// Per-point results, in the order the points were generated
    /// (commits, then event, mid-flush, syscall and fsync-failure
    /// samples).
    pub points: Vec<CrashPointResult>,
}

impl CrashMatrixReport {
    /// Total ACID violations across every point.
    pub fn violation_count(&self) -> usize {
        self.points.iter().map(|p| p.violations.len()).sum()
    }

    /// Deterministic human-readable summary (one line per violating
    /// point, plus a footer). Safe for goldens: contains no host facts.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "crash matrix: {} points over {} commits / {} events / {} log flushes\n",
            self.points.len(),
            self.total_commits,
            self.total_events,
            self.total_flushes
        ));
        out.push_str(&format!(
            "file backend: {} syscalls / {} fsyncs probed; \
             {} torn writes, {} fsync-failure runs, \
             {} pages repaired, {} wal tails truncated\n",
            self.total_syscalls,
            self.total_fsyncs,
            self.points.iter().filter(|p| p.torn_write).count(),
            self.points.iter().filter(|p| p.fsync_failed).count(),
            self.points.iter().map(|p| p.repaired_pages).sum::<usize>(),
            self.points.iter().filter(|p| p.wal_truncated > 0).count()
        ));
        for p in &self.points {
            if !p.violations.is_empty() {
                out.push_str(&format!("  FAIL {}:\n", p.point.label()));
                for v in &p.violations {
                    out.push_str(&format!("    - {v}\n"));
                }
                if let Some(s) = &p.scratch {
                    out.push_str(&format!("    scratch preserved at {s}\n"));
                }
            }
        }
        out.push_str(&format!(
            "{} violations across {} points\n",
            self.violation_count(),
            self.points.len()
        ));
        out
    }
}

/// Evenly sample `n` values from `1..=max` (deduplicated, ascending).
fn sample_points(max: u64, n: usize) -> Vec<u64> {
    if max == 0 || n == 0 {
        return Vec::new();
    }
    let n = (n as u64).min(max);
    let mut out = Vec::with_capacity(n as usize);
    for i in 0..n {
        // i/(n-1) across [1, max]; integer arithmetic keeps it exact.
        let v = if n == 1 {
            max
        } else {
            1 + (i * (max - 1)) / (n - 1)
        };
        if out.last() != Some(&v) {
            out.push(v);
        }
    }
    out
}

/// Deterministic per-point salt for the filesystem fault schedule.
const POINT_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

fn file_fault_cfg(config: &CrashMatrixConfig, idx: u64) -> FsFaultConfig {
    FsFaultConfig {
        seed: config.cfg.seed ^ idx.wrapping_mul(POINT_SALT),
        short_write_rate: config.short_write_rate,
        skip_physical_sync: config.skip_physical_sync,
        ..FsFaultConfig::default()
    }
}

/// Read the two store files (absent files read as distinct sentinels so
/// existence changes also count as byte changes).
fn store_bytes(root: &Path) -> (Option<Vec<u8>>, Option<Vec<u8>>) {
    (
        std::fs::read(root.join(PAGES_FILE)).ok(),
        std::fs::read(root.join(WAL_FILE)).ok(),
    )
}

/// Preserve a failing point's store directory for post-mortem.
fn preserve_scratch(root: &Path, dest: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dest)?;
    for name in [PAGES_FILE, WAL_FILE] {
        let src = root.join(name);
        if src.exists() {
            std::fs::copy(&src, dest.join(name))?;
        }
    }
    Ok(())
}

impl CrashOutcome {
    /// ACID checks over two consecutive recoveries of the real store
    /// files: every acknowledged commit is durable on disk, no
    /// fsync-failed commit silently became durable, no engine-aborted
    /// transaction is a winner, the recovery itself reports no invariant
    /// violations, and the second pass is a byte-level no-op
    /// (`bytes_stable` is the caller's comparison of the store files
    /// before and after the second recovery).
    pub fn verify_file(
        &self,
        rec1: &FileRecoveryOutcome,
        rec2: &FileRecoveryOutcome,
        bytes_stable: bool,
    ) -> Vec<String> {
        let mut v = Vec::new();
        let winner = |t: &TxnToken| rec1.winners.binary_search(&t.raw()).is_ok();
        for t in self.acked.iter().filter(|t| !winner(t)) {
            v.push(format!(
                "file durability: acked txn {} has no durable commit on disk",
                t.raw()
            ));
        }
        for t in self.unacked.iter().filter(|t| winner(t)) {
            v.push(format!(
                "file fsyncgate: txn {} failed its commit fsync yet became durable",
                t.raw()
            ));
        }
        for t in self.aborted.iter().filter(|t| winner(t)) {
            v.push(format!(
                "file atomicity: engine-aborted txn {} was recovered as a winner",
                t.raw()
            ));
        }
        v.extend(
            rec1.violations
                .iter()
                .map(|s| format!("file recovery: {s}")),
        );
        v.extend(
            rec2.violations
                .iter()
                .map(|s| format!("file recovery (2nd pass): {s}")),
        );
        if !rec2.torn_pages.is_empty()
            || !rec2.repaired_pages.is_empty()
            || rec2.wal_truncated_bytes != 0
        {
            v.push(format!(
                "file recovery: second pass repaired again (torn {:?}, rewrote {:?}, \
                 truncated {}) — not idempotent",
                rec2.torn_pages, rec2.repaired_pages, rec2.wal_truncated_bytes
            ));
        }
        if rec2.winners != rec1.winners || rec2.losers != rec1.losers || rec2.pages != rec1.pages {
            v.push("file recovery: second pass diverged from the first".to_string());
        }
        if !bytes_stable {
            v.push("file recovery: second pass modified the on-disk bytes".to_string());
        }
        v
    }

    /// The whole verdict on this outcome: [`Self::verify_acid`]'s
    /// ground-truth lines, then those of recovering the real store files
    /// under `root` twice — recovery must be an idempotent byte-level
    /// no-op — and running [`Self::verify_file`] over the pair (a failed
    /// pass is one line). Returns the first pass's outcome, `None` when
    /// that pass failed, with every violation found.
    pub fn recover_and_verify(&self, root: &Path) -> (Option<FileRecoveryOutcome>, Vec<String>) {
        let mut violations = self.verify_acid();
        let rec1 = match recover_dir(root) {
            Err(e) => {
                violations.push(format!("file recovery failed: {e}"));
                return (None, violations);
            }
            Ok(rec1) => rec1,
        };
        let snap1 = store_bytes(root);
        violations.extend(match recover_dir(root) {
            Err(e) => vec![format!("file recovery (2nd pass) failed: {e}")],
            Ok(rec2) => self.verify_file(&rec1, &rec2, snap1 == store_bytes(root)),
        });
        (Some(rec1), violations)
    }
}

/// Crash one run of `cfg` at `point` with a mirror under `root` behind
/// `faults`, then recover the files twice and verify them against the
/// run's ground truth. Leaves the files in place.
fn crash_and_recover(
    cfg: &SimConfig,
    root: &Path,
    faults: FsFaultConfig,
    point: CrashPoint,
) -> CrashPointResult {
    let mut result = CrashPointResult::new(point);
    let mut engine = Engine::new(cfg.clone());
    let attached = DurableMirror::create(root, faults).and_then(|mut m| {
        m.arm_after_checkpoint(point);
        engine.attach_mirror(m)
    });
    if let Err(e) = attached {
        result
            .violations
            .push(format!("file: mirror setup failed: {e}"));
        return result;
    }
    let outcome = engine.run_and_crash_at(point);
    result.acked = outcome.acked.len();
    let artifacts = outcome
        .file
        .as_ref()
        .expect("mirror was attached, so artifacts exist");
    result.torn_write = artifacts.report.torn.is_some();
    result.fsync_failed = artifacts.report.stats.fsync_failures > 0;
    let (rec1, violations) = outcome.recover_and_verify(root);
    result.violations = violations;
    if let Some(rec1) = rec1 {
        result.winners = rec1.winners.len();
        result.losers = rec1.losers.len();
        result.repaired_pages = rec1.repaired_pages.len();
        result.wal_truncated = rec1.wal_truncated_bytes;
    }
    result
}

/// Run the exhaustive crash-recovery matrix. A probe run learns the
/// workload's commit, event, log-flush, syscall and fsync totals; then
/// every point — each commit boundary, `event_samples`
/// intra-transaction events, `mid_flush_samples` torn log writes,
/// `syscall_samples` syscall crashes and `fsync_fail_samples` fsync
/// failures — runs against its own file-backed store, which is
/// recovered from disk twice (recovery must be idempotent
/// byte-for-byte) and verified against the run's ground truth. The
/// point list and every result are deterministic; worker count only
/// affects wall-clock.
pub fn run_crash_matrix(config: &CrashMatrixConfig) -> CrashMatrixReport {
    let mut cfg = config.cfg.clone();
    cfg.retain_log = true;
    // Unique per matrix run, not just per process: two matrices running
    // on different threads of one process (the tier-1 durability tests)
    // must not recover each other's half-written point directories.
    static MATRIX_SEQ: AtomicUsize = AtomicUsize::new(0);
    let base = std::env::temp_dir().join(format!(
        "semcluster-matrix-{}-{}",
        std::process::id(),
        MATRIX_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let scratch_base = config
        .scratch_dir
        .clone()
        .unwrap_or_else(|| PathBuf::from("target/crash-scratch"));

    // Probe with a fault-free mirror to learn the crash-point space,
    // including the filesystem syscall/fsync counts past the initial
    // checkpoint (crashes inside the checkpoint exercise nothing
    // transactional: the store resets to pre-operational).
    let probe_root = base.join("probe");
    let _ = std::fs::remove_dir_all(&probe_root);
    let probe = {
        let mut engine = Engine::new(cfg.clone());
        let mirror = DurableMirror::create(&probe_root, file_fault_cfg(config, u64::MAX))
            .expect("crash matrix: probe mirror creation failed");
        engine
            .attach_mirror(mirror)
            .expect("crash matrix: probe checkpoint failed");
        engine.run_and_crash_at(CrashPoint::End)
    };
    let _ = std::fs::remove_dir_all(&probe_root);
    let artifacts = probe
        .file
        .as_ref()
        .expect("probe run carries mirror artifacts");
    let (total_syscalls, total_fsyncs) = (
        artifacts.report.stats.syscalls,
        artifacts.report.stats.fsyncs,
    );
    // Filesystem points count K from the end of the checkpoint: the
    // probe's and every point's checkpoints differ in length (each
    // point's short-write draws are its own), and each mirror arms its
    // point once its own is written.
    let run_syscalls = total_syscalls - artifacts.checkpoint_syscalls;
    let run_fsyncs = total_fsyncs - artifacts.checkpoint_fsyncs;
    let samples = |max, n| sample_points(max, n).into_iter();
    let points: Vec<CrashPoint> = (1..=probe.commits_seen)
        .map(CrashPoint::Commit)
        .chain(samples(probe.events_seen, config.event_samples).map(CrashPoint::Event))
        .chain(samples(probe.log_flushes_seen, config.mid_flush_samples).map(CrashPoint::MidFlush))
        .chain(samples(run_syscalls, config.syscall_samples).map(CrashPoint::Syscall))
        .chain(samples(run_fsyncs, config.fsync_fail_samples).map(CrashPoint::FsyncFail))
        .collect();

    let run_point = |idx: usize, &point: &CrashPoint| -> CrashPointResult {
        let dirname = format!("pt{idx:03}-{}", point.label().replace(':', "-"));
        let root = base.join(&dirname);
        let _ = std::fs::remove_dir_all(&root);
        let mut result = crash_and_recover(&cfg, &root, file_fault_cfg(config, idx as u64), point);
        if !result.violations.is_empty() {
            let dest = scratch_base.join(&dirname);
            if preserve_scratch(&root, &dest).is_ok() {
                result.scratch = Some(dest.display().to_string());
            }
        }
        let _ = std::fs::remove_dir_all(&root);
        result
    };

    let (points_out, _) = ordered_parallel_map(config.jobs, &points, run_point);
    let _ = std::fs::remove_dir_all(&base);

    CrashMatrixReport {
        total_commits: probe.commits_seen,
        total_events: probe.events_seen,
        total_flushes: probe.log_flushes_seen,
        total_syscalls,
        total_fsyncs,
        points: points_out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn tiny() -> SimConfig {
        SimConfig {
            database_bytes: 512 * 1024,
            buffer_pages: 8,
            warmup_txns: 5,
            measured_txns: 20,
            retain_log: true,
            ..SimConfig::default()
        }
    }

    /// A per-test store directory under the system temp dir.
    fn scratch(tag: &str) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("semcluster-crash-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        root
    }

    fn quiet() -> FsFaultConfig {
        FsFaultConfig {
            skip_physical_sync: true,
            ..FsFaultConfig::default()
        }
    }

    #[test]
    fn sample_points_are_ascending_and_bounded() {
        assert_eq!(sample_points(0, 10), Vec::<u64>::new());
        assert_eq!(sample_points(5, 0), Vec::<u64>::new());
        assert_eq!(sample_points(1, 3), vec![1]);
        let s = sample_points(100, 7);
        assert_eq!(s.first(), Some(&1));
        assert_eq!(s.last(), Some(&100));
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        // More samples than range: every point once.
        assert_eq!(sample_points(4, 50), vec![1, 2, 3, 4]);
    }

    #[test]
    fn crash_at_first_commit_is_acid_clean() {
        let root = scratch("first-commit");
        let mut engine = Engine::new(tiny());
        engine
            .attach_mirror(DurableMirror::create(&root, quiet()).unwrap())
            .unwrap();
        let outcome = engine.run_and_crash_at(CrashPoint::Commit(1));
        assert_eq!(outcome.commits_seen, 1, "stopped at the first commit");
        assert!(outcome.acked.is_empty(), "the crash beat the ack");
        let (rec, violations) = outcome.recover_and_verify(&root);
        std::fs::remove_dir_all(&root).unwrap();
        assert!(violations.is_empty(), "{violations:?}");
        let rec = rec.expect("the first recovery pass succeeded");
        assert_eq!(rec.winners.len(), 1, "its force completed, so it wins");
    }

    #[test]
    fn recover_and_verify_reports_the_ground_truth_first() {
        let root = scratch("ground-truth");
        let mut engine = Engine::new(tiny());
        engine
            .attach_mirror(DurableMirror::create(&root, quiet()).unwrap())
            .unwrap();
        let mut outcome = engine.run_and_crash_at(CrashPoint::End);
        let token = outcome.acked[0].raw();
        outcome.aborted.push(outcome.acked[0]);
        let (rec, violations) = outcome.recover_and_verify(&root);
        std::fs::remove_dir_all(&root).unwrap();
        assert!(rec.is_some());
        assert_eq!(
            violations.first().map(String::as_str),
            Some(format!("ground truth: txn {token} is both acked and aborted").as_str()),
            "{violations:?}"
        );
    }

    #[test]
    fn mid_flush_crash_truncates_and_stays_clean() {
        let root = scratch("mid-flush");
        let torn: Vec<u64> = (1..=6)
            .map(|k| crash_and_recover(&tiny(), &root, quiet(), CrashPoint::MidFlush(k)))
            .inspect(|r| assert!(r.violations.is_empty(), "{:?}", r.violations))
            .map(|r| r.wal_truncated)
            .collect();
        let _ = std::fs::remove_dir_all(&root);
        assert!(
            torn.iter().any(|&bytes| bytes > 0),
            "no mid-flush crash tore the WAL tail: {torn:?}"
        );
    }

    #[test]
    fn verify_file_rejects_an_engine_aborted_winner() {
        let mut outcome = Engine::new(tiny()).run_and_crash_at(CrashPoint::End);
        let token = outcome.acked[0];
        outcome.acked.clear();
        outcome.aborted = vec![token];
        let rec = FileRecoveryOutcome {
            checkpoint_seen: true,
            winners: vec![token.raw()],
            aborted: Vec::new(),
            losers: Vec::new(),
            redone: 0,
            undone: 0,
            torn_pages: Vec::new(),
            repaired_pages: Vec::new(),
            wal_truncated_bytes: 0,
            wal_records: 0,
            violations: Vec::new(),
            pages: BTreeMap::new(),
        };
        let violations = outcome.verify_file(&rec, &rec, true);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("atomicity"), "{violations:?}");
    }

    #[test]
    fn verify_acid_rejects_a_transaction_that_ends_two_ways() {
        let mut outcome = Engine::new(tiny()).run_and_crash_at(CrashPoint::End);
        assert!(outcome.verify_acid().is_empty());
        outcome.aborted.push(outcome.acked[0]);
        let violations = outcome.verify_acid();
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("both acked and aborted"));
    }

    #[test]
    fn tiny_matrix_is_violation_free_and_thread_invariant() {
        let mut mc = CrashMatrixConfig::smoke();
        mc.cfg.database_bytes = 512 * 1024;
        mc.cfg.buffer_pages = 8;
        mc.cfg.warmup_txns = 3;
        mc.cfg.measured_txns = 8;
        mc.event_samples = 6;
        mc.mid_flush_samples = 3;
        mc.syscall_samples = 3;
        mc.fsync_fail_samples = 1;
        mc.skip_physical_sync = true;
        mc.jobs = 1;
        let serial = run_crash_matrix(&mc);
        assert_eq!(serial.violation_count(), 0, "{}", serial.render());
        assert!(serial.total_commits > 0);
        assert!(serial.points.len() as u64 >= serial.total_commits);
        mc.jobs = 4;
        let parallel = run_crash_matrix(&mc);
        assert_eq!(serial.render(), parallel.render());
    }

    #[test]
    fn tiny_file_matrix_is_violation_free() {
        let mut mc = CrashMatrixConfig::smoke();
        mc.cfg.database_bytes = 256 * 1024;
        mc.cfg.buffer_pages = 8;
        mc.cfg.warmup_txns = 3;
        mc.cfg.measured_txns = 8;
        mc.event_samples = 4;
        mc.mid_flush_samples = 2;
        mc.syscall_samples = 4;
        mc.fsync_fail_samples = 2;
        mc.skip_physical_sync = true;
        mc.jobs = 2;
        let report = run_crash_matrix(&mc);
        assert_eq!(report.violation_count(), 0, "{}", report.render());
        assert!(report.total_syscalls > report.total_fsyncs);
        assert!(report.total_fsyncs > 0);
        // The point list must actually cover the filesystem fault modes.
        assert!(report
            .points
            .iter()
            .any(|p| matches!(p.point, CrashPoint::Syscall(_))));
        assert!(report
            .points
            .iter()
            .any(|p| matches!(p.point, CrashPoint::FsyncFail(_))));
        assert!(
            report.points.iter().any(|p| p.fsync_failed),
            "at least one run must survive an injected fsync failure"
        );
    }
}
