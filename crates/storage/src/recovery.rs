//! [`recover_dir`]: ARIES-style restart recovery over a
//! [`FilePageStore`](crate::FilePageStore) directory (DESIGN.md §15.4).
//!
//! Recovery holds the recovered page images and the transaction sets,
//! never either file: `wal.log` is streamed through one fixed
//! [`WalReader`] buffer and `pages.db` is read a chunk of slots at a
//! time. The passes:
//!
//! 1. **Analysis** streams the log: committed, aborted and still-open
//!    transactions, the pages that have a logged snapshot, the record
//!    count and where the trusted prefix ends.
//! 2. **Decode** reads every page slot, treating CRC failures as torn.
//! 3. **Redo** streams the trusted prefix again, LSN-gated per page;
//!    a snapshot replaces its page's image in place. Only the losers'
//!    operations are kept, for
//! 4. **Undo**, in reverse LSN order with presence-conditioned inverses
//!    (idempotent without CLRs).
//! 5. **Checks** on the recovered state, then **repair**: each image is
//!    compared with its slot on disk, in page order, and rewritten only
//!    where the bytes differ; the torn log tail is truncated.

use crate::codec::{decode_page, encode_page_into, PageRead, WalOp, WalReader, WalRecord};
use crate::filestore::{slot_offset, StoreError, PAGES_FILE, PAGE_BYTES, WAL_FILE};
use semcluster_faults::FsError;
use std::collections::{BTreeMap, BTreeSet};
use std::fs::File;
use std::io::{ErrorKind, Read};
use std::os::unix::fs::FileExt;
use std::path::Path;

/// Page slots `pages.db` is read in at a time (256 KiB).
const CHUNK_SLOTS: u32 = 64;

/// One recovered page image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredPage {
    /// LSN the image is current through.
    pub lsn: u64,
    /// `(object, size)` slots in deterministic order.
    pub slots: Vec<(u32, u32)>,
}

/// Everything restart recovery derived and did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileRecoveryOutcome {
    /// Whether a durable `CheckpointEnd` was found. Without one the
    /// store never finished opening: both files are reset.
    pub checkpoint_seen: bool,
    /// Transactions with a durable commit record (ascending).
    pub winners: Vec<u64>,
    /// Transactions with a durable abort record (ascending). Their
    /// placement effects persist — the engine's abort model does not
    /// roll back placements.
    pub aborted: Vec<u64>,
    /// In-flight transactions (ops but no terminal record) rolled back.
    pub losers: Vec<u64>,
    /// Redo operations applied (LSN-gated).
    pub redone: u64,
    /// Undo operations applied or verified absent.
    pub undone: u64,
    /// Page slots whose on-disk image failed verification.
    pub torn_pages: Vec<u32>,
    /// Pages rewritten during repair.
    pub repaired_pages: Vec<u32>,
    /// Torn WAL tail bytes physically truncated.
    pub wal_truncated_bytes: u64,
    /// Trusted WAL records scanned.
    pub wal_records: usize,
    /// Invariant violations found during recovery (empty = clean).
    pub violations: Vec<String>,
    /// The recovered page images.
    pub pages: BTreeMap<u32, RecoveredPage>,
}

fn io_err(op: &'static str, path: &Path, e: std::io::Error) -> StoreError {
    StoreError::Fs(FsError::Io {
        op,
        path: path.display().to_string(),
        detail: e.to_string(),
    })
}

/// `path` opened for reading, or `None` if it does not exist.
fn open(path: &Path) -> Result<Option<File>, StoreError> {
    match File::open(path) {
        Ok(f) => Ok(Some(f)),
        Err(e) if e.kind() == ErrorKind::NotFound => Ok(None),
        Err(e) => Err(io_err("read", path, e)),
    }
}

/// Feed the records of the log at `path` (absent = empty), read no
/// further than `limit` bytes, to `each`. Returns the trusted and
/// truncated byte counts.
fn scan_log(
    path: &Path,
    limit: u64,
    mut each: impl FnMut(&WalRecord),
) -> Result<(u64, u64), StoreError> {
    let Some(file) = open(path)? else {
        return Ok((0, 0));
    };
    let mut log = WalReader::new(file.take(limit));
    while let Some(rec) = log.next_record().map_err(|e| io_err("read", path, e))? {
        each(rec);
    }
    Ok((log.trusted_bytes(), log.truncated_bytes()))
}

/// Read `buf.len()` bytes of `file` at `offset`, or as many as the file
/// has there; returns how many.
fn read_chunk(file: &File, offset: u64, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut n = 0;
    while n < buf.len() {
        match file.read_at(&mut buf[n..], offset + n as u64) {
            Ok(0) => break,
            Ok(k) => n += k,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(n)
}

/// The object a placement operation names; `None` for the others.
fn op_object(op: &WalOp) -> Option<u32> {
    match *op {
        WalOp::Touch { object, .. }
        | WalOp::Place { object, .. }
        | WalOp::Remove { object, .. }
        | WalOp::Move { object, .. } => Some(object),
        _ => None,
    }
}

/// Remove `object` from a slot list if present.
fn slot_remove(slots: &mut Vec<(u32, u32)>, object: u32) {
    if let Some(i) = slots.iter().position(|&(o, _)| o == object) {
        slots.remove(i);
    }
}

/// Insert `(object, size)` if the object is absent.
fn slot_insert(slots: &mut Vec<(u32, u32)>, object: u32, size: u32) {
    if !slots.iter().any(|&(o, _)| o == object) {
        slots.push((object, size));
    }
}

/// The image of `page`, created empty at LSN 0 if absent.
fn image(images: &mut BTreeMap<u32, RecoveredPage>, page: u32) -> &mut RecoveredPage {
    images.entry(page).or_insert_with(|| RecoveredPage {
        lsn: 0,
        slots: Vec::new(),
    })
}

/// The slots of `page`, restamped `lsn`, if a record at `lsn` is newer
/// than the page's image (an absent page is at LSN 0).
fn newer(
    images: &mut BTreeMap<u32, RecoveredPage>,
    page: u32,
    lsn: u64,
) -> Option<&mut Vec<(u32, u32)>> {
    if lsn <= images.get(&page).map_or(0, |p| p.lsn) {
        return None;
    }
    let img = image(images, page);
    img.lsn = lsn;
    Some(&mut img.slots)
}

/// Apply `edit` to one page side of an operation, if the gate let it
/// through; returns the operations applied.
fn applied(side: Option<&mut Vec<(u32, u32)>>, edit: impl FnOnce(&mut Vec<(u32, u32)>)) -> u64 {
    side.map_or(0, |slots| {
        edit(slots);
        1
    })
}

/// Redo one record on every page it is newer than; `replays` says
/// whether its transaction's operations are replayed. Returns the
/// operations applied (a snapshot is a base image, not an operation).
fn redo(images: &mut BTreeMap<u32, RecoveredPage>, rec: &WalRecord, replays: bool) -> u64 {
    let lsn = rec.lsn;
    match rec.op {
        // A snapshot is a full redo image: it replaces any older base,
        // which is exactly how torn pages heal.
        WalOp::PageSnapshot { page, ref slots } => {
            if let Some(image) = newer(images, page, lsn) {
                image.clear();
                image.extend_from_slice(slots);
            }
            0
        }
        _ if !replays => 0,
        WalOp::Touch { object, size, page } => applied(newer(images, page, lsn), |slots| {
            if let Some(slot) = slots.iter_mut().find(|(o, _)| *o == object) {
                slot.1 = size;
            }
        }),
        WalOp::Place { object, size, page } => applied(newer(images, page, lsn), |slots| {
            slot_insert(slots, object, size)
        }),
        WalOp::Remove { object, page, .. } => {
            applied(newer(images, page, lsn), |slots| slot_remove(slots, object))
        }
        WalOp::Move {
            object,
            size,
            from,
            to,
        } => {
            applied(newer(images, from, lsn), |slots| slot_remove(slots, object))
                + applied(newer(images, to, lsn), |slots| {
                    slot_insert(slots, object, size)
                })
        }
        WalOp::CheckpointEnd | WalOp::Commit | WalOp::Abort => 0,
    }
}

/// What the analysis pass learns from the log.
#[derive(Default)]
struct Analysis {
    checkpoint_seen: bool,
    committed: BTreeSet<u64>,
    aborted: BTreeSet<u64>,
    /// Transactions with operations and no terminal record yet; after
    /// the pass, without transaction 0, the losers.
    open: BTreeSet<u64>,
    snapshot_pages: BTreeSet<u32>,
    records: usize,
}

impl Analysis {
    fn note(&mut self, rec: &WalRecord) {
        self.records += 1;
        match rec.op {
            WalOp::CheckpointEnd => self.checkpoint_seen = true,
            WalOp::Commit => {
                self.committed.insert(rec.txn);
                self.open.remove(&rec.txn);
            }
            WalOp::Abort => {
                self.aborted.insert(rec.txn);
                self.open.remove(&rec.txn);
            }
            WalOp::PageSnapshot { page, .. } => {
                self.snapshot_pages.insert(page);
            }
            WalOp::Touch { .. }
            | WalOp::Place { .. }
            | WalOp::Remove { .. }
            | WalOp::Move { .. } => {
                // An operation logged after its transaction's terminal
                // record does not make it a loser.
                if !self.committed.contains(&rec.txn) && !self.aborted.contains(&rec.txn) {
                    self.open.insert(rec.txn);
                }
            }
        }
    }
}

/// ARIES-style restart recovery over a [`FilePageStore`](crate::FilePageStore)
/// directory. Safe to run any number of times: the second and later runs
/// find a clean store and change nothing.
///
/// One deliberate modeling choice: the simulation engine does not roll
/// back the placement effects of transactions *it* aborts (their
/// objects stay in the in-memory store), so recovery replays both
/// committed and aborted transactions and rolls back only transactions
/// with no durable terminal record. Atomicity is verified for those
/// losers: an object only ever placed by a loser must be absent from
/// the recovered state.
pub fn recover_dir(root: &Path) -> Result<FileRecoveryOutcome, StoreError> {
    let wal_path = root.join(WAL_FILE);
    let pages_path = root.join(PAGES_FILE);

    // 1. Analysis; everything after the first corruption is the torn
    //    tail. Terminal transactions (commit OR abort — see above)
    //    replay; transactions with ops but no terminal record are losers.
    let mut analysis = Analysis::default();
    let (trusted_bytes, truncated_bytes) = scan_log(&wal_path, u64::MAX, |r| analysis.note(r))?;
    let Analysis {
        checkpoint_seen,
        committed,
        aborted,
        open: mut losers,
        snapshot_pages,
        records,
    } = analysis;
    losers.remove(&0);
    let pages_file = open(&pages_path)?;

    // A store that never finished opening (no durable CheckpointEnd)
    // holds no acknowledged state: reset it to empty.
    if !checkpoint_seen {
        let wal_len = trusted_bytes + truncated_bytes;
        let pages_len = match &pages_file {
            Some(f) => f
                .metadata()
                .map_err(|e| io_err("read", &pages_path, e))?
                .len(),
            None => 0,
        };
        if wal_len > 0 || pages_len > 0 {
            truncate_file(&wal_path, 0)?;
            truncate_file(&pages_path, 0)?;
        }
        return Ok(FileRecoveryOutcome {
            checkpoint_seen: false,
            winners: Vec::new(),
            aborted: Vec::new(),
            losers: Vec::new(),
            redone: 0,
            undone: 0,
            torn_pages: Vec::new(),
            repaired_pages: Vec::new(),
            wal_truncated_bytes: wal_len,
            wal_records: records,
            violations: Vec::new(),
            pages: BTreeMap::new(),
        });
    }

    // 2. Decode every on-disk page slot.
    let mut images: BTreeMap<u32, RecoveredPage> = BTreeMap::new();
    let mut torn_pages: Vec<u32> = Vec::new();
    let mut chunk = vec![0u8; CHUNK_SLOTS as usize * PAGE_BYTES];
    if let Some(file) = &pages_file {
        let mut slot = 0u32;
        loop {
            let n = read_chunk(file, slot_offset(slot), &mut chunk)
                .map_err(|e| io_err("read", &pages_path, e))?;
            for bytes in chunk[..n].chunks(PAGE_BYTES) {
                match decode_page(bytes) {
                    PageRead::Missing => {}
                    PageRead::Valid { page, lsn, slots } if page == slot => {
                        images.insert(page, RecoveredPage { lsn, slots });
                    }
                    // Valid bytes under the wrong slot, short tail slots
                    // and CRC failures are all torn.
                    _ => torn_pages.push(slot),
                }
                slot += 1;
            }
            if n < chunk.len() {
                break;
            }
        }
    }

    // 3. Redo pass, in LSN order, gated per page side; keep the losers'
    //    operations for undo.
    let mut redone = 0u64;
    let mut loser_ops: Vec<WalRecord> = Vec::new();
    scan_log(&wal_path, trusted_bytes, |rec| {
        let loser = losers.contains(&rec.txn);
        if loser && op_object(&rec.op).is_some() {
            loser_ops.push(rec.clone());
        }
        redone += redo(&mut images, rec, rec.txn != 0 && !loser);
    })?;

    // 4. Undo pass: loser ops in reverse LSN order. Inverses are
    //    presence-conditioned, so undoing twice is a no-op and no CLRs
    //    are needed.
    for rec in loser_ops.iter().rev() {
        match rec.op {
            WalOp::Place { object, page, .. } => {
                if let Some(img) = images.get_mut(&page) {
                    slot_remove(&mut img.slots, object);
                }
            }
            WalOp::Remove { object, size, page } => {
                slot_insert(&mut image(&mut images, page).slots, object, size);
            }
            WalOp::Move {
                object,
                size,
                from,
                to,
            } => {
                if let Some(img) = images.get_mut(&to) {
                    slot_remove(&mut img.slots, object);
                }
                slot_insert(&mut image(&mut images, from).slots, object, size);
            }
            _ => {}
        }
    }
    let undone = loser_ops.len() as u64;

    // 5. Invariant checks on the recovered state.
    let mut violations = Vec::new();
    for &page in &torn_pages {
        if !snapshot_pages.contains(&page) && images.contains_key(&page) {
            violations.push(format!(
                "torn page {page} has no logged snapshot to repair from"
            ));
        }
    }
    let mut seen: BTreeMap<u32, u32> = BTreeMap::new();
    for (page, img) in &images {
        for &(object, _) in &img.slots {
            if let Some(other) = seen.insert(object, *page) {
                violations.push(format!(
                    "object {object} recovered on both page {other} and page {page}"
                ));
            }
        }
    }
    // Atomicity: an object only ever placed by losers must be gone. The
    // log is read a third time only when a loser-placed object survived,
    // to clear those a replayed transaction also touched.
    let mut survivors: BTreeMap<u32, u32> = loser_ops
        .iter()
        .filter_map(|rec| match rec.op {
            WalOp::Place { object, .. } => Some((object, *seen.get(&object)?)),
            _ => None,
        })
        .collect();
    if !survivors.is_empty() {
        scan_log(&wal_path, trusted_bytes, |rec| {
            if rec.txn != 0 && !losers.contains(&rec.txn) {
                if let Some(object) = op_object(&rec.op) {
                    survivors.remove(&object);
                }
            }
        })?;
    }
    for (object, page) in survivors {
        violations.push(format!(
            "atomicity: object {object} placed only by an in-flight loser \
             survived recovery on page {page}"
        ));
    }

    // 6. Repair: rewrite every page whose recovered image differs from
    //    its slot on disk, and physically truncate the torn WAL tail.
    let mut repaired_pages = Vec::new();
    let mut out: Option<File> = None;
    let mut encoded = [0u8; PAGE_BYTES];
    // The first slot of the chunk `chunk` holds, and the bytes read.
    let (mut held, mut held_len) = (None, 0);
    for (&page, img) in &images {
        encode_page_into(&mut encoded, page, img.lsn, &img.slots)?;
        let first = page - page % CHUNK_SLOTS;
        if held != Some(first) {
            held = Some(first);
            held_len = match &pages_file {
                Some(f) => read_chunk(f, slot_offset(first), &mut chunk)
                    .map_err(|e| io_err("read", &pages_path, e))?,
                None => 0,
            };
        }
        let start = (page - first) as usize * PAGE_BYTES;
        if chunk[..held_len].get(start..start + PAGE_BYTES) == Some(&encoded[..]) {
            continue;
        }
        let f = match &mut out {
            Some(f) => f,
            None => out.insert(open_for_write(&pages_path)?),
        };
        f.write_all_at(&encoded, slot_offset(page))
            .map_err(|e| io_err("write", &pages_path, e))?;
        repaired_pages.push(page);
    }
    if let Some(f) = out {
        f.sync_all().map_err(|e| io_err("fsync", &pages_path, e))?;
    }
    if truncated_bytes > 0 {
        truncate_file(&wal_path, trusted_bytes)?;
    }

    Ok(FileRecoveryOutcome {
        checkpoint_seen: true,
        winners: committed.into_iter().collect(),
        aborted: aborted.into_iter().collect(),
        losers: losers.into_iter().collect(),
        redone,
        undone,
        torn_pages,
        repaired_pages,
        wal_truncated_bytes: truncated_bytes,
        wal_records: records,
        violations,
        pages: images,
    })
}

/// `path` opened for writing in place, created if absent.
fn open_for_write(path: &Path) -> Result<File, StoreError> {
    std::fs::OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)
        .map_err(|e| io_err("open", path, e))
}

fn truncate_file(path: &Path, len: u64) -> Result<(), StoreError> {
    let f = open_for_write(path)?;
    f.set_len(len).map_err(|e| io_err("truncate", path, e))?;
    f.sync_all().map_err(|e| io_err("fsync", path, e))?;
    Ok(())
}
