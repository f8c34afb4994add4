//! On-disk formats for the durable backend: checksummed page images
//! and WAL records (DESIGN.md §15).
//!
//! ## Page image (fixed 4096-byte slot at offset `page_id * 4096`)
//!
//! ```text
//! +--------+---------+--------+-------------+--------+----------------+
//! | magic  | page id |  lsn   | payload_len |  crc   |    payload     |
//! | "SPG1" |  u32    |  u64   |    u32      |  u32   | count + slots  |
//! |  u32   |         |        |             |        |  (zero-padded) |
//! +--------+---------+--------+-------------+--------+----------------+
//!  0        4         8        16            20       24 .. 4096
//! ```
//!
//! The payload is `count: u32` followed by `count` `(object: u32,
//! size: u32)` pairs. The CRC (IEEE CRC-32) covers bytes 4..20 plus
//! the payload, so any single-bit flip anywhere meaningful — header or
//! payload — fails verification. An all-zero slot decodes as
//! [`PageRead::Missing`] (never written); anything else that fails the
//! magic, bounds or CRC checks is [`PageRead::Torn`].
//!
//! ## WAL record
//!
//! ```text
//! +--------+------+------+------+----+----+----+----+-------------+-----+---------+
//! | magic  | lsn  | txn  | kind | a  | b  | c  | d  | payload_len | crc | payload |
//! | "SWR1" | u64  | u64  | u8   |u32 |u32 |u32 |u32 |     u32     | u32 |         |
//! +--------+------+------+------+----+----+----+----+-------------+-----+---------+
//! ```
//!
//! Fixed 45-byte header; only [`WalOp::PageSnapshot`] carries a
//! payload (its slot list). [`WalReader`] decodes a log from any byte
//! stream through one fixed buffer and stops at the first short or
//! corrupt record: everything after it is the torn tail and recovery
//! truncates it. [`scan_wal`] is the same decoder over a byte slice.

use std::fmt;

/// Size of one on-disk page slot.
pub const DISK_PAGE_BYTES: u32 = 4096;
/// Page header: magic + page id + lsn + payload_len + crc.
pub const PAGE_HEADER_BYTES: usize = 24;
/// Maximum `(object, size)` slots one on-disk page can carry.
pub const MAX_DISK_SLOTS: usize = (DISK_PAGE_BYTES as usize - PAGE_HEADER_BYTES - 4) / 8;
/// WAL record header length.
pub const WAL_HEADER_BYTES: usize = 45;

const PAGE_MAGIC: u32 = 0x5350_4731; // "SPG1"
const WAL_MAGIC: u32 = 0x5357_5231; // "SWR1"
/// Sanity bound on a WAL payload (a snapshot of a full page).
const MAX_WAL_PAYLOAD: u32 = DISK_PAGE_BYTES;
/// Kind byte of a [`WalOp::PageSnapshot`] record.
const SNAPSHOT_KIND: u8 = 7;

/// Errors from encoding on-disk structures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Page payload exceeds the fixed slot size.
    PageOverflow {
        /// Page being encoded.
        page: u32,
        /// Slots that were requested.
        slots: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::PageOverflow { page, slots } => write!(
                f,
                "page {page} with {slots} slots exceeds the {DISK_PAGE_BYTES}-byte on-disk slot \
                 (max {MAX_DISK_SLOTS})"
            ),
        }
    }
}

impl std::error::Error for CodecError {}

// ---------------------------------------------------------------- CRC32

/// Slicing-by-8 tables: `[0]` is the classic byte-at-a-time table,
/// `[k]` carries a byte through `k` further zero bytes, so eight input
/// bytes fold into the CRC with eight independent lookups.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

/// IEEE CRC-32 (the zlib polynomial), dependency-free.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_feed(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// CRC-32 of `head` followed by `tail`, without joining them: both
/// on-disk formats checksum a header field range and a payload, with
/// the checksum field itself sitting between the two.
fn crc32_pair(head: &[u8], tail: &[u8]) -> u32 {
    crc32_feed(crc32_feed(0xFFFF_FFFF, head), tail) ^ 0xFFFF_FFFF
}

fn crc32_feed(mut c: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][w[4] as usize]
            ^ t[2][w[5] as usize]
            ^ t[1][w[6] as usize]
            ^ t[0][w[7] as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// Whether every byte of `buf` is zero, sixteen bytes at a time.
fn all_zero(buf: &[u8]) -> bool {
    let mut chunks = buf.chunks_exact(16);
    chunks.all(|c| u128::from_ne_bytes(c.try_into().expect("chunks_exact(16)")) == 0)
        && chunks.remainder().iter().all(|&b| b == 0)
}

fn put_u32(buf: &mut [u8], at: usize, v: u32) {
    buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut [u8], at: usize, v: u64) {
    buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

fn get_u32(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([buf[at], buf[at + 1], buf[at + 2], buf[at + 3]])
}

fn get_u64(buf: &[u8], at: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&buf[at..at + 8]);
    u64::from_le_bytes(b)
}

// ----------------------------------------------------------- page codec

/// What decoding one on-disk page slot yielded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PageRead {
    /// The slot was never written (all zero).
    Missing,
    /// A verified page image.
    Valid {
        /// Page id from the header (must match the slot position).
        page: u32,
        /// LSN the image was written at.
        lsn: u64,
        /// `(object, size)` slots.
        slots: Vec<(u32, u32)>,
    },
    /// The slot holds bytes that fail the magic/bounds/CRC checks —
    /// a torn or corrupt write. Recovery must repair it from the log.
    Torn,
}

/// Encode a page image into a fixed [`DISK_PAGE_BYTES`] buffer.
pub fn encode_page(page: u32, lsn: u64, slots: &[(u32, u32)]) -> Result<Vec<u8>, CodecError> {
    let mut buf = vec![0u8; DISK_PAGE_BYTES as usize];
    encode_page_into(&mut buf, page, lsn, slots)?;
    Ok(buf)
}

/// Encode a page image over `buf`, which must be exactly one
/// [`DISK_PAGE_BYTES`] slot; whatever it held is overwritten, padding
/// included.
pub(crate) fn encode_page_into(
    buf: &mut [u8],
    page: u32,
    lsn: u64,
    slots: &[(u32, u32)],
) -> Result<(), CodecError> {
    assert_eq!(buf.len(), DISK_PAGE_BYTES as usize, "one page slot");
    if slots.len() > MAX_DISK_SLOTS {
        return Err(CodecError::PageOverflow {
            page,
            slots: slots.len(),
        });
    }
    put_u32(buf, 0, PAGE_MAGIC);
    put_u32(buf, 4, page);
    put_u64(buf, 8, lsn);
    let payload_len = 4 + 8 * slots.len();
    put_u32(buf, 16, payload_len as u32);
    let end = put_slots(buf, PAGE_HEADER_BYTES, slots);
    buf[end..].fill(0);
    let crc = page_crc(buf, payload_len);
    put_u32(buf, 20, crc);
    Ok(())
}

/// Write `count` then the `(object, size)` pairs at `at`; returns the
/// offset just past them.
fn put_slots(buf: &mut [u8], mut at: usize, slots: &[(u32, u32)]) -> usize {
    put_u32(buf, at, slots.len() as u32);
    at += 4;
    for &(object, size) in slots {
        put_u32(buf, at, object);
        put_u32(buf, at + 4, size);
        at += 8;
    }
    at
}

fn page_crc(buf: &[u8], payload_len: usize) -> u32 {
    crc32_pair(
        &buf[4..20],
        &buf[PAGE_HEADER_BYTES..PAGE_HEADER_BYTES + payload_len],
    )
}

/// Decode one on-disk page slot. Anything other than an exact
/// [`DISK_PAGE_BYTES`] buffer with a valid header and CRC is `Torn`
/// (or `Missing` for the all-zero never-written slot).
pub fn decode_page(buf: &[u8]) -> PageRead {
    // A slot that does not open with the magic is never-written if it
    // is all zero and torn otherwise; one that does is not all zero, so
    // only its padding is left to scan below.
    if buf.len() != DISK_PAGE_BYTES as usize || get_u32(buf, 0) != PAGE_MAGIC {
        return if all_zero(buf) {
            PageRead::Missing
        } else {
            PageRead::Torn
        };
    }
    let page = get_u32(buf, 4);
    let lsn = get_u64(buf, 8);
    let payload_len = get_u32(buf, 16) as usize;
    if payload_len < 4
        || payload_len > DISK_PAGE_BYTES as usize - PAGE_HEADER_BYTES
        || !(payload_len - 4).is_multiple_of(8)
    {
        return PageRead::Torn;
    }
    if get_u32(buf, 20) != page_crc(buf, payload_len) {
        return PageRead::Torn;
    }
    // Padding beyond the payload must be zero: a torn overwrite that
    // left stale bytes past a shorter valid payload is still detected.
    if !all_zero(&buf[PAGE_HEADER_BYTES + payload_len..]) {
        return PageRead::Torn;
    }
    let count = get_u32(buf, PAGE_HEADER_BYTES) as usize;
    if count != (payload_len - 4) / 8 {
        return PageRead::Torn;
    }
    let mut slots = Vec::with_capacity(count);
    let mut at = PAGE_HEADER_BYTES + 4;
    for _ in 0..count {
        slots.push((get_u32(buf, at), get_u32(buf, at + 4)));
        at += 8;
    }
    PageRead::Valid { page, lsn, slots }
}

// ------------------------------------------------------------ WAL codec

/// A logical WAL operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    /// All pages up to this point are on disk (written at startup
    /// before any transaction runs); recovery needs nothing earlier.
    CheckpointEnd,
    /// In-place update of an object (size may change).
    Touch {
        /// Object updated.
        object: u32,
        /// Size after the update.
        size: u32,
        /// Page it lives on.
        page: u32,
    },
    /// An object was placed on a page.
    Place {
        /// Object placed.
        object: u32,
        /// Its size.
        size: u32,
        /// Destination page.
        page: u32,
    },
    /// An object was removed from a page.
    Remove {
        /// Object removed.
        object: u32,
        /// Its size at removal.
        size: u32,
        /// Page it was removed from.
        page: u32,
    },
    /// An object moved between pages (split or recluster).
    Move {
        /// Object moved.
        object: u32,
        /// Its size.
        size: u32,
        /// Source page.
        from: u32,
        /// Destination page.
        to: u32,
    },
    /// Transaction committed (durable once this record is fsynced).
    Commit,
    /// Transaction aborted.
    Abort,
    /// Full before-write image of a page, forced to the log before the
    /// page itself may be stolen (the WAL rule). Doubles as the repair
    /// source for torn page writes.
    PageSnapshot {
        /// Page snapshotted.
        page: u32,
        /// Its full slot list.
        slots: Vec<(u32, u32)>,
    },
}

impl WalOp {
    fn kind(&self) -> u8 {
        match self {
            WalOp::CheckpointEnd => 0,
            WalOp::Touch { .. } => 1,
            WalOp::Place { .. } => 2,
            WalOp::Remove { .. } => 3,
            WalOp::Move { .. } => 4,
            WalOp::Commit => 5,
            WalOp::Abort => 6,
            WalOp::PageSnapshot { .. } => SNAPSHOT_KIND,
        }
    }

    /// The page(s) this op touches, for LSN gating during replay.
    pub fn pages(&self) -> (Option<u32>, Option<u32>) {
        match *self {
            WalOp::Touch { page, .. }
            | WalOp::Place { page, .. }
            | WalOp::Remove { page, .. }
            | WalOp::PageSnapshot { page, .. } => (Some(page), None),
            WalOp::Move { from, to, .. } => (Some(from), Some(to)),
            WalOp::CheckpointEnd | WalOp::Commit | WalOp::Abort => (None, None),
        }
    }
}

/// One decoded WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Log sequence number (strictly increasing).
    pub lsn: u64,
    /// Owning transaction (0 = system work: checkpoints, snapshots).
    pub txn: u64,
    /// The operation.
    pub op: WalOp,
}

/// Encode one WAL record.
pub fn encode_wal_record(lsn: u64, txn: u64, op: &WalOp) -> Vec<u8> {
    let mut buf = Vec::new();
    encode_wal_record_into(&mut buf, lsn, txn, op);
    buf
}

/// Append one encoded WAL record to `out` (a log buffer).
pub(crate) fn encode_wal_record_into(out: &mut Vec<u8>, lsn: u64, txn: u64, op: &WalOp) {
    let (fields, slots): ([u32; 4], &[(u32, u32)]) = match op {
        WalOp::CheckpointEnd | WalOp::Commit | WalOp::Abort => ([0; 4], &[]),
        WalOp::Touch { object, size, page }
        | WalOp::Place { object, size, page }
        | WalOp::Remove { object, size, page } => ([*object, *size, *page, 0], &[]),
        WalOp::Move {
            object,
            size,
            from,
            to,
        } => ([*object, *size, *from, *to], &[]),
        WalOp::PageSnapshot { page, slots } => ([*page, 0, 0, 0], slots),
    };
    put_wal_record(out, lsn, txn, op.kind(), fields, slots);
}

/// Append a system (transaction 0) [`WalOp::PageSnapshot`] record to
/// `out` straight from a borrowed slot list.
pub(crate) fn encode_snapshot_into(out: &mut Vec<u8>, lsn: u64, page: u32, slots: &[(u32, u32)]) {
    put_wal_record(out, lsn, 0, SNAPSHOT_KIND, [page, 0, 0, 0], slots);
}

/// Only a snapshot record carries a payload: its slot list.
fn put_wal_record(
    out: &mut Vec<u8>,
    lsn: u64,
    txn: u64,
    kind: u8,
    fields: [u32; 4],
    slots: &[(u32, u32)],
) {
    let payload_len = if kind == SNAPSHOT_KIND {
        4 + 8 * slots.len()
    } else {
        0
    };
    let start = out.len();
    out.resize(start + WAL_HEADER_BYTES + payload_len, 0);
    let buf = &mut out[start..];
    put_u32(buf, 0, WAL_MAGIC);
    put_u64(buf, 4, lsn);
    put_u64(buf, 12, txn);
    buf[20] = kind;
    for (i, field) in fields.into_iter().enumerate() {
        put_u32(buf, 21 + 4 * i, field);
    }
    put_u32(buf, 37, payload_len as u32);
    if payload_len > 0 {
        put_slots(buf, WAL_HEADER_BYTES, slots);
    }
    let crc = wal_crc(buf, payload_len);
    put_u32(buf, 41, crc);
}

fn wal_crc(buf: &[u8], payload_len: usize) -> u32 {
    crc32_pair(
        &buf[4..41],
        &buf[WAL_HEADER_BYTES..WAL_HEADER_BYTES + payload_len],
    )
}

/// Length of the record whose header opens `buf`, or `None` if the
/// header is short, lacks the magic or claims an oversized payload.
fn wal_record_len(buf: &[u8]) -> Option<usize> {
    if buf.len() < WAL_HEADER_BYTES || get_u32(buf, 0) != WAL_MAGIC {
        return None;
    }
    let payload_len = get_u32(buf, 37);
    (payload_len <= MAX_WAL_PAYLOAD).then_some(WAL_HEADER_BYTES + payload_len as usize)
}

/// Decode the record at the start of `buf`. Returns the record and the
/// bytes it consumed, or `None` if the prefix is short or corrupt.
pub fn decode_wal_record(buf: &[u8]) -> Option<(WalRecord, usize)> {
    decode_wal_into(buf, &mut Vec::new())
}

/// [`decode_wal_record`], with a snapshot's slot list built in `spare`'s
/// allocation (taken, so `spare` is left empty).
fn decode_wal_into(buf: &[u8], spare: &mut Vec<(u32, u32)>) -> Option<(WalRecord, usize)> {
    let total = wal_record_len(buf)?;
    if buf.len() < total {
        return None;
    }
    let payload_len = total - WAL_HEADER_BYTES;
    if get_u32(buf, 41) != wal_crc(buf, payload_len) {
        return None;
    }
    let lsn = get_u64(buf, 4);
    let txn = get_u64(buf, 12);
    let kind = buf[20];
    let a = get_u32(buf, 21);
    let b = get_u32(buf, 25);
    let c = get_u32(buf, 29);
    let d = get_u32(buf, 33);
    let op = match kind {
        0 => WalOp::CheckpointEnd,
        1 => WalOp::Touch {
            object: a,
            size: b,
            page: c,
        },
        2 => WalOp::Place {
            object: a,
            size: b,
            page: c,
        },
        3 => WalOp::Remove {
            object: a,
            size: b,
            page: c,
        },
        4 => WalOp::Move {
            object: a,
            size: b,
            from: c,
            to: d,
        },
        5 => WalOp::Commit,
        6 => WalOp::Abort,
        SNAPSHOT_KIND => {
            let payload = &buf[WAL_HEADER_BYTES..total];
            if payload.len() < 4 {
                return None;
            }
            let count = get_u32(payload, 0) as usize;
            if payload.len() != 4 + 8 * count {
                return None;
            }
            let mut slots = std::mem::take(spare);
            slots.clear();
            slots.extend(
                payload[4..]
                    .chunks_exact(8)
                    .map(|pair| (get_u32(pair, 0), get_u32(pair, 4))),
            );
            WalOp::PageSnapshot { page: a, slots }
        }
        _ => return None,
    };
    Some((WalRecord { lsn, txn, op }, total))
}

/// Bytes a [`WalReader`] buffers: room for many records, and always for
/// the largest one (a header plus a full page's slot list).
const WAL_READ_BYTES: usize = 64 * 1024;

/// A WAL decoder over any byte stream: it reads through one fixed
/// buffer and yields the trusted records one at a time, so neither the
/// log's bytes nor its records are ever held whole. Like [`scan_wal`]
/// (a thin wrapper over it) it stops at the first short or corrupt
/// record; [`Self::trusted_bytes`] and [`Self::truncated_bytes`] then
/// split the stream exactly as that scan does.
pub struct WalReader<R> {
    src: R,
    /// Read buffer; the unconsumed bytes are `buf[at..end]`.
    buf: Vec<u8>,
    at: usize,
    end: usize,
    /// The source is exhausted.
    eof: bool,
    trusted: u64,
    read: u64,
    /// The record last yielded, and the slot list the next snapshot
    /// reuses once that record is replaced.
    record: WalRecord,
    spare: Vec<(u32, u32)>,
}

impl<R: std::io::Read> WalReader<R> {
    /// A decoder positioned at the start of `src`.
    pub fn new(src: R) -> Self {
        WalReader {
            src,
            buf: vec![0; WAL_READ_BYTES],
            at: 0,
            end: 0,
            eof: false,
            trusted: 0,
            read: 0,
            record: WalRecord {
                lsn: 0,
                txn: 0,
                op: WalOp::Commit,
            },
            spare: Vec::new(),
        }
    }

    /// The next trusted record, or `None` once the trusted prefix has
    /// ended; a snapshot's slot list lives only until the next call.
    /// The only error is the source's.
    pub fn next_record(&mut self) -> std::io::Result<Option<&WalRecord>> {
        if let WalOp::PageSnapshot { slots, .. } = &mut self.record.op {
            self.spare = std::mem::take(slots);
        }
        self.fill(WAL_HEADER_BYTES)?;
        if let Some(total) = wal_record_len(&self.buf[self.at..self.end]) {
            self.fill(total)?;
        }
        match decode_wal_into(&self.buf[self.at..self.end], &mut self.spare) {
            Some((record, used)) => {
                self.record = record;
                self.at += used;
                self.trusted += used as u64;
                Ok(Some(&self.record))
            }
            None => {
                // The rest is the torn tail: count it, keep none of it.
                // The source stays exhausted, so later calls end here too.
                while !self.eof {
                    (self.at, self.end) = (0, 0);
                    self.read_more()?;
                }
                Ok(None)
            }
        }
    }

    /// Bytes of the records yielded so far; once [`Self::next_record`]
    /// has returned `None`, where the trusted prefix ends.
    pub fn trusted_bytes(&self) -> u64 {
        self.trusted
    }

    /// Once [`Self::next_record`] has returned `None`, the bytes after
    /// the trusted prefix (the torn tail; 0 = clean).
    pub fn truncated_bytes(&self) -> u64 {
        self.read - self.trusted
    }

    /// Buffer at least `need` unconsumed bytes, or all the source has left.
    fn fill(&mut self, need: usize) -> std::io::Result<()> {
        if self.buf.len() - self.at < need {
            self.buf.copy_within(self.at..self.end, 0);
            self.end -= self.at;
            self.at = 0;
        }
        while self.end - self.at < need && !self.eof {
            self.read_more()?;
        }
        Ok(())
    }

    /// One read into the free end of the buffer.
    fn read_more(&mut self) -> std::io::Result<()> {
        match self.src.read(&mut self.buf[self.end..]) {
            Ok(0) => self.eof = true,
            Ok(n) => {
                self.end += n;
                self.read += n as u64;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
        Ok(())
    }
}

/// Result of scanning a WAL byte buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalScan {
    /// Records decoded before the first corruption, in log order.
    pub records: Vec<WalRecord>,
    /// Offset where the trusted prefix ends.
    pub trusted_bytes: u64,
    /// Bytes after the trusted prefix (the torn tail; 0 = clean).
    pub truncated_bytes: u64,
}

/// Walk `buf` record by record, stopping at the first short or corrupt
/// record. Everything after that point is an untrusted torn tail.
pub fn scan_wal(buf: &[u8]) -> WalScan {
    let mut reader = WalReader::new(buf);
    let mut records = Vec::new();
    while let Some(rec) = reader.next_record().expect("a byte slice reads") {
        records.push(rec.clone());
    }
    WalScan {
        records,
        trusted_bytes: reader.trusted_bytes(),
        truncated_bytes: reader.truncated_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vector() {
        // CRC-32("123456789") is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn sliced_crc_matches_the_bitwise_definition_at_every_length() {
        let bitwise = |data: &[u8]| {
            let mut c = 0xFFFF_FFFFu32;
            for &b in data {
                c ^= b as u32;
                for _ in 0..8 {
                    c = (c >> 1) ^ (0xEDB8_8320 & (c & 1).wrapping_neg());
                }
            }
            c ^ 0xFFFF_FFFF
        };
        let data: Vec<u8> = (0..100u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..data.len() {
            assert_eq!(crc32(&data[..len]), bitwise(&data[..len]), "len {len}");
            let (head, tail) = data[..len].split_at(len / 3);
            assert_eq!(crc32_pair(head, tail), bitwise(&data[..len]), "split {len}");
        }
    }

    #[test]
    fn page_roundtrip() {
        let slots = vec![(7, 512), (9, 128), (u32::MAX, 1)];
        let buf = encode_page(3, 42, &slots).unwrap();
        assert_eq!(buf.len(), DISK_PAGE_BYTES as usize);
        assert_eq!(
            decode_page(&buf),
            PageRead::Valid {
                page: 3,
                lsn: 42,
                slots
            }
        );
    }

    #[test]
    fn empty_page_roundtrip_and_missing() {
        let buf = encode_page(0, 0, &[]).unwrap();
        assert!(matches!(decode_page(&buf), PageRead::Valid { .. }));
        assert_eq!(decode_page(&[0u8; 4096]), PageRead::Missing);
        assert_eq!(decode_page(&[]), PageRead::Missing);
    }

    #[test]
    fn page_overflow_is_typed() {
        let slots = vec![(1, 1); MAX_DISK_SLOTS + 1];
        let err = encode_page(5, 1, &slots).unwrap_err();
        assert!(err.to_string().contains("page 5"));
    }

    #[test]
    fn page_bit_flip_is_torn() {
        let buf = encode_page(1, 7, &[(10, 100), (11, 200)]).unwrap();
        for at in [
            0,
            5,
            9,
            17,
            21,
            PAGE_HEADER_BYTES + 1,
            PAGE_HEADER_BYTES + 9,
        ] {
            let mut bad = buf.clone();
            bad[at] ^= 0x10;
            assert_eq!(decode_page(&bad), PageRead::Torn, "flip at byte {at}");
        }
        // Stale non-zero padding past the payload is also torn.
        let mut bad = buf;
        bad[4000] = 1;
        assert_eq!(decode_page(&bad), PageRead::Torn);
    }

    #[test]
    fn wal_record_roundtrip_all_kinds() {
        let ops = [
            WalOp::CheckpointEnd,
            WalOp::Touch {
                object: 1,
                size: 2,
                page: 3,
            },
            WalOp::Place {
                object: 4,
                size: 5,
                page: 6,
            },
            WalOp::Remove {
                object: 7,
                size: 8,
                page: 9,
            },
            WalOp::Move {
                object: 10,
                size: 11,
                from: 12,
                to: 13,
            },
            WalOp::Commit,
            WalOp::Abort,
            WalOp::PageSnapshot {
                page: 14,
                slots: vec![(15, 16), (17, 18)],
            },
        ];
        let mut buf = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            buf.extend_from_slice(&encode_wal_record(i as u64 + 1, 100 + i as u64, op));
        }
        let scan = scan_wal(&buf);
        assert_eq!(scan.truncated_bytes, 0);
        assert_eq!(scan.records.len(), ops.len());
        for (i, rec) in scan.records.iter().enumerate() {
            assert_eq!(rec.lsn, i as u64 + 1);
            assert_eq!(rec.txn, 100 + i as u64);
            assert_eq!(&rec.op, &ops[i]);
        }
    }

    #[test]
    fn wal_scan_truncates_torn_tail() {
        let mut buf = encode_wal_record(1, 9, &WalOp::Commit);
        let second = encode_wal_record(
            2,
            9,
            &WalOp::PageSnapshot {
                page: 1,
                slots: vec![(1, 2)],
            },
        );
        buf.extend_from_slice(&second[..second.len() - 3]); // torn tail
        let scan = scan_wal(&buf);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.truncated_bytes, (second.len() - 3) as u64);
    }

    #[test]
    fn wal_mid_stream_corruption_stops_the_scan() {
        let mut buf = encode_wal_record(1, 9, &WalOp::Commit);
        let keep = buf.len();
        buf.extend_from_slice(&encode_wal_record(2, 9, &WalOp::Abort));
        buf[keep + 6] ^= 0x40;
        let scan = scan_wal(&buf);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.trusted_bytes, keep as u64);
        assert!(scan.truncated_bytes > 0);
    }
}
