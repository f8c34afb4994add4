//! Property-based tests for the on-disk page/WAL codec and file-backend
//! restart recovery: encode/decode round-trips, CRC corruption
//! detection (every single-bit flip, every truncated tail), WAL prefix
//! scans, the streaming WAL decoder against the whole-buffer scan at
//! every read size, and recover-twice-is-a-no-op on randomized crash
//! points.

use proptest::prelude::*;
use semcluster_faults::FsFaultConfig;
use semcluster_storage::{
    decode_page, decode_wal_record, encode_page, encode_wal_record, recover_dir, scan_wal,
    FilePageStore, PageRead, WalOp, WalReader, WalRecord, WalScan, DISK_PAGE_BYTES, MAX_DISK_SLOTS,
    PAGES_FILE, WAL_FILE,
};
use std::io::Read;
use std::path::PathBuf;

/// Slot lists with unique object ids, built from generated sizes.
fn slots_from(sizes: &[u32]) -> Vec<(u32, u32)> {
    sizes
        .iter()
        .enumerate()
        .map(|(i, &s)| (1000 + i as u32, s))
        .collect()
}

/// A per-test scratch directory under the system temp dir. Removed on
/// success by the caller; a failed proptest case leaves it behind for
/// inspection (the path is embedded in the assertion message).
fn scratch(tag: &str, case: u64) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "semcluster-codecprop-{tag}-{case}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A source that hands out at most `k` bytes per `read`, so records
/// straddle reads at every offset.
struct Trickle<'a> {
    bytes: &'a [u8],
    k: usize,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.k).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// Read sizes the streaming decoder is held to: a byte, a size prime to
/// the header, exactly one header, and one page.
const READ_SIZES: [usize; 4] = [1, 7, 45, 4096];

/// The records, trusted and truncated bytes of `wal` as a
/// [`WalReader`] reading at most `k` bytes at a time sees them.
fn stream_scan(wal: &[u8], k: usize) -> WalScan {
    let mut reader = WalReader::new(Trickle { bytes: wal, k });
    let mut records = Vec::new();
    while let Some(rec) = reader.next_record().unwrap() {
        records.push(rec.clone());
    }
    // A stopped decoder stays stopped.
    assert!(reader.next_record().unwrap().is_none());
    WalScan {
        records,
        trusted_bytes: reader.trusted_bytes(),
        truncated_bytes: reader.truncated_bytes(),
    }
}

/// The record-at-a-time walk over a whole buffer, independent of
/// [`WalReader`]: the reference both scans are held to.
fn reference_scan(wal: &[u8]) -> WalScan {
    let mut records: Vec<WalRecord> = Vec::new();
    let mut at = 0;
    while let Some((rec, used)) = decode_wal_record(&wal[at..]) {
        records.push(rec);
        at += used;
    }
    WalScan {
        records,
        trusted_bytes: at as u64,
        truncated_bytes: (wal.len() - at) as u64,
    }
}

/// A log of one record per `(kind, slots)`: kind 7 is a snapshot of
/// `slots` slots, the others the payload-free operations.
fn build_log(spec: &[(u8, usize)]) -> Vec<u8> {
    let mut wal = Vec::new();
    for (i, &(kind, slots)) in spec.iter().enumerate() {
        let n = i as u32;
        let op = match kind {
            0 => WalOp::CheckpointEnd,
            1 => WalOp::Touch {
                object: n,
                size: 10,
                page: n % 8,
            },
            2 => WalOp::Place {
                object: n,
                size: 20,
                page: n % 8,
            },
            3 => WalOp::Remove {
                object: n,
                size: 30,
                page: n % 8,
            },
            4 => WalOp::Move {
                object: n,
                size: 40,
                from: 0,
                to: n % 8,
            },
            5 => WalOp::Commit,
            6 => WalOp::Abort,
            _ => WalOp::PageSnapshot {
                page: n % 8,
                slots: (0..slots as u32).map(|s| (s, s + n)).collect(),
            },
        };
        wal.extend_from_slice(&encode_wal_record(i as u64 + 1, u64::from(n % 5), &op));
    }
    wal
}

proptest! {
    /// The streaming decoder, fed 1, 7, 45 or 4096 bytes per read, yields
    /// exactly the records, trusted bytes and truncated bytes of the
    /// whole-buffer scan, on random logs cut at a random byte and with
    /// random bits flipped. Every log holds a full-page snapshot, whose
    /// record is longer than any of the read sizes.
    #[test]
    fn streamed_wal_scan_matches_the_whole_buffer_scan(
        mut spec in proptest::collection::vec((0u8..8, 0usize..MAX_DISK_SLOTS + 1), 1..24),
        full_at in 0usize..24,
        cut_seed in 0u64..u64::MAX,
        flips in proptest::collection::vec(0u64..u64::MAX, 0..3),
    ) {
        spec.insert(full_at % spec.len(), (7, MAX_DISK_SLOTS));
        let mut wal = build_log(&spec);
        wal.truncate((cut_seed % (wal.len() as u64 + 1)) as usize);
        for flip in flips {
            if !wal.is_empty() {
                let bit = (flip % (wal.len() as u64 * 8)) as usize;
                wal[bit / 8] ^= 1 << (bit % 8);
            }
        }
        let expected = reference_scan(&wal);
        prop_assert_eq!(&scan_wal(&wal), &expected);
        for k in READ_SIZES {
            prop_assert_eq!(&stream_scan(&wal, k), &expected, "read size {}", k);
        }
    }

    /// Page images round-trip exactly through the on-disk codec.
    #[test]
    fn page_roundtrip(
        page in 0u32..4096,
        lsn in 0u64..u64::MAX / 2,
        sizes in proptest::collection::vec(1u32..2000, 0..64),
    ) {
        let slots = slots_from(&sizes);
        let buf = encode_page(page, lsn, &slots).unwrap();
        prop_assert_eq!(buf.len(), DISK_PAGE_BYTES as usize);
        prop_assert_eq!(
            decode_page(&buf),
            PageRead::Valid { page, lsn, slots }
        );
    }

    /// Sampled single-bit flips over randomly generated pages are never
    /// read back as valid. (The exhaustive all-32768-positions sweep on
    /// a fixed page is `every_single_bit_flip_is_detected` below.)
    #[test]
    fn random_bit_flips_are_detected(
        page in 0u32..4096,
        lsn in 0u64..u64::MAX / 2,
        sizes in proptest::collection::vec(1u32..2000, 0..64),
        bits in proptest::collection::vec(0usize..DISK_PAGE_BYTES as usize * 8, 1..48),
    ) {
        let buf = encode_page(page, lsn, &slots_from(&sizes)).unwrap();
        for bit in bits {
            let mut bad = buf.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            prop_assert_eq!(decode_page(&bad), PageRead::Torn, "bit {}", bit);
        }
    }

    /// A page truncated to any proper prefix is never read as valid,
    /// and the zero-padded variant (what a torn sector write leaves on
    /// disk) decodes as valid if and only if it is byte-identical to
    /// the original image.
    #[test]
    fn truncated_tails_are_detected(
        page in 0u32..4096,
        lsn in 0u64..u64::MAX / 2,
        sizes in proptest::collection::vec(1u32..2000, 1..64),
        cuts in proptest::collection::vec(0usize..DISK_PAGE_BYTES as usize, 1..32),
    ) {
        let slots = slots_from(&sizes);
        let buf = encode_page(page, lsn, &slots).unwrap();
        for cut in cuts {
            // Raw short buffer: wrong length, so never valid.
            let short = &buf[..cut];
            let read = decode_page(short);
            prop_assert!(
                matches!(read, PageRead::Torn | PageRead::Missing),
                "cut {} decoded as {:?}", cut, read
            );
            // Zero-padded back to a full sector-aligned slot.
            let mut padded = short.to_vec();
            padded.resize(DISK_PAGE_BYTES as usize, 0);
            let read = decode_page(&padded);
            if padded == buf {
                prop_assert_eq!(read, PageRead::Valid { page, lsn, slots: slots.clone() });
            } else {
                prop_assert_eq!(read, PageRead::Torn, "cut {}", cut);
            }
        }
    }

    /// Scanning a WAL cut at an arbitrary byte yields exactly the
    /// records that fit entirely before the cut, and accounts every
    /// remaining byte as an untrusted (to-be-truncated) tail.
    #[test]
    fn wal_prefix_scan_recovers_exactly_the_contained_records(
        txns in proptest::collection::vec(1u64..50, 1..40),
        cut_seed in 0u64..u64::MAX,
    ) {
        let mut wal = Vec::new();
        let mut ends = vec![0usize]; // record boundaries
        for (i, &txn) in txns.iter().enumerate() {
            let op = match i % 4 {
                0 => WalOp::Place { object: i as u32, size: 10 + i as u32, page: i as u32 % 8 },
                1 => WalOp::Touch { object: i as u32, size: 10, page: 0 },
                2 => WalOp::Commit,
                _ => WalOp::Move { object: i as u32, size: 5, from: 0, to: 1 },
            };
            wal.extend_from_slice(&encode_wal_record(i as u64 + 1, txn, &op));
            ends.push(wal.len());
        }
        let cut = (cut_seed % (wal.len() as u64 + 1)) as usize;
        let scan = scan_wal(&wal[..cut]);
        let contained = ends.iter().filter(|&&e| e > 0 && e <= cut).count();
        prop_assert_eq!(scan.records.len(), contained);
        prop_assert_eq!(scan.trusted_bytes as usize, ends[contained]);
        prop_assert_eq!(scan.truncated_bytes as usize, cut - ends[contained]);
        for (i, rec) in scan.records.iter().enumerate() {
            prop_assert_eq!(rec.lsn, i as u64 + 1);
            prop_assert_eq!(rec.txn, txns[i]);
        }
    }

    /// Restart recovery is idempotent at randomized crash points: a
    /// scripted run is killed at the k-th filesystem syscall (with a
    /// possibly-torn final write), and recovering the directory twice
    /// must produce identical outcomes, identical on-disk bytes, no
    /// invariant violations, and every acknowledged commit among the
    /// winners.
    #[test]
    fn recovery_is_idempotent_at_random_crash_points(
        crash_at in 1u64..120,
        tear in any::<bool>(),
        seed in 0u64..u64::MAX,
        script in proptest::collection::vec((1u32..400, 0u32..4, 0u32..3), 1..24),
    ) {
        let root = scratch("recover", crash_at ^ seed);
        let cfg = FsFaultConfig {
            seed,
            crash_at_syscall: Some(crash_at),
            skip_physical_sync: true,
            ..FsFaultConfig::default()
        };
        let mut store = FilePageStore::create(&root, cfg).unwrap();
        let mut acked: Vec<u64> = Vec::new();
        // The whole script is best-effort: the injected crash point
        // makes every call past syscall `crash_at` fail, and the run
        // simply stops there.
        let run = store.checkpoint([(0u32, &[(1u32, 100u32)][..])]);
        if run.is_ok() {
            'script: for (t, &(size, page, kind)) in script.iter().enumerate() {
                let txn = t as u64 + 10;
                let object = t as u32 + 500;
                if store.append_op(txn, &WalOp::Place { object, size, page }).is_err() {
                    break 'script;
                }
                match kind {
                    0 => {
                        if store.commit(txn).is_ok() {
                            acked.push(txn);
                        } else {
                            break 'script;
                        }
                    }
                    1 => {
                        if store.abort(txn).is_err() {
                            break 'script;
                        }
                    }
                    _ => {
                        if store.steal(page, &[(object, size)]).is_err() {
                            break 'script;
                        }
                    }
                }
            }
        }
        store.crash(tear);

        let rec1 = recover_dir(&root).unwrap();
        let bytes1 = (
            std::fs::read(root.join(PAGES_FILE)).unwrap_or_default(),
            std::fs::read(root.join(WAL_FILE)).unwrap_or_default(),
        );
        let rec2 = recover_dir(&root).unwrap();
        let bytes2 = (
            std::fs::read(root.join(PAGES_FILE)).unwrap_or_default(),
            std::fs::read(root.join(WAL_FILE)).unwrap_or_default(),
        );

        prop_assert!(rec1.violations.is_empty(), "{} {:?}", root.display(), rec1.violations);
        for txn in &acked {
            prop_assert!(
                rec1.winners.binary_search(txn).is_ok(),
                "{} acked commit {} lost (winners {:?})", root.display(), txn, rec1.winners
            );
        }
        // Second pass: nothing left to repair, nothing changes.
        prop_assert!(rec2.torn_pages.is_empty(), "{}", root.display());
        prop_assert!(rec2.repaired_pages.is_empty(), "{}", root.display());
        prop_assert_eq!(rec2.wal_truncated_bytes, 0);
        prop_assert_eq!(&rec1.winners, &rec2.winners);
        prop_assert_eq!(&rec1.aborted, &rec2.aborted);
        prop_assert_eq!(&rec1.losers, &rec2.losers);
        prop_assert_eq!(&rec1.pages, &rec2.pages);
        prop_assert_eq!(bytes1, bytes2, "recovery must be a byte-level no-op: {}", root.display());
        std::fs::remove_dir_all(&root).unwrap();
    }
}

/// A log longer than the decoder's buffer, of full-page snapshots and
/// small records, ending in a header torn part-way: every read size
/// yields every whole record and counts the torn header as the tail.
#[test]
fn streamed_wal_scan_crosses_its_buffer_and_stops_mid_header() {
    let spec: Vec<(u8, usize)> = (0..120)
        .map(|i| {
            if i % 3 == 0 {
                (7, MAX_DISK_SLOTS)
            } else {
                (i % 7, 0)
            }
        })
        .collect();
    let mut wal = build_log(&spec);
    let whole = wal.len();
    assert!(whole > 128 * 1024, "the log outgrows the read buffer");
    wal.extend_from_slice(&encode_wal_record(999, 1, &WalOp::Commit)[..20]);
    let expected = reference_scan(&wal);
    assert_eq!(expected.records.len(), spec.len());
    assert_eq!(expected.trusted_bytes, whole as u64);
    assert_eq!(expected.truncated_bytes, 20);
    assert_eq!(scan_wal(&wal), expected);
    for k in READ_SIZES {
        assert_eq!(stream_scan(&wal, k), expected, "read size {k}");
    }
}

/// The CRC (plus magic, length and zero-padding checks) catches a flip
/// of EVERY one of the 32768 bit positions in a representative page
/// image — exhaustive, not sampled.
#[test]
fn every_single_bit_flip_is_detected() {
    let slots: Vec<(u32, u32)> = (0..40).map(|i| (2000 + i, 64 + i)).collect();
    let buf = encode_page(17, 0x0123_4567_89AB, &slots).unwrap();
    for bit in 0..buf.len() * 8 {
        let mut bad = buf.clone();
        bad[bit / 8] ^= 1 << (bit % 8);
        assert_eq!(decode_page(&bad), PageRead::Torn, "flip at bit {bit}");
    }
}

/// Every truncate-and-zero-pad prefix of a full-payload page image is
/// detected — exhaustive over all 4096 cut points. A cut only ever
/// reads back as valid when zero-padding happened to reconstruct the
/// exact original bytes (the truncated tail was already zero).
#[test]
fn every_truncated_tail_is_detected() {
    let slots: Vec<(u32, u32)> = (0..MAX_DISK_SLOTS as u32).map(|i| (i, i + 1)).collect();
    let buf = encode_page(3, 99, &slots).unwrap();
    // Cut at 0 leaves the never-written all-zero slot, which reads as
    // `Missing`; every other cut must read as `Torn` unless padding
    // reconstructed the original image byte for byte.
    assert_eq!(decode_page(&vec![0u8; buf.len()]), PageRead::Missing);
    for cut in 1..buf.len() {
        let mut padded = buf[..cut].to_vec();
        padded.resize(buf.len(), 0);
        if padded == buf {
            continue;
        }
        assert_eq!(decode_page(&padded), PageRead::Torn, "cut at byte {cut}");
    }
}
