//! # semcluster-storage
//!
//! The physical storage substrate under the clustering engine: slotted
//! [`Page`]s with exact capacity accounting, a [`StorageManager`] mapping
//! every object to its page (with directed placement, sequential append,
//! movement and removal), and the I/O subsystem's physical parameters
//! ([`DiskParams`], [`DiskLayout`]).
//!
//! No payload bytes are stored — the simulation study needs placement and
//! size accounting only — but the capacity arithmetic matches a real
//! slotted page, so overflow and page-splitting behave faithfully.
//!
//! ```
//! use semcluster_storage::{StorageManager, DEFAULT_PAGE_BYTES};
//! use semcluster_vdm::ObjectId;
//!
//! let mut store = StorageManager::new(DEFAULT_PAGE_BYTES);
//! let page = store.append(ObjectId(0), 400).unwrap();
//! store.append(ObjectId(1), 400).unwrap();
//! assert!(store.co_resident(ObjectId(0), ObjectId(1)));
//! assert_eq!(store.page_of(ObjectId(0)), Some(page));
//! ```

#![warn(missing_docs)]

pub mod codec;
mod disk;
mod filestore;
mod page;
mod recovery;
mod store;

pub use codec::{
    crc32, decode_page, decode_wal_record, encode_page, encode_wal_record, scan_wal, CodecError,
    PageRead, WalOp, WalReader, WalRecord, WalScan, DISK_PAGE_BYTES, MAX_DISK_SLOTS,
};
pub use disk::{DiskLayout, DiskParams};
pub use filestore::{FilePageStore, StoreError, PAGES_FILE, WAL_FILE};
pub use page::{Page, PageError, PageId, DEFAULT_PAGE_BYTES, PAGE_OVERHEAD_BYTES};
pub use recovery::{recover_dir, FileRecoveryOutcome, RecoveredPage};
pub use store::{StorageError, StorageManager};
