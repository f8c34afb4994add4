//! # semcluster-wal
//!
//! Transaction logging for the simulated engineering DBMS, as the
//! paper's cost model: object-sized log records, a circular in-memory
//! log buffer that flushes when full, commit forcing, and per-transaction
//! page-level before-image coalescing (the mechanism behind the paper's
//! Figure 5.5 — clustering related objects onto one page reduces
//! physical logging I/O). It counts I/Os and keeps no records: nothing
//! recovers from it. The durable log is `semcluster_storage`'s
//! `FilePageStore`, recovered by `recover_dir`.
//!
//! ```
//! use semcluster_wal::{LogConfig, LogManager};
//! use semcluster_storage::PageId;
//!
//! let mut log = LogManager::new(LogConfig::default());
//! let txn = log.begin();
//! let io_a = log.log_update(txn, PageId(3), 200); // first touch: image
//! let io_b = log.log_update(txn, PageId(3), 150); // same page: coalesced
//! assert_eq!((io_a, io_b), (1, 0));
//! let commit_io = log.commit(txn);
//! assert_eq!(commit_io, 1);
//! assert_eq!(log.current_lsn(), 3); // two updates and a commit
//! ```

#![warn(missing_docs)]

mod log;

pub use crate::log::{LogConfig, LogManager, TxnToken, UpdateLogIo};
