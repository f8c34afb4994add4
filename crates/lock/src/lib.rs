//! # semcluster-lock
//!
//! Concurrency control for the simulated OODBMS. §4.1 fixes "the object
//! and composite object" as the fundamental unit of concurrency control;
//! this crate provides the matching machinery:
//!
//! * hierarchical lock modes (IS/IX/S/SIX/X) with the classic
//!   compatibility matrix ([`LockMode`]),
//! * a conservative lock table ([`LockManager::try_acquire_all`] /
//!   [`LockManager::release_all`]): a transaction takes its whole
//!   declared lock set or none of it, so there is no hold-and-wait and
//!   no deadlock — §4.1 transactions know their object set up front —
//!   and
//! * composite-object expansion: locking a configuration subtree takes
//!   intention locks along the composite chain
//!   ([`LockManager::hierarchical_lockset_into`]).
//!
//! ```
//! use semcluster_lock::{LockManager, LockMode, TxnId};
//! use semcluster_vdm::ObjectId;
//!
//! let (a, b) = (ObjectId(7), ObjectId(8));
//! let mut lm = LockManager::new();
//! assert!(lm.try_acquire_all(TxnId(1), &[(a, LockMode::Shared), (b, LockMode::Exclusive)]));
//! assert!(lm.try_acquire_all(TxnId(2), &[(a, LockMode::Shared)]));
//! // All or nothing: `b` is taken, so txn 3 does not get `a` either.
//! assert!(!lm.try_acquire_all(TxnId(3), &[(a, LockMode::Shared), (b, LockMode::Shared)]));
//! assert_eq!(lm.held_mode(TxnId(3), a), None);
//! assert_eq!(lm.release_all(TxnId(1)), &[a, b]);
//! assert!(lm.try_acquire_all(TxnId(3), &[(a, LockMode::Shared), (b, LockMode::Shared)]));
//! ```

#![warn(missing_docs)]

mod manager;
mod mode;

pub use manager::{LockManager, TxnId};
pub use mode::LockMode;
