//! # semcluster-buffer
//!
//! The object-oriented buffer manager of §2.2: a fixed-frame [`BufferPool`]
//! with three replacement policies (LRU, Random, and the paper's
//! **context-sensitive** priority scheme, where pages related to recently
//! touched objects are kept alive by priority boosts), plus
//! relationship-directed prefetching with a within-buffer or
//! within-database scope.
//!
//! ```
//! use semcluster_buffer::{Access, BufferPool, ReplacementPolicy};
//! use semcluster_storage::PageId;
//!
//! let mut pool = BufferPool::new(2, ReplacementPolicy::ContextSensitive, 0);
//! pool.access(PageId(1));
//! pool.access(PageId(2));
//! pool.boost(PageId(1)); // related to what the tool is navigating
//! pool.access(PageId(3)); // evicts p2, not the boosted p1
//! assert!(pool.contains(PageId(1)));
//! assert_eq!(pool.access(PageId(1)), Access::Hit);
//! ```

#![warn(missing_docs)]

mod policy;
mod pool;
mod prefetch;

pub use policy::{AccessHint, PrefetchScope, ReplacementPolicy};
pub use pool::{Access, BufferPool};
pub use prefetch::{apply_prefetch, prefetch_group, PrefetchEffect};
