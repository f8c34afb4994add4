//! Transactions and session length.
//!
//! §4.1: "every object read and write operation is a transaction.
//! Furthermore, a user session is composed of 5 to 20 transactions with
//! various read/write ratios." A read transaction is one query of types
//! 1–6; a write transaction is a checkin — "some object insertions and
//! updating", query type 7 — under one commit. [`TxnOp`] is the whole
//! vocabulary: what [`crate::Generator`] emits is what the engine
//! executes.

use crate::query::QueryKind;
use crate::spec::WorkloadSpec;
use semcluster_sim::SimRng;
use semcluster_vdm::ObjectId;

/// One logical operation inside a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnOp {
    /// Execute a read query rooted at `root`.
    Read {
        /// The query type.
        kind: QueryKind,
        /// The root object the query starts from.
        root: ObjectId,
    },
    /// Create a new object structurally related to `anchor`.
    Create {
        /// The existing object the new one attaches to.
        anchor: ObjectId,
        /// How it attaches.
        mode: CreateMode,
    },
    /// Update an existing object in place.
    Update {
        /// The object being updated.
        target: ObjectId,
    },
    /// Delete an existing object (a checkin dropping an obsolete
    /// component).
    Delete {
        /// The object being deleted.
        target: ObjectId,
    },
}

/// How a created object attaches to the existing structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CreateMode {
    /// A new component of the anchor (configuration edge).
    NewComponent,
    /// A new descendant version derived from the anchor (version edge,
    /// inherited correspondences, copy-vs-reference attribute decisions).
    NewVersion,
}

/// One transaction: a read (single op) or a write (1–k mutations, the
/// checkin pattern).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transaction {
    /// The operations, executed in order under one commit.
    pub ops: Vec<TxnOp>,
}

impl Transaction {
    /// Whether the transaction only reads.
    pub fn is_read(&self) -> bool {
        self.ops.iter().all(|op| matches!(op, TxnOp::Read { .. }))
    }
}

/// Sample the number of transactions in a session from the spec's range.
pub(crate) fn sample_session_length(spec: &WorkloadSpec, rng: &mut SimRng) -> u32 {
    rng.range_inclusive(spec.session_txns.0 as u64, spec.session_txns.1 as u64) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::StructureDensity;

    #[test]
    fn session_length_in_spec_range() {
        let spec = WorkloadSpec::new(StructureDensity::Low3, 5.0);
        let mut rng = SimRng::seed_from_u64(1);
        for _ in 0..100 {
            let n = sample_session_length(&spec, &mut rng);
            assert!((5..=20).contains(&n));
        }
    }
}
