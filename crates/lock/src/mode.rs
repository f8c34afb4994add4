//! Lock modes and their compatibility.
//!
//! The fundamental unit of concurrency control is "the object and
//! composite object" (§4.1): a transaction reading a composite object
//! takes a shared lock on the composite and *intention* locks up the
//! configuration hierarchy, in the classic hierarchical-locking style of
//! Gray et al. — the natural fit for a design database where checkout
//! locks whole configurations.

use std::fmt;

/// Hierarchical lock modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LockMode {
    /// Intention shared: a descendant will be read.
    IntentionShared,
    /// Intention exclusive: a descendant will be written.
    IntentionExclusive,
    /// Shared: read this object (and, logically, its closure).
    Shared,
    /// Shared + intention exclusive: read here, write below.
    SharedIntentionExclusive,
    /// Exclusive: write this object.
    Exclusive,
}

impl LockMode {
    /// All modes, weakest first.
    pub const ALL: [LockMode; 5] = [
        LockMode::IntentionShared,
        LockMode::IntentionExclusive,
        LockMode::Shared,
        LockMode::SharedIntentionExclusive,
        LockMode::Exclusive,
    ];

    /// Classic hierarchical compatibility matrix.
    pub fn compatible(self, other: LockMode) -> bool {
        use LockMode::*;
        matches!(
            (self, other),
            (IntentionShared, IntentionShared)
                | (IntentionShared, IntentionExclusive)
                | (IntentionShared, Shared)
                | (IntentionShared, SharedIntentionExclusive)
                | (IntentionExclusive, IntentionShared)
                | (IntentionExclusive, IntentionExclusive)
                | (Shared, IntentionShared)
                | (Shared, Shared)
                | (SharedIntentionExclusive, IntentionShared)
        )
    }

    /// The intention mode to take on ancestors when requesting `self` on
    /// a descendant.
    pub fn intention(self) -> LockMode {
        match self {
            LockMode::IntentionShared | LockMode::Shared => LockMode::IntentionShared,
            _ => LockMode::IntentionExclusive,
        }
    }

    /// Least upper bound of two modes (the mode that grants both).
    pub fn join(self, other: LockMode) -> LockMode {
        use LockMode::*;
        if self == other {
            return self;
        }
        match (self.min(other), self.max(other)) {
            (IntentionShared, m) => m,
            (IntentionExclusive, Shared) => SharedIntentionExclusive,
            (IntentionExclusive, m) => m,
            (Shared, SharedIntentionExclusive) => SharedIntentionExclusive,
            (Shared, m) => m,
            (SharedIntentionExclusive, m) => m,
            (Exclusive, _) => Exclusive,
        }
    }
}

impl fmt::Display for LockMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LockMode::IntentionShared => "IS",
            LockMode::IntentionExclusive => "IX",
            LockMode::Shared => "S",
            LockMode::SharedIntentionExclusive => "SIX",
            LockMode::Exclusive => "X",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use LockMode::*;

    #[test]
    fn compatibility_matrix_matches_gray() {
        // Row-by-row against the textbook matrix.
        let table = [
            (IntentionShared, [true, true, true, true, false]),
            (IntentionExclusive, [true, true, false, false, false]),
            (Shared, [true, false, true, false, false]),
            (SharedIntentionExclusive, [true, false, false, false, false]),
            (Exclusive, [false, false, false, false, false]),
        ];
        for (a, row) in table {
            for (b, &expect) in LockMode::ALL.iter().zip(&row) {
                assert_eq!(a.compatible(*b), expect, "{a} vs {b}");
                assert_eq!(b.compatible(a), expect, "symmetry {b} vs {a}");
            }
        }
    }

    #[test]
    fn intention_modes() {
        assert_eq!(Shared.intention(), IntentionShared);
        assert_eq!(IntentionShared.intention(), IntentionShared);
        assert_eq!(Exclusive.intention(), IntentionExclusive);
        assert_eq!(SharedIntentionExclusive.intention(), IntentionExclusive);
        assert_eq!(IntentionExclusive.intention(), IntentionExclusive);
    }

    #[test]
    fn join_is_lub() {
        assert_eq!(Shared.join(IntentionExclusive), SharedIntentionExclusive);
        assert_eq!(IntentionShared.join(Exclusive), Exclusive);
        assert_eq!(Shared.join(Shared), Shared);
        for a in LockMode::ALL {
            for b in LockMode::ALL {
                let j = a.join(b);
                // An upper bound of both: joining either adds nothing.
                assert_eq!(j.join(a), j, "{a} join {b} = {j}");
                assert_eq!(j.join(b), j, "{a} join {b} = {j}");
                assert_eq!(j, b.join(a), "commutative");
            }
        }
    }
}
