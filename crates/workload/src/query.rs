//! The engineering-database query types (§4.1). Type (7), object
//! insertion, deletion and update, is not a query kind: the generator
//! emits it as the write operations `TxnOp::{Create, Update, Delete}`.

use std::fmt;

/// The paper's taxonomy of engineering-design procedure calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryKind {
    /// (1) Simple object lookup by unique name.
    SimpleLookup,
    /// (2) Component object retrieval: navigate upward from a component to
    /// its composites.
    ComponentRetrieval,
    /// (3) Composite object retrieval: the object plus a fan-out of its
    /// component objects.
    CompositeRetrieval,
    /// (4) Descendant version retrieval.
    DescendantRetrieval,
    /// (5) Ancestor version retrieval.
    AncestorRetrieval,
    /// (6) Corresponding objects retrieval.
    CorrespondentRetrieval,
}

impl QueryKind {
    /// Every query type, in paper order.
    pub const READS: [QueryKind; 6] = [
        QueryKind::SimpleLookup,
        QueryKind::ComponentRetrieval,
        QueryKind::CompositeRetrieval,
        QueryKind::DescendantRetrieval,
        QueryKind::AncestorRetrieval,
        QueryKind::CorrespondentRetrieval,
    ];
}

impl fmt::Display for QueryKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            QueryKind::SimpleLookup => "simple-lookup",
            QueryKind::ComponentRetrieval => "component-retrieval",
            QueryKind::CompositeRetrieval => "composite-retrieval",
            QueryKind::DescendantRetrieval => "descendant-retrieval",
            QueryKind::AncestorRetrieval => "ancestor-retrieval",
            QueryKind::CorrespondentRetrieval => "correspondent-retrieval",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_lists_every_kind_once() {
        let names: std::collections::BTreeSet<String> =
            QueryKind::READS.iter().map(ToString::to_string).collect();
        assert_eq!(names.len(), QueryKind::READS.len());
        for kind in QueryKind::READS {
            // Exhaustive: a new kind fails to compile here until READS
            // is checked for it.
            let position = match kind {
                QueryKind::SimpleLookup => 0,
                QueryKind::ComponentRetrieval => 1,
                QueryKind::CompositeRetrieval => 2,
                QueryKind::DescendantRetrieval => 3,
                QueryKind::AncestorRetrieval => 4,
                QueryKind::CorrespondentRetrieval => 5,
            };
            assert_eq!(QueryKind::READS[position], kind);
        }
    }
}
