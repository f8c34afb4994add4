//! Placement audit records: why the cluster manager put an object where
//! it did.
//!
//! Every create placement and update-time recluster decision can emit
//! one [`PlacementAudit`] carrying the candidate pages examined, each
//! candidate's affinity and whether it had room, the chosen page, and
//! the split verdict. A bounded [`AuditSink`] retains the last N records
//! (flight-recorder style, mirroring `RingBufferSink`) so audit memory
//! stays O(capacity) on arbitrarily long runs.
//!
//! Affinities are fixed-point **milli-units** (`affinity × 1000`,
//! rounded) so the JSON stays integer-only and byte-stable.

use crate::json::ObjWriter;
use semcluster_sim::SimTime;
use semcluster_storage::PageId;
use std::collections::VecDeque;

/// Convert an affinity/gain value to integer milli-units for export.
/// Negative values clamp to zero (audit scores are magnitudes).
pub fn milli(v: f64) -> u64 {
    if v <= 0.0 {
        0
    } else {
        (v * 1000.0).round() as u64
    }
}

/// Which placement decision produced an audit record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditKind {
    /// Initial placement of a newly created object.
    Create,
    /// Update-time reclustering of an existing object.
    Recluster,
}

impl AuditKind {
    /// The label used in JSON and table renderings.
    pub fn as_str(self) -> &'static str {
        match self {
            AuditKind::Create => "create",
            AuditKind::Recluster => "recluster",
        }
    }
}

/// Outcome of the split check attached to a placement decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SplitVerdict {
    /// No full preferred page, so a split was never on the table.
    NotConsidered,
    /// A full preferred page existed but the split policy declined.
    Declined,
    /// The preferred page was split and this new page allocated.
    Executed {
        /// The freshly allocated page.
        new_page: PageId,
    },
}

/// One candidate page the placement search examined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CandidateAudit {
    /// The candidate page.
    pub page: PageId,
    /// Its affinity (create) or expected gain (recluster), milli-units.
    pub score_milli: u64,
    /// Whether the object fit on the page at decision time.
    pub fits: bool,
}

/// A complete record of one placement or recluster decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlacementAudit {
    /// Decision time (simulated).
    pub at: SimTime,
    /// Create placement or update-time recluster.
    pub kind: AuditKind,
    /// The object being placed or moved.
    pub object: u32,
    /// Candidate pages in examination order, with per-candidate scores.
    pub candidates: Vec<CandidateAudit>,
    /// The page the search selected, or `None` when no candidate won
    /// (create falls back to appending; recluster leaves it in place).
    pub chosen: Option<PageId>,
    /// The page the object actually ended up on.
    pub landed: PageId,
    /// Score of the winning candidate in milli-units (affinity for
    /// create, expected gain for recluster); 0 when none won.
    pub score_milli: u64,
    /// Full preferred page that could not take the object, if any.
    pub preferred_full: Option<PageId>,
    /// What the split check decided.
    pub split: SplitVerdict,
    /// Candidate-page reads the search charged to the transaction.
    pub search_ios: u32,
}

impl PlacementAudit {
    /// Render as one deterministic JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut cands = String::from("[");
        for (i, c) in self.candidates.iter().enumerate() {
            if i > 0 {
                cands.push(',');
            }
            let mut w = ObjWriter::begin(&mut cands);
            w.u64("page", c.page.0 as u64)
                .u64("score_milli", c.score_milli)
                .bool("fits", c.fits);
            w.end();
        }
        cands.push(']');
        let mut s = String::new();
        let mut w = ObjWriter::begin(&mut s);
        w.u64("t", self.at.as_micros())
            .str("kind", self.kind.as_str())
            .u64("object", self.object as u64)
            .raw("candidates", &cands);
        match self.chosen {
            Some(p) => w.u64("chosen", p.0 as u64),
            None => w.raw("chosen", "null"),
        };
        w.u64("landed", self.landed.0 as u64)
            .u64("score_milli", self.score_milli);
        match self.preferred_full {
            Some(p) => w.u64("preferred_full", p.0 as u64),
            None => w.raw("preferred_full", "null"),
        };
        match self.split {
            SplitVerdict::NotConsidered => w.str("split", "not_considered"),
            SplitVerdict::Declined => w.str("split", "declined"),
            SplitVerdict::Executed { new_page } => w
                .str("split", "executed")
                .u64("split_new_page", new_page.0 as u64),
        };
        w.u64("search_ios", self.search_ios as u64);
        w.end();
        s
    }
}

/// Bounded retention of the most recent placement audits.
#[derive(Debug, Clone)]
pub struct AuditSink {
    capacity: usize,
    records: VecDeque<PlacementAudit>,
}

impl AuditSink {
    /// Sink retaining at most `capacity` records.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "audit capacity must be positive");
        AuditSink {
            capacity,
            records: VecDeque::with_capacity(capacity),
        }
    }

    /// Record one decision, evicting the oldest record when full.
    pub fn push(&mut self, audit: PlacementAudit) {
        if self.records.len() == self.capacity {
            self.records.pop_front();
        }
        self.records.push_back(audit);
    }

    /// Consume the sink, yielding retained records oldest first.
    pub fn into_records(self) -> Vec<PlacementAudit> {
        self.records.into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn audit(t: u64) -> PlacementAudit {
        PlacementAudit {
            at: SimTime::from_micros(t),
            kind: AuditKind::Create,
            object: 42,
            candidates: vec![
                CandidateAudit {
                    page: PageId(3),
                    score_milli: 2500,
                    fits: true,
                },
                CandidateAudit {
                    page: PageId(9),
                    score_milli: 1000,
                    fits: false,
                },
            ],
            chosen: Some(PageId(3)),
            landed: PageId(3),
            score_milli: 2500,
            preferred_full: None,
            split: SplitVerdict::NotConsidered,
            search_ios: 1,
        }
    }

    #[test]
    fn milli_rounds_and_clamps() {
        assert_eq!(milli(2.5), 2500);
        assert_eq!(milli(0.0004), 0);
        assert_eq!(milli(0.0006), 1);
        assert_eq!(milli(-1.0), 0);
    }

    #[test]
    fn audit_json_shape() {
        let j = audit(100).to_json();
        assert_eq!(
            j,
            "{\"t\":100,\"kind\":\"create\",\"object\":42,\
             \"candidates\":[{\"page\":3,\"score_milli\":2500,\"fits\":true},\
             {\"page\":9,\"score_milli\":1000,\"fits\":false}],\
             \"chosen\":3,\"landed\":3,\"score_milli\":2500,\
             \"preferred_full\":null,\"split\":\"not_considered\",\
             \"search_ios\":1}"
        );
    }

    #[test]
    fn split_verdict_variants_render() {
        let mut a = audit(1);
        a.split = SplitVerdict::Executed {
            new_page: PageId(17),
        };
        assert!(a
            .to_json()
            .contains("\"split\":\"executed\",\"split_new_page\":17"));
        a.split = SplitVerdict::Declined;
        assert!(a.to_json().contains("\"split\":\"declined\""));
    }

    #[test]
    fn sink_bounds_retention() {
        let mut sink = AuditSink::with_capacity(2);
        for t in 0..5 {
            sink.push(audit(t));
        }
        let ts: Vec<u64> = sink
            .into_records()
            .iter()
            .map(|a| a.at.as_micros())
            .collect();
        assert_eq!(ts, vec![3, 4]);
    }
}
