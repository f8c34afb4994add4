//! Workload characterisation: structure density and read/write ratio
//! (Table 4.1, parameters F and G).

use semcluster_sim::SimRng;
use semcluster_vdm::SyntheticDbSpec;
use std::fmt;

/// Structure-density operating levels. "Low-3 means every structural
//  retrieval returns ≤ 3 component or composite objects", med is 4–9,
/// high is ≥ 10 (§4.2 / Figure 3.4's 0–3 / 4–10 / 10+ buckets).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StructureDensity {
    /// ≤ 3 objects per structural retrieval.
    Low3,
    /// 4–9 objects.
    Med5,
    /// ≥ 10 objects.
    High10,
}

impl StructureDensity {
    /// The three paper levels in order.
    pub const ALL: [StructureDensity; 3] = [
        StructureDensity::Low3,
        StructureDensity::Med5,
        StructureDensity::High10,
    ];

    /// Sample a fan-out for one structural retrieval.
    pub fn sample_fanout(self, rng: &mut SimRng) -> usize {
        let (lo, hi) = self.fanout_range();
        rng.range_inclusive(lo as u64, hi as u64) as usize
    }

    /// Inclusive fan-out range of the level.
    pub fn fanout_range(self) -> (usize, usize) {
        match self {
            StructureDensity::Low3 => (1, 3),
            StructureDensity::Med5 => (4, 9),
            StructureDensity::High10 => (10, 15),
        }
    }

    /// The synthetic database a workload at this density runs against:
    /// two representations of configuration trees whose composites fan
    /// out over [`Self::fanout_range`], deep enough that low-density
    /// trees are still worth navigating, in as many modules as bring the
    /// expected population to `target_objects`.
    pub fn database_spec(self, target_objects: u64, seed: u64) -> SyntheticDbSpec {
        let depth = match self {
            StructureDensity::Low3 => 6,
            StructureDensity::Med5 => 3,
            StructureDensity::High10 => 2,
        };
        let mut spec = SyntheticDbSpec {
            modules: 1,
            depth,
            fanout: self.fanout_range(),
            representations: vec!["layout".to_string(), "netlist".to_string()],
            correspondence_prob: 0.5,
            version_prob: 0.2,
            body_bytes: (64, 512),
            seed,
        };
        let per_module = spec.expected_objects_per_module();
        spec.modules = ((target_objects as f64 / per_module).round() as usize).max(1);
        spec
    }

    /// Classify an observed fan-out into a density bucket (trace
    /// analysis; Figure 3.4's 0–3 / 4–10 / >10 buckets).
    pub fn classify(fanout: usize) -> StructureDensity {
        match fanout {
            0..=3 => StructureDensity::Low3,
            4..=10 => StructureDensity::Med5,
            _ => StructureDensity::High10,
        }
    }

    /// Paper-style label (`low-3`, `med-5`, `high-10`).
    pub fn label(self) -> &'static str {
        match self {
            StructureDensity::Low3 => "low-3",
            StructureDensity::Med5 => "med-5",
            StructureDensity::High10 => "high-10",
        }
    }
}

impl fmt::Display for StructureDensity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Full workload characterisation of one simulated session mix.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Structure density level (parameter F).
    pub density: StructureDensity,
    /// Read/write ratio (parameter G): reads per write, e.g. 5, 10, 100.
    pub rw_ratio: f64,
    /// Inclusive range of transactions per user session (§4.1: 5–20).
    pub session_txns: (u32, u32),
    /// Inclusive range of object writes per write transaction (checkin
    /// operations "invoke some object insertions and updating").
    pub writes_per_txn: (u32, u32),
    /// Probability that a mutation creates a new object (vs updating an
    /// existing one).
    pub create_fraction: f64,
    /// Probability that a non-create mutation deletes its target instead
    /// of updating it (§4.1's query type 7 covers
    /// insertion/deletion/updating). Defaults to 0 — the paper's figure
    /// workloads are deletion-free, and a zero fraction draws no
    /// randomness, keeping archived exhibit runs bit-reproducible. Set it
    /// explicitly to exercise deletion.
    pub delete_fraction: f64,
}

impl WorkloadSpec {
    /// A workload at the given density and R/W ratio with paper-default
    /// session shapes.
    pub fn new(density: StructureDensity, rw_ratio: f64) -> Self {
        assert!(rw_ratio > 0.0, "read/write ratio must be positive");
        WorkloadSpec {
            density,
            rw_ratio,
            session_txns: (5, 20),
            writes_per_txn: (1, 3),
            create_fraction: 0.4,
            delete_fraction: 0.0,
        }
    }

    /// Probability that the next transaction is a read.
    pub fn read_probability(&self) -> f64 {
        self.rw_ratio / (self.rw_ratio + 1.0)
    }

    /// Paper-style label, e.g. `low3-5` or `hi10-100`.
    pub fn label(&self) -> String {
        let d = match self.density {
            StructureDensity::Low3 => "low3",
            StructureDensity::Med5 => "med5",
            StructureDensity::High10 => "hi10",
        };
        format!("{d}-{}", self.rw_ratio.round() as u64)
    }

    /// The six workload corners of Figure 5.1 (densities × rw 5 and 100).
    pub fn figure51_corners() -> Vec<WorkloadSpec> {
        let mut out = Vec::new();
        for d in StructureDensity::ALL {
            for rw in [5.0, 100.0] {
                out.push(WorkloadSpec::new(d, rw));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fanout_ranges_match_levels() {
        let mut rng = SimRng::seed_from_u64(1);
        for _ in 0..200 {
            let f = StructureDensity::Low3.sample_fanout(&mut rng);
            assert!((1..=3).contains(&f));
            let f = StructureDensity::Med5.sample_fanout(&mut rng);
            assert!((4..=9).contains(&f));
            let f = StructureDensity::High10.sample_fanout(&mut rng);
            assert!(f >= 10);
        }
    }

    #[test]
    fn database_spec_sizes_to_the_target() {
        for density in StructureDensity::ALL {
            let spec = density.database_spec(20_000, 7);
            assert_eq!(spec.fanout, density.fanout_range());
            assert_eq!(spec.seed, 7);
            let (db, stats) = spec.build();
            assert_eq!(stats.module_starts.len(), spec.modules);
            // The module count is sized from expected tree sizes; the
            // deep low-density trees vary the most around them.
            let built = db.object_count() as f64;
            assert!(
                (built / 20_000.0 - 1.0).abs() < 0.2,
                "{density}: {built} objects for a 20 000 target"
            );
        }
        // A target below one module still builds one.
        assert_eq!(StructureDensity::High10.database_spec(1, 7).modules, 1);
    }

    #[test]
    fn classification_buckets() {
        assert_eq!(StructureDensity::classify(0), StructureDensity::Low3);
        assert_eq!(StructureDensity::classify(3), StructureDensity::Low3);
        assert_eq!(StructureDensity::classify(4), StructureDensity::Med5);
        assert_eq!(StructureDensity::classify(10), StructureDensity::Med5);
        assert_eq!(StructureDensity::classify(11), StructureDensity::High10);
    }

    #[test]
    fn read_probability_from_ratio() {
        let w = WorkloadSpec::new(StructureDensity::Low3, 5.0);
        assert!((w.read_probability() - 5.0 / 6.0).abs() < 1e-12);
        let w = WorkloadSpec::new(StructureDensity::High10, 100.0);
        assert!((w.read_probability() - 100.0 / 101.0).abs() < 1e-12);
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(
            WorkloadSpec::new(StructureDensity::Low3, 5.0).label(),
            "low3-5"
        );
        assert_eq!(
            WorkloadSpec::new(StructureDensity::High10, 100.0).label(),
            "hi10-100"
        );
        assert_eq!(StructureDensity::Med5.label(), "med-5");
        assert_eq!(StructureDensity::Med5.to_string(), "med-5");
    }

    #[test]
    fn figure51_has_six_corners() {
        let corners = WorkloadSpec::figure51_corners();
        assert_eq!(corners.len(), 6);
        assert_eq!(corners[0].label(), "low3-5");
        assert_eq!(corners[5].label(), "hi10-100");
    }
}
