//! Phased workloads.
//!
//! §3.3 observes that "different phases of the same application may have
//! wide variations in the read/write ratio" — MOSAICO's phases span
//! 0.52 to 170 within one run — and concludes that "the clustering
//! algorithm must be adaptive to achieve adequate response time at
//! different phases of an application". A [`PhaseSchedule`] drives the
//! engine through such a sequence.

use crate::oct::oct_tools;
use crate::spec::{StructureDensity, WorkloadSpec};

/// A cyclic sequence of workload phases, each lasting a number of
/// transactions.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSchedule {
    phases: Vec<(WorkloadSpec, u64)>,
    cycle: u64,
}

impl PhaseSchedule {
    /// Build a schedule.
    ///
    /// # Panics
    /// Panics if `phases` is empty or any phase lasts zero transactions.
    pub fn new(phases: Vec<(WorkloadSpec, u64)>) -> Self {
        assert!(!phases.is_empty(), "need at least one phase");
        assert!(
            phases.iter().all(|&(_, n)| n > 0),
            "phases must last at least one transaction"
        );
        let cycle = phases.iter().map(|&(_, n)| n).sum();
        PhaseSchedule { phases, cycle }
    }

    /// Number of phases.
    pub fn len(&self) -> usize {
        self.phases.len()
    }

    /// Whether the schedule is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }

    /// The workload in force for the `completed`-th transaction (the
    /// schedule repeats).
    pub fn spec_at(&self, completed: u64) -> &WorkloadSpec {
        let mut pos = completed % self.cycle;
        for (spec, n) in &self.phases {
            if pos < *n {
                return spec;
            }
            pos -= n;
        }
        unreachable!("pos < cycle by construction")
    }

    /// The MOSAICO run: its five phases in §3.3's order, with the
    /// figure's read/write ratios (0.52 → 3.2 → 12 → 45 → 170) at the
    /// given density, `txns_per_phase` transactions each.
    pub fn mosaico(density: StructureDensity, txns_per_phase: u64) -> Self {
        let phase_names = ["atlas", "cds", "cpre", "PGcurrent", "mosaico"];
        let tools = oct_tools();
        let phases = phase_names
            .iter()
            .map(|name| {
                let profile = tools
                    .iter()
                    .find(|t| t.name == *name)
                    .expect("MOSAICO phases are in the tool table");
                (
                    WorkloadSpec::new(density, profile.rw_ratio.max(0.5)),
                    txns_per_phase,
                )
            })
            .collect();
        PhaseSchedule::new(phases)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_at_walks_and_cycles() {
        let s = PhaseSchedule::new(vec![
            (WorkloadSpec::new(StructureDensity::Low3, 1.0), 10),
            (WorkloadSpec::new(StructureDensity::Low3, 100.0), 5),
        ]);
        assert_eq!(s.spec_at(0).rw_ratio, 1.0);
        assert_eq!(s.spec_at(9).rw_ratio, 1.0);
        assert_eq!(s.spec_at(10).rw_ratio, 100.0);
        assert_eq!(s.spec_at(14).rw_ratio, 100.0);
        assert_eq!(s.spec_at(15).rw_ratio, 1.0, "cycles");
        assert_eq!(s.spec_at(25).rw_ratio, 100.0);
    }

    #[test]
    fn mosaico_matches_figure_3_2() {
        let s = PhaseSchedule::mosaico(StructureDensity::Med5, 100);
        assert_eq!(s.len(), 5);
        let ratios: Vec<f64> = (0..5).map(|i| s.spec_at(i * 100).rw_ratio).collect();
        assert_eq!(ratios, vec![0.52, 3.2, 12.0, 45.0, 170.0]);
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_schedule_panics() {
        PhaseSchedule::new(vec![]);
    }
}
