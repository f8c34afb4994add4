//! The summary of a replicated experiment: a mean with a confidence
//! interval over independently seeded runs. (The runs themselves are the
//! core crate's `run_replicated` / `SweepRunner`.)

use crate::stats::OnlineStats;

/// Summary of one measured quantity across replications.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimate {
    /// Mean across replications.
    pub mean: f64,
    /// Half-width of the 95 % confidence interval.
    pub ci95: f64,
    /// Number of replications.
    pub replications: u64,
}

impl Estimate {
    /// Summarise an accumulator: mean, 95 % CI half-width, count.
    pub fn from_stats(stats: &OnlineStats) -> Estimate {
        Estimate {
            mean: stats.mean(),
            ci95: stats.ci95_half_width(),
            replications: stats.count(),
        }
    }

    /// Whether the interval `self.mean ± self.ci95` overlaps `other`'s.
    pub fn overlaps(&self, other: &Estimate) -> bool {
        (self.mean - other.mean).abs() <= self.ci95 + other.ci95
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_model_has_zero_ci() {
        let mut stats = OnlineStats::new();
        (0..10).for_each(|_| stats.push(42.0));
        let e = Estimate::from_stats(&stats);
        assert_eq!(e.mean, 42.0);
        assert_eq!(e.ci95, 0.0);
        assert_eq!(e.replications, 10);
    }

    #[test]
    fn overlap_detection() {
        let a = Estimate {
            mean: 10.0,
            ci95: 1.0,
            replications: 5,
        };
        let b = Estimate {
            mean: 11.5,
            ci95: 1.0,
            replications: 5,
        };
        let c = Estimate {
            mean: 20.0,
            ci95: 1.0,
            replications: 5,
        };
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
    }
}
