//! Replicated-experiment machinery: run a stochastic model several times
//! with independent seeds and report a mean with a confidence interval.

use crate::rng::SimRng;
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

/// Run `f` once per replication with an independent seeded RNG and fold the
/// scalar results into an [`Estimate`].
///
/// `base_seed` determines every replication's seed; equal inputs give equal
/// outputs.
pub fn replicate<F>(base_seed: u64, replications: u32, mut f: F) -> Estimate
where
    F: FnMut(SimRng) -> f64,
{
    assert!(replications > 0, "need at least one replication");
    let mut master = SimRng::seed_from_u64(base_seed);
    let mut stats = OnlineStats::new();
    for _ in 0..replications {
        let child = master.fork();
        stats.push(f(child));
    }
    Estimate::from_stats(&stats)
}

/// Like [`replicate`] but the model returns several named quantities; each
/// is folded separately. The set of names must be identical in every
/// replication.
pub fn replicate_multi<F>(base_seed: u64, replications: u32, mut f: F) -> Vec<(String, Estimate)>
where
    F: FnMut(SimRng) -> Vec<(String, f64)>,
{
    assert!(replications > 0, "need at least one replication");
    let mut master = SimRng::seed_from_u64(base_seed);
    let mut names: Vec<String> = Vec::new();
    let mut stats: Vec<OnlineStats> = Vec::new();
    for rep in 0..replications {
        let child = master.fork();
        let row = f(child);
        if rep == 0 {
            names = row.iter().map(|(n, _)| n.clone()).collect();
            stats = vec![OnlineStats::new(); row.len()];
        }
        assert_eq!(
            row.len(),
            names.len(),
            "replications must report the same metric set"
        );
        for (i, (name, value)) in row.into_iter().enumerate() {
            assert_eq!(name, names[i], "metric order changed between replications");
            stats[i].push(value);
        }
    }
    names
        .into_iter()
        .zip(stats)
        .map(|(n, s)| (n, Estimate::from_stats(&s)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replicate_is_deterministic() {
        let run = |seed| replicate(seed, 5, |mut rng| rng.f64());
        assert_eq!(run(9), run(9));
        assert_ne!(run(9).mean, run(10).mean);
    }

    #[test]
    fn constant_model_has_zero_ci() {
        let e = replicate(1, 10, |_| 42.0);
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

    #[test]
    fn multi_metrics_fold_independently() {
        let rows = replicate_multi(3, 4, |mut rng| {
            vec![("const".to_string(), 7.0), ("noise".to_string(), rng.f64())]
        });
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].0, "const");
        assert_eq!(rows[0].1.mean, 7.0);
        assert!(rows[1].1.ci95 > 0.0);
    }

    #[test]
    #[should_panic(expected = "same metric set")]
    fn mismatched_metric_sets_panic() {
        let mut first = true;
        replicate_multi(1, 2, move |_| {
            if std::mem::take(&mut first) {
                vec![("a".into(), 1.0)]
            } else {
                vec![("a".into(), 1.0), ("b".into(), 2.0)]
            }
        });
    }
}
