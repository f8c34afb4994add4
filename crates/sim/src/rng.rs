//! Deterministic random variates.
//!
//! A thin wrapper over a seeded PRNG plus the distributions the simulation
//! model needs (uniform, exponential, discrete, Zipf, hyperexponential).
//! Keeping the wrapper in one place guarantees that every stochastic
//! decision in a run flows from a single user-supplied seed.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::time::SimDuration;

/// Seeded PRNG with simulation-oriented sampling helpers.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: SmallRng,
}

impl SimRng {
    /// Create from a 64-bit seed. Equal seeds yield equal streams.
    pub fn seed_from_u64(seed: u64) -> Self {
        SimRng {
            inner: SmallRng::seed_from_u64(seed),
        }
    }

    /// Split off an independent child stream. Deterministic: the child seed
    /// is drawn from this stream.
    pub fn fork(&mut self) -> SimRng {
        SimRng::seed_from_u64(self.inner.gen())
    }

    /// Uniform float in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is undefined");
        self.inner.gen_range(0..n)
    }

    /// Uniform integer in `[lo, hi]` inclusive.
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range");
        self.inner.gen_range(lo..=hi)
    }

    /// Bernoulli trial with success probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.inner.gen_bool(p)
        }
    }

    /// Exponential variate with the given mean.
    pub fn exp_f64(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive");
        // Inverse CDF; `1 - f64()` avoids ln(0).
        -mean * (1.0 - self.f64()).ln()
    }

    /// Exponential simulated-time span with the given mean.
    pub fn exp_duration(&mut self, mean: SimDuration) -> SimDuration {
        SimDuration::from_micros(self.exp_f64(mean.as_micros() as f64).round() as u64)
    }

    /// Sample an index from unnormalised non-negative weights.
    ///
    /// # Panics
    /// Panics if the weights are empty or all zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weighted_index needs positive total weight");
        let mut x = self.f64() * total;
        for (i, w) in weights.iter().enumerate() {
            x -= w;
            if x < 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "pick from empty slice");
        &items[self.below(items.len() as u64) as usize]
    }
}

/// Zipf distribution over `{0, …, n-1}` with skew `theta`
/// (`theta = 0` is uniform; larger is more skewed). Uses a precomputed CDF,
/// so construction is `O(n)` and sampling `O(log n)`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build the distribution.
    ///
    /// # Panics
    /// Panics if `n == 0` or `theta < 0`.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n > 0, "Zipf needs a non-empty support");
        assert!(theta >= 0.0, "Zipf skew must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 1..=n {
            acc += 1.0 / (i as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Sample a rank in `[0, n)`.
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let u = rng.f64();
        match self.cdf.binary_search_by(|p| p.partial_cmp(&u).unwrap()) {
            Ok(i) | Err(i) => i.min(self.cdf.len() - 1),
        }
    }

    /// Size of the support.
    pub fn support(&self) -> usize {
        self.cdf.len()
    }
}

/// Two-phase hyperexponential service time: with probability `p` the mean
/// is `short`, otherwise `long`. Used to model the heavy-tailed session
/// lengths observed in the OCT traces.
#[derive(Debug, Clone, Copy)]
pub struct HyperExp {
    /// Probability of the short phase.
    pub p_short: f64,
    /// Mean of the short phase.
    pub short: SimDuration,
    /// Mean of the long phase.
    pub long: SimDuration,
}

impl HyperExp {
    /// Draw one variate.
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        let mean = if rng.chance(self.p_short) {
            self.short
        } else {
            self.long
        };
        rng.exp_duration(mean)
    }

    /// Analytic mean of the mixture.
    pub fn mean(&self) -> SimDuration {
        let m = self.p_short * self.short.as_micros() as f64
            + (1.0 - self.p_short) * self.long.as_micros() as f64;
        SimDuration::from_micros(m.round() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.below(1000), b.below(1000));
        }
    }

    #[test]
    fn forked_streams_differ() {
        let mut parent = SimRng::seed_from_u64(7);
        let mut c1 = parent.fork();
        let mut c2 = parent.fork();
        let s1: Vec<u64> = (0..16).map(|_| c1.below(1 << 30)).collect();
        let s2: Vec<u64> = (0..16).map(|_| c2.below(1 << 30)).collect();
        assert_ne!(s1, s2);
    }

    #[test]
    fn exponential_mean_close() {
        let mut rng = SimRng::seed_from_u64(1);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| rng.exp_f64(4.0)).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = SimRng::seed_from_u64(2);
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[rng.weighted_index(&[1.0, 0.0, 3.0])] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    fn zipf_theta_zero_is_uniform() {
        let z = Zipf::new(4, 0.0);
        let mut rng = SimRng::seed_from_u64(3);
        let mut counts = [0usize; 4];
        for _ in 0..40_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for c in counts {
            assert!((c as f64 - 10_000.0).abs() < 700.0, "{counts:?}");
        }
    }

    #[test]
    fn zipf_skews_to_low_ranks() {
        let z = Zipf::new(100, 1.0);
        let mut rng = SimRng::seed_from_u64(4);
        let mut head = 0usize;
        let n = 20_000;
        for _ in 0..n {
            if z.sample(&mut rng) < 10 {
                head += 1;
            }
        }
        // ~56% of Zipf(1.0, 100) mass sits in the first 10 ranks.
        assert!(head as f64 / n as f64 > 0.45, "head share {head}");
    }

    #[test]
    fn hyperexp_mean_close_to_analytic() {
        let h = HyperExp {
            p_short: 0.9,
            short: SimDuration::from_millis(10),
            long: SimDuration::from_millis(1000),
        };
        let mut rng = SimRng::seed_from_u64(5);
        let n = 40_000u64;
        let total: u64 = (0..n).map(|_| h.sample(&mut rng).as_micros()).sum();
        let sample_mean = total as f64 / n as f64;
        let analytic = h.mean().as_micros() as f64;
        assert!(
            (sample_mean - analytic).abs() / analytic < 0.05,
            "sample {sample_mean} vs analytic {analytic}"
        );
    }

    #[test]
    fn chance_handles_extremes() {
        let mut rng = SimRng::seed_from_u64(6);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-1.0));
        assert!(rng.chance(2.0));
    }
}
