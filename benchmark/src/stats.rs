//! Order statistics, metric-name validation and the regression-bound
//! rule shared by the single-run path, the ledger and `--check-agree`.

/// Samples that must lie beyond a reported percentile before it is
/// trusted (choosing-metrics §1).
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Median of `values` (mean of the two middle values when even).
/// Returns 0 for an empty slice so an unused metric reads as zero.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median of `f` over `items` (the rounds of a run).
pub fn median_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

/// The `p`-th percentile (0 < p < 100) of an ascending-sorted sample by
/// the nearest-rank rule. Refuses — returns `None` — when fewer than
/// [`MIN_TAIL_SAMPLES`] samples lie beyond the chosen rank, so a p99 is
/// never read off a sample too small to support it.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    if sorted.is_empty() || !(p > 0.0 && p < 100.0) {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    let idx = rank.clamp(1, sorted.len()) - 1;
    let beyond = sorted.len() - 1 - idx;
    // The median has half the sample beyond it by definition; the tail
    // rule only guards the upper percentiles.
    if p > 50.0 && beyond < MIN_TAIL_SAMPLES {
        return None;
    }
    Some(sorted[idx])
}

/// Sort `samples` in place and return `(p50, p99)`; a refused
/// percentile (sample too small) reads as 0.
pub fn p50_p99(samples: &mut [u64]) -> (u64, u64) {
    samples.sort_unstable();
    (
        percentile(samples, 50.0).unwrap_or(0),
        percentile(samples, 99.0).unwrap_or(0),
    )
}

/// [`p50_p99`] of nanosecond samples, in microseconds.
pub fn p50_p99_us(samples_ns: &mut [u64]) -> (f64, f64) {
    let (p50, p99) = p50_p99(samples_ns);
    (p50 as f64 / 1e3, p99 as f64 / 1e3)
}

/// Metric, workload and unit names: `[A-Za-z0-9_.-]+`, starting with a
/// letter or digit, at most 64 characters (the `BENCHMARK.json`
/// contract).
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// How much worse `candidate` is than `baseline`, as a share of the
/// baseline (negative = better). A zero baseline cannot carry a
/// relative bound and reads as no change.
pub fn worsening(better: Better, baseline: f64, candidate: f64) -> f64 {
    if baseline == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (candidate - baseline) / baseline.abs(),
        Better::Higher => (baseline - candidate) / baseline.abs(),
    }
}

/// Absolute floor under a relative bound: a difference smaller than
/// this never counts as a regression (50 ms of set-up, one failure in a
/// thousand), so tiny baselines cannot flap.
fn absolute_floor(metric: &str) -> f64 {
    match metric {
        "setup_s" => 0.050,
        "failed_frac" => 0.001,
        _ => 0.0,
    }
}

/// True when `candidate` is worse than `baseline` by more than `bound`
/// (a share of the baseline) *and* by more than the metric's absolute
/// floor.
pub fn breaches(metric: &str, better: Better, baseline: f64, candidate: f64, bound: f64) -> bool {
    let worse_by = match better {
        Better::Lower => candidate - baseline,
        Better::Higher => baseline - candidate,
    };
    worse_by > absolute_floor(metric) && worse_by > bound * baseline.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_refuses_thin_tails() {
        let small: Vec<u64> = (1..=500).collect();
        // p99 of 500 samples leaves 5 beyond it: refused.
        assert_eq!(percentile(&small, 99.0), None);
        assert_eq!(percentile(&small, 50.0), Some(250));
        let big: Vec<u64> = (1..=2000).collect();
        // 2000 samples leave 20 beyond p99.
        assert_eq!(percentile(&big, 99.0), Some(1980));
        assert_eq!(percentile(&big, 99.9), None);
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&big, 100.0), None);
    }

    #[test]
    fn names_follow_the_contract() {
        for ok in [
            "txn_per_s",
            "serve.admission.wait_p99_us",
            "p50_us",
            "1x",
            "a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in ["", ".hidden", "_x", "has space", "µs", "a/b", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn bound_checker_honours_direction_and_floors() {
        // 4 % slower latency within a 5 % bound; 6 % is a breach.
        assert!(!breaches("p50_us", Better::Lower, 100.0, 104.0, 0.05));
        assert!(breaches("p50_us", Better::Lower, 100.0, 106.0, 0.05));
        // Higher-is-better flips the sign; improvements never breach.
        assert!(breaches("txn_per_s", Better::Higher, 1000.0, 900.0, 0.05));
        assert!(!breaches("txn_per_s", Better::Higher, 1000.0, 1500.0, 0.05));
        // setup_s: 6 ms → 9 ms is +50 % but under the 50 ms floor.
        assert!(!breaches("setup_s", Better::Lower, 0.006, 0.009, 0.25));
        assert!(breaches("setup_s", Better::Lower, 1.0, 1.3, 0.25));
        // failed_frac: from zero, only more than 1 in 1000 counts.
        assert!(!breaches("failed_frac", Better::Lower, 0.0, 0.0009, 0.05));
        assert!(breaches("failed_frac", Better::Lower, 0.0, 0.002, 0.05));
        assert!((worsening(Better::Higher, 200.0, 150.0) - 0.25).abs() < 1e-12);
        assert_eq!(worsening(Better::Lower, 0.0, 5.0), 0.0);
    }
}
