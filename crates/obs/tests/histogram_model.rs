//! The one log₂ histogram, checked against what it replaced.
//!
//! Two layouts used to exist — the registry's growing `Vec` where 0 and
//! 1 share bucket 0, and the serve path's fixed 40 cells where they do
//! not — each with its own bucket function and render. Both live on
//! here as reference models; [`Histogram`] stores the finer layout and
//! must reproduce both renders byte for byte.

use proptest::prelude::*;
use semcluster_obs::{AtomicHistogram, Histogram, HIST_BUCKETS};

/// Random `u64`s salted with the edges of every cell: 0, 1, 2, 3,
/// `2^k`, `2^k − 1` (`u64::MAX` at `k = 64`) and latency-sized values.
fn value() -> impl Strategy<Value = u64> {
    prop_oneof![
        any::<u64>(),
        0u64..4,
        (0u32..64).prop_map(|k| 1u64 << k),
        (1u32..=64).prop_map(|k| u64::MAX >> (64 - k)),
        0u64..5_000_000,
    ]
}

fn stream() -> impl Strategy<Value = Vec<u64>> {
    collection::vec(value(), 0..48)
}

fn plain(stream: &[u64]) -> Histogram {
    let mut h = Histogram::default();
    for &v in stream {
        h.observe(v);
    }
    h
}

fn render(key: [&str; 4], stream: &[u64], buckets: &[u64]) -> String {
    let cells: Vec<String> = buckets.iter().map(u64::to_string).collect();
    format!(
        "{{\"{}\":{},\"{}\":{},\"{}\":{},\"{}\":[{}]}}",
        key[0],
        stream.len(),
        key[1],
        stream.iter().fold(0u64, |s, &v| s.wrapping_add(v)),
        key[2],
        stream.iter().max().unwrap_or(&0),
        key[3],
        cells.join(",")
    )
}

/// `serve::stats`' bucket function and fixed-shape render as they were.
fn serve_model(stream: &[u64]) -> String {
    let mut buckets = [0u64; 40];
    for &us in stream {
        let b = if us == 0 {
            0
        } else {
            (64 - us.leading_zeros() as usize).min(39)
        };
        buckets[b] += 1;
    }
    render(["count", "sum_us", "max_us", "buckets"], stream, &buckets)
}

/// The registry histogram's bucket function, growing `Vec` and trimmed
/// render as they were.
fn registry_model(stream: &[u64]) -> String {
    let mut buckets: Vec<u64> = Vec::new();
    for &v in stream {
        let b = (64 - v.leading_zeros() as usize).saturating_sub(1);
        if buckets.len() <= b {
            buckets.resize(b + 1, 0);
        }
        buckets[b] += 1;
    }
    render(["count", "sum", "max", "buckets_pow2"], stream, &buckets)
}

proptest! {
    #[test]
    fn the_fixed_render_is_the_serve_layout(stream in stream()) {
        prop_assert_eq!(plain(&stream).to_json(), serve_model(&stream));
    }

    /// Below 2^39 µs (6.4 days) the layouts differ only in whether 0
    /// and 1 share a cell; above it the fixed shape folds into its last
    /// cell what the growing `Vec` spread out, and no golden goes there.
    #[test]
    fn the_trimmed_render_is_the_registry_layout(stream in stream()) {
        let stream: Vec<u64> = stream.iter().map(|v| v % (1 << (HIST_BUCKETS - 1))).collect();
        prop_assert_eq!(plain(&stream).to_json_pow2(), registry_model(&stream));
    }

    #[test]
    fn the_quantile_bound_brackets_the_exact_quantile(stream in stream()) {
        let h = plain(&stream);
        let mut sorted = stream.clone();
        sorted.sort_unstable();
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            let bound = h.quantile_bound(q);
            let Some(&max) = sorted.last() else {
                prop_assert_eq!(bound, 0);
                continue;
            };
            let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
            prop_assert!(bound >= sorted[rank - 1], "q={q}: {bound} < {}", sorted[rank - 1]);
            prop_assert!(bound <= max, "q={q}: {bound} > max {max}");
        }
    }

    #[test]
    fn merge_is_concatenation_and_since_undoes_it_at_every_split(stream in stream()) {
        let whole = plain(&stream);
        for split in 0..=stream.len() {
            let (a, b) = stream.split_at(split);
            let earlier = plain(a);
            let mut merged = earlier.clone();
            merged.merge(&plain(b));
            prop_assert_eq!(&merged, &whole, "merge, split at {}", split);
            let mut back = earlier.clone();
            back.merge(&whole.since(&earlier));
            prop_assert_eq!(&back, &whole, "later - earlier + earlier, split at {}", split);
        }
    }

    #[test]
    fn the_atomic_cell_snapshots_to_the_plain_cell(stream in stream()) {
        let cell = AtomicHistogram::default();
        for &v in &stream {
            cell.observe(v);
        }
        prop_assert_eq!(cell.snapshot(), plain(&stream));
    }
}
