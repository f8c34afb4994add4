//! Pure sliding-window SLO tracker.
//!
//! The tracker never reads a clock: the server's sampler thread feeds
//! it one [`StatsSnapshot`](super::stats::StatsSnapshot) per tick, and
//! the tracker differences consecutive snapshots into per-tick deltas
//! (requests, errors, sheds, and the `total` latency histogram). The
//! window is a bounded deque of those deltas, so the rolling p50/p99,
//! error rate and shed rate cover only the last `window` ticks —
//! exactly the "what is the server doing *right now*" question the
//! cumulative registry cannot answer. Because every input is injected,
//! the module sits behind the CI determinism purity guard.

use std::collections::VecDeque;

use semcluster_obs::Histogram;

use super::stats::StatsSnapshot;

/// One tick's worth of deltas between consecutive snapshots.
#[derive(Debug, Clone, Default)]
struct TickDelta {
    requests: u64,
    errors: u64,
    sheds: u64,
    latency: Histogram,
}

/// Rolling summary over the window, embedded in snapshots and rendered
/// by both the JSON and Prometheus exporters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SloSummary {
    /// Ticks currently in the window (≤ the configured window size).
    pub window_ticks: u64,
    /// Successful transactions observed in the window.
    pub requests: u64,
    /// Typed error replies in the window (all kinds).
    pub errors: u64,
    /// Admission sheds (overloaded rejections) in the window.
    pub sheds: u64,
    /// Rolling median service time bound, µs.
    pub p50_us: u64,
    /// Rolling 99th-percentile service time bound, µs.
    pub p99_us: u64,
    /// Errors per million outcomes (errors + successes) in the window.
    pub error_ppm: u64,
    /// Sheds per million outcomes in the window.
    pub shed_ppm: u64,
}

impl SloSummary {
    /// Compact single-line JSON in fixed field order.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"window_ticks\":{},\"requests\":{},\"errors\":{},\"sheds\":{},\
             \"p50_us\":{},\"p99_us\":{},\"error_ppm\":{},\"shed_ppm\":{}}}",
            self.window_ticks,
            self.requests,
            self.errors,
            self.sheds,
            self.p50_us,
            self.p99_us,
            self.error_ppm,
            self.shed_ppm
        )
    }
}

/// The tracker: remembers the previous snapshot's cumulative totals and
/// a deque of the last `window` per-tick deltas.
pub struct SloTracker {
    window: usize,
    prev_txn_ok: u64,
    prev_errors: u64,
    prev_sheds: u64,
    prev_lat: Histogram,
    ticks: VecDeque<TickDelta>,
}

impl SloTracker {
    /// Tracker over the last `window` ticks (min 1).
    pub fn new(window: usize) -> Self {
        SloTracker {
            window: window.max(1),
            prev_txn_ok: 0,
            prev_errors: 0,
            prev_sheds: 0,
            prev_lat: Histogram::default(),
            ticks: VecDeque::new(),
        }
    }

    fn errors_of(snap: &StatsSnapshot) -> u64 {
        snap.counters
            .iter()
            .filter(|(n, _)| n.starts_with("err."))
            .map(|(_, v)| v)
            .sum()
    }

    /// Ingest one tick's cumulative snapshot; the first call seeds the
    /// baseline from zero (the registry starts empty, so that delta is
    /// the truth, not an artifact).
    pub fn observe(&mut self, snap: &StatsSnapshot) {
        let txn_ok = snap.counter("txn_ok");
        let errors = Self::errors_of(snap);
        let sheds = snap.counter("err.overloaded");
        let lat = snap.latency("total").cloned().unwrap_or_default();
        self.ticks.push_back(TickDelta {
            requests: txn_ok.saturating_sub(self.prev_txn_ok),
            errors: errors.saturating_sub(self.prev_errors),
            sheds: sheds.saturating_sub(self.prev_sheds),
            latency: lat.since(&self.prev_lat),
        });
        while self.ticks.len() > self.window {
            self.ticks.pop_front();
        }
        self.prev_txn_ok = txn_ok;
        self.prev_errors = errors;
        self.prev_sheds = sheds;
        self.prev_lat = lat;
    }

    /// Fold the window into a rolling summary.
    pub fn summary(&self) -> SloSummary {
        let mut requests = 0u64;
        let mut errors = 0u64;
        let mut sheds = 0u64;
        let mut latency = Histogram::default();
        for t in &self.ticks {
            requests += t.requests;
            errors += t.errors;
            sheds += t.sheds;
            latency.merge(&t.latency);
        }
        let outcomes = requests + errors;
        let ppm = |n: u64| {
            n.saturating_mul(1_000_000)
                .checked_div(outcomes)
                .unwrap_or(0)
        };
        SloSummary {
            window_ticks: self.ticks.len() as u64,
            requests,
            errors,
            sheds,
            p50_us: latency.quantile_bound(0.50),
            p99_us: latency.quantile_bound(0.99),
            error_ppm: ppm(errors),
            shed_ppm: ppm(sheds),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::protocol::ErrorKind;
    use super::super::stats::{RequestStamps, ServeStats};
    use super::*;
    use proptest::prelude::*;

    fn stamp(total_us: u64) -> RequestStamps {
        RequestStamps {
            submitted_us: 0,
            dequeued_us: 0,
            locked_us: 0,
            executed_us: total_us,
            committed_us: total_us,
            replied_us: total_us,
        }
    }

    #[test]
    fn window_slides_and_rates_are_ppm() {
        let stats = ServeStats::new();
        let mut slo = SloTracker::new(2);
        // Tick 1: three successes at ~100µs, one shed.
        for _ in 0..3 {
            stats.record_txn_ok();
            stats.record_request_latency(&stamp(100));
        }
        stats.record_error(ErrorKind::Overloaded);
        slo.observe(&stats.snapshot(10, false));
        let s1 = slo.summary();
        assert_eq!(s1.window_ticks, 1);
        assert_eq!(s1.requests, 3);
        assert_eq!(s1.errors, 1);
        assert_eq!(s1.sheds, 1);
        assert_eq!(s1.error_ppm, 250_000);
        assert_eq!(s1.p50_us, 100, "bucket bound clamped to observed max");

        // Tick 2: quiet. Tick 3: one slow success — tick 1 must age out.
        slo.observe(&stats.snapshot(20, false));
        stats.record_txn_ok();
        stats.record_request_latency(&stamp(5_000));
        slo.observe(&stats.snapshot(30, false));
        let s3 = slo.summary();
        assert_eq!(s3.window_ticks, 2, "window bounded");
        assert_eq!(s3.requests, 1, "tick-1 successes aged out");
        assert_eq!(s3.errors, 0);
        assert_eq!(s3.p99_us, 5_000);
    }

    #[test]
    fn observe_is_pure_and_deterministic() {
        // Two trackers fed identical snapshots agree exactly.
        let stats = ServeStats::new();
        let mut a = SloTracker::new(4);
        let mut b = SloTracker::new(4);
        for i in 0..6u64 {
            stats.record_txn_ok();
            stats.record_request_latency(&stamp(i * 37));
            let snap = stats.snapshot(i * 10, false);
            a.observe(&snap);
            b.observe(&snap);
        }
        assert_eq!(a.summary(), b.summary());
        assert_eq!(a.summary().to_json(), b.summary().to_json());
    }

    proptest! {
        /// Whatever the cumulative snapshots looked like, the window's
        /// summary is the summary of its ticks' deltas merged: exactly
        /// the observations of the last `window` ticks (under the
        /// cumulative maximum — a maximum cannot be subtracted).
        #[test]
        fn a_window_summary_is_the_summary_of_its_merged_tick_deltas(
            ticks in collection::vec(collection::vec(0u64..2_000_000, 0..6), 1..9),
            window in 1usize..5,
        ) {
            let stats = ServeStats::new();
            let mut slo = SloTracker::new(window);
            for (i, tick) in ticks.iter().enumerate() {
                for &us in tick {
                    stats.record_txn_ok();
                    stats.record_request_latency(&stamp(us));
                }
                slo.observe(&stats.snapshot(i as u64, false));
                let mut merged = Histogram::default();
                for &us in ticks[(i + 1).saturating_sub(window)..=i].iter().flatten() {
                    merged.observe(us);
                }
                merged.max_us = ticks[..=i].iter().flatten().copied().max().unwrap_or(0);
                let summary = slo.summary();
                prop_assert_eq!(summary.requests, merged.count);
                prop_assert_eq!(summary.p50_us, merged.quantile_bound(0.50));
                prop_assert_eq!(summary.p99_us, merged.quantile_bound(0.99));
            }
        }
    }
}
