//! Property-based tests for the simulation kernel.

use proptest::prelude::*;
use semcluster_sim::{EventQueue, FcfsServer, OnlineStats, SimDuration, SimRng, SimTime};

proptest! {
    /// Events always pop in non-decreasing time order, regardless of the
    /// insertion schedule.
    #[test]
    fn event_queue_is_time_ordered(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut popped = 0;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    /// FCFS completions never precede arrivals, never overlap, and busy
    /// time equals the sum of service times.
    #[test]
    fn fcfs_server_conservation(
        jobs in proptest::collection::vec((0u64..100_000, 1u64..5_000), 1..100)
    ) {
        let mut sorted = jobs.clone();
        sorted.sort();
        let mut server = FcfsServer::new("s");
        let mut last_done = SimTime::ZERO;
        let mut total_service = 0u64;
        for (arrival, service) in sorted {
            let done = server.submit(
                SimTime::from_micros(arrival),
                SimDuration::from_micros(service),
            );
            prop_assert!(done.as_micros() >= arrival + service);
            prop_assert!(done >= last_done);
            last_done = done;
            total_service += service;
        }
        prop_assert_eq!(server.busy_time().as_micros(), total_service);
        prop_assert!(server.free_at() == last_done);
    }

    /// Welford statistics match the naive two-pass computation.
    #[test]
    fn online_stats_match_naive(xs in proptest::collection::vec(-1e6f64..1e6, 2..200)) {
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1.0);
        let scale = 1.0 + mean.abs() + var.abs();
        prop_assert!((s.mean() - mean).abs() / scale < 1e-9);
        prop_assert!((s.variance() - var).abs() / scale.powi(2).max(scale) < 1e-6);
    }

    /// Merging accumulators equals accumulating the concatenation.
    #[test]
    fn stats_merge_is_concat(
        xs in proptest::collection::vec(-1e3f64..1e3, 1..100),
        ys in proptest::collection::vec(-1e3f64..1e3, 1..100),
    ) {
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        let mut whole = OnlineStats::new();
        for &x in &xs { a.push(x); whole.push(x); }
        for &y in &ys { b.push(y); whole.push(y); }
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert!((a.mean() - whole.mean()).abs() < 1e-9);
        prop_assert!((a.variance() - whole.variance()).abs() < 1e-6);
    }

    /// Identical seeds give identical streams; the stream stays in range.
    #[test]
    fn rng_determinism(seed in any::<u64>(), n in 1u64..1000) {
        let mut a = SimRng::seed_from_u64(seed);
        let mut b = SimRng::seed_from_u64(seed);
        for _ in 0..50 {
            let x = a.below(n);
            prop_assert_eq!(x, b.below(n));
            prop_assert!(x < n);
        }
    }

    /// Weighted index only ever returns indices with positive weight.
    #[test]
    fn weighted_index_respects_zeros(
        weights in proptest::collection::vec(0.0f64..10.0, 1..20),
        seed in any::<u64>(),
    ) {
        prop_assume!(weights.iter().sum::<f64>() > 0.0);
        let mut rng = SimRng::seed_from_u64(seed);
        for _ in 0..50 {
            let i = rng.weighted_index(&weights);
            prop_assert!(weights[i] > 0.0, "picked zero-weight index {}", i);
        }
    }
}
