//! The deterministic fault schedule and its runtime state.
//!
//! [`FaultPlan`] answers "does the n-th draw of stream S fault?" as a
//! pure function of `(seed, S, n)` — a splitmix64 hash, no mutable RNG.
//! [`FaultState`] owns the per-stream draw counters and the sliding
//! window behind graceful degradation; the engine holds one per run.
//! Every hook reports what it injected, and the engine counts it in its
//! own ledger: the plan keeps no tallies. Nothing here touches the
//! engine's main RNG stream, so an inert configuration leaves the
//! simulation's stochastic choices untouched.

use crate::config::{DegradationPolicy, FaultConfig};
use std::collections::VecDeque;

/// Which kind of physical I/O a fault hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoOp {
    /// A page read from a data disk.
    Read,
    /// A page write to a data disk.
    Write,
    /// A physical log-device I/O.
    Log,
}

impl IoOp {
    /// Machine name (trace/JSON field value).
    pub fn as_str(self) -> &'static str {
        match self {
            IoOp::Read => "read",
            IoOp::Write => "write",
            IoOp::Log => "log",
        }
    }
}

/// A page I/O that exhausted its retry budget. Times are simulated µs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoError {
    /// Read or write.
    pub op: IoOp,
    /// Page involved (raw id).
    pub page: u32,
    /// Disk that served the attempts.
    pub disk: u32,
    /// Attempts made before giving up.
    pub attempts: u32,
    /// Simulated time the final attempt failed, in µs.
    pub at_us: u64,
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} of page {} on disk {} failed after {} attempts (t={}us)",
            self.op.as_str(),
            self.page,
            self.disk,
            self.attempts,
            self.at_us
        )
    }
}

impl std::error::Error for IoError {}

const SALT: u64 = 0xFA17_5EED_0DB5_1989;

/// The splitmix64 mixing function behind every keyed-hash schedule in
/// this crate (disk faults, network chaos) and the load generator's
/// deterministic workload draws: a stateless bijection of `u64`, so a
/// "draw" is a pure function of its key — no mutable RNG anywhere.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Independent decision streams (each with its own draw counter, so a
/// decision never shifts another stream's schedule).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stream {
    ReadError = 1,
    WriteError = 2,
    Spike = 3,
    LogStall = 4,
}

/// The pure fault schedule: a keyed hash from `(stream, counter)` to a
/// uniform value in `[0, 1)`.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    key: u64,
}

impl FaultPlan {
    /// Derive the plan for a run seed. Same seed → same plan.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            key: splitmix64(seed ^ SALT),
        }
    }

    fn unit(&self, stream: u64, counter: u64) -> f64 {
        let bits = splitmix64(
            self.key
                ^ stream.wrapping_mul(0xA24B_AED4_963E_E407)
                ^ counter.wrapping_mul(0x9FB2_1C65_1E98_DF25),
        );
        (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Runtime fault state the engine owns for one run: the plan, the
/// per-stream draw counters and the degradation window.
#[derive(Debug, Clone)]
pub struct FaultState {
    cfg: FaultConfig,
    plan: FaultPlan,
    enabled: bool,
    counters: [u64; 4],
    window: VecDeque<u64>,
    window_sum: u64,
    degraded: bool,
}

impl FaultState {
    /// Build the state for one run.
    pub fn new(seed: u64, cfg: FaultConfig) -> Self {
        let enabled = cfg.enabled();
        FaultState {
            plan: FaultPlan::new(seed),
            enabled,
            counters: [0; 4],
            window: VecDeque::with_capacity(cfg.degradation.window_txns),
            window_sum: 0,
            degraded: false,
            cfg,
        }
    }

    /// Whether any injection is configured. When false every hook
    /// below short-circuits without drawing.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Configuration in force.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    fn draw(&mut self, stream: Stream) -> f64 {
        let idx = stream as usize - 1;
        let n = self.counters[idx];
        self.counters[idx] += 1;
        self.plan.unit(stream as u64, n)
    }

    fn is_degraded_disk(&self, disk: u32) -> bool {
        self.cfg.degraded_disks.contains(&disk)
    }

    /// Static service-time multiplier of `disk` (degraded-disk factor
    /// only, no spike draw — safe for asynchronous I/O like prefetch
    /// whose schedule must not consume fault draws).
    pub fn disk_mult(&self, disk: u32) -> u64 {
        if self.enabled && self.is_degraded_disk(disk) {
            self.cfg.degraded_mult.max(1) as u64
        } else {
            1
        }
    }

    /// Service-time multiplier for one data-disk I/O attempt: the
    /// static degraded-disk multiplier times any latency spike drawn
    /// for this attempt, and whether a spike was drawn.
    pub fn service_mult(&mut self, disk: u32) -> (u64, bool) {
        if !self.enabled {
            return (1, false);
        }
        let mult = self.disk_mult(disk);
        if self.cfg.spike_rate > 0.0 && self.draw(Stream::Spike) < self.cfg.spike_rate {
            (mult.saturating_mul(self.cfg.spike_mult.max(1) as u64), true)
        } else {
            (mult, false)
        }
    }

    fn io_fails(&mut self, stream: Stream, rate: f64, disk: u32) -> bool {
        if !self.enabled || rate <= 0.0 {
            return false;
        }
        let rate = if self.is_degraded_disk(disk) {
            (rate * self.cfg.degraded_error_mult.max(1) as f64).min(1.0)
        } else {
            rate
        };
        self.draw(stream) < rate
    }

    /// Whether the next page-read attempt on `disk` fails transiently.
    pub fn read_fails(&mut self, disk: u32) -> bool {
        self.io_fails(Stream::ReadError, self.cfg.read_error_rate, disk)
    }

    /// Whether the next page-write attempt on `disk` fails transiently.
    pub fn write_fails(&mut self, disk: u32) -> bool {
        self.io_fails(Stream::WriteError, self.cfg.write_error_rate, disk)
    }

    /// Stall injected before the next physical log I/O, in simulated
    /// µs (0 = none).
    pub fn log_stall_us(&mut self) -> u64 {
        if !self.enabled || self.cfg.log_stall_rate <= 0.0 {
            return 0;
        }
        if self.draw(Stream::LogStall) < self.cfg.log_stall_rate {
            self.cfg.log_stall_us
        } else {
            0
        }
    }

    /// Retry policy in force.
    pub fn retry(&self) -> crate::RetryPolicy {
        self.cfg.retry
    }

    // ------------------------------------------------------ degradation

    /// Whether the engine is currently in degraded (append-placement,
    /// narrowed-prefetch) mode.
    pub fn degraded(&self) -> bool {
        self.degraded
    }

    /// Feed one finished transaction's cluster-search time into the
    /// sliding window; returns `Some(entered)` on a mode transition.
    pub fn observe_txn_search(&mut self, search_us: u64) -> Option<bool> {
        let DegradationPolicy {
            window_txns,
            search_budget_us,
            exit_pct,
        } = self.cfg.degradation;
        if !self.enabled || search_budget_us == 0 || window_txns == 0 {
            return None;
        }
        self.window.push_back(search_us);
        self.window_sum += search_us;
        while self.window.len() > window_txns {
            let old = self.window.pop_front().expect("window non-empty");
            self.window_sum -= old;
        }
        if !self.degraded && self.window_sum > search_budget_us {
            self.degraded = true;
            Some(true)
        } else if self.degraded
            && self.window_sum < search_budget_us.saturating_mul(exit_pct as u64) / 100
        {
            self.degraded = false;
            Some(false)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RetryPolicy;

    fn faulty() -> FaultConfig {
        FaultConfig {
            read_error_rate: 0.2,
            write_error_rate: 0.1,
            spike_rate: 0.15,
            spike_mult: 8,
            degraded_disks: vec![2],
            degraded_mult: 4,
            log_stall_rate: 0.1,
            log_stall_us: 1000,
            ..FaultConfig::default()
        }
    }

    #[test]
    fn plan_is_a_pure_function_of_seed() {
        let a = FaultPlan::new(7);
        let b = FaultPlan::new(7);
        let c = FaultPlan::new(8);
        let mut diff = 0;
        for n in 0..256 {
            assert_eq!(a.unit(1, n).to_bits(), b.unit(1, n).to_bits());
            if a.unit(1, n) != c.unit(1, n) {
                diff += 1;
            }
        }
        assert!(diff > 200, "different seeds must differ ({diff}/256)");
    }

    #[test]
    fn unit_values_are_uniformish() {
        let plan = FaultPlan::new(42);
        let n = 4096;
        let hits = (0..n).filter(|&i| plan.unit(1, i) < 0.25).count();
        let frac = hits as f64 / n as f64;
        assert!((0.20..0.30).contains(&frac), "got {frac}");
        for i in 0..n {
            let v = plan.unit(3, i);
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn state_replays_identically() {
        let run = || {
            let mut s = FaultState::new(11, faulty());
            let mut trace = Vec::new();
            for i in 0..512u32 {
                let disk = i % 4;
                trace.push((
                    s.read_fails(disk),
                    s.write_fails(disk),
                    s.service_mult(disk),
                    s.log_stall_us(),
                ));
            }
            trace
        };
        let trace = run();
        assert_eq!(trace, run());
        assert!(trace.iter().any(|t| t.0) && trace.iter().any(|t| t.1));
        assert!(trace.iter().any(|t| t.2 .1) && trace.iter().any(|t| t.3 > 0));
    }

    #[test]
    fn streams_are_independent() {
        // Drawing from one stream must not shift another's schedule.
        let mut interleaved = FaultState::new(5, faulty());
        let mut solo = FaultState::new(5, faulty());
        let mut a = Vec::new();
        let mut b = Vec::new();
        for _ in 0..128u32 {
            a.push(interleaved.read_fails(0));
            let _ = interleaved.write_fails(0); // extra draws on other streams
            let _ = interleaved.log_stall_us();
            b.push(solo.read_fails(0));
        }
        assert_eq!(a, b);
    }

    #[test]
    fn inert_config_draws_nothing() {
        let mut s = FaultState::new(3, FaultConfig::default());
        assert!(!s.enabled());
        for d in 0..4 {
            assert!(!s.read_fails(d));
            assert!(!s.write_fails(d));
            assert_eq!(s.service_mult(d), (1, false));
        }
        assert_eq!(s.log_stall_us(), 0);
        assert_eq!(s.counters, [0; 4], "inert state must not consume draws");
        assert!(s.observe_txn_search(1_000_000).is_none());
        assert!(!s.degraded());
    }

    #[test]
    fn degraded_disk_is_slower_and_flakier() {
        let cfg = FaultConfig {
            read_error_rate: 0.1,
            degraded_disks: vec![1],
            degraded_mult: 4,
            degraded_error_mult: 3,
            ..FaultConfig::default()
        };
        let mut s = FaultState::new(9, cfg);
        assert_eq!(s.service_mult(0), (1, false));
        assert_eq!(s.service_mult(1), (4, false));
        let mut hot = 0;
        let mut cold = 0;
        for _ in 0..2000 {
            if s.read_fails(1) {
                hot += 1;
            }
            if s.read_fails(0) {
                cold += 1;
            }
        }
        assert!(hot > cold, "degraded disk must fail more ({hot} vs {cold})");
    }

    #[test]
    fn degradation_enters_and_exits_with_hysteresis() {
        let cfg = FaultConfig {
            read_error_rate: 0.01, // non-inert so degradation is armed
            degradation: DegradationPolicy {
                window_txns: 4,
                search_budget_us: 1000,
                exit_pct: 50,
            },
            ..FaultConfig::default()
        };
        let mut s = FaultState::new(1, cfg);
        assert_eq!(s.observe_txn_search(400), None);
        assert_eq!(s.observe_txn_search(400), None);
        assert_eq!(s.observe_txn_search(400), Some(true), "1200 > 1000");
        assert!(s.degraded());
        // Needs to fall below 500 (50 %): window [400,400,400,0]=1200,
        // then [400,400,0,0]=800, then [400,0,0,0]=400 → exit.
        assert_eq!(s.observe_txn_search(0), None);
        assert_eq!(s.observe_txn_search(0), None);
        assert_eq!(s.observe_txn_search(0), Some(false));
        assert!(!s.degraded());
    }

    #[test]
    fn retry_policy_passthrough() {
        let cfg = FaultConfig {
            retry: RetryPolicy {
                max_attempts: 7,
                backoff_us: 10,
                backoff_mult: 2,
            },
            ..FaultConfig::default()
        };
        let s = FaultState::new(0, cfg);
        assert_eq!(s.retry().max_attempts, 7);
    }
}
