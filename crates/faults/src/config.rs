//! Fault-injection configuration: rates, retry/backoff policy,
//! degradation thresholds, crash points, and named presets.

/// Bounded retry with deterministic exponential backoff. Attempt `i`
/// (1-based) that fails waits `backoff_us * backoff_mult^(i-1)`
/// simulated microseconds before the next attempt; after
/// `max_attempts` failures the I/O errors out and the owning
/// transaction aborts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per I/O (>= 1; 1 means no retry).
    pub max_attempts: u32,
    /// Base backoff before the second attempt, in simulated µs.
    pub backoff_us: u64,
    /// Multiplier applied to the backoff per further attempt.
    pub backoff_mult: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            backoff_us: 2_000,
            backoff_mult: 2,
        }
    }
}

impl RetryPolicy {
    /// Backoff charged after failed attempt `attempt` (1-based), in
    /// simulated µs.
    pub fn backoff_after(&self, attempt: u32) -> u64 {
        let mut b = self.backoff_us;
        for _ in 1..attempt {
            b = b.saturating_mul(self.backoff_mult as u64);
        }
        b
    }
}

/// Graceful-degradation thresholds: when the sliding-window sum of
/// per-transaction cluster-search time exceeds `search_budget_us`, the
/// engine falls back from candidate-search placement to
/// append-placement and narrows prefetch to within-buffer; it recovers
/// once the window drops below `exit_pct` percent of the budget.
///
/// A zero budget disables degradation entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradationPolicy {
    /// Transactions in the sliding window.
    pub window_txns: usize,
    /// Cluster-search budget over the window, in simulated µs
    /// (0 = degradation disabled).
    pub search_budget_us: u64,
    /// Re-enter normal operation when the window sum falls below this
    /// percentage of the budget (hysteresis).
    pub exit_pct: u32,
}

impl Default for DegradationPolicy {
    fn default() -> Self {
        DegradationPolicy {
            window_txns: 16,
            search_budget_us: 0,
            exit_pct: 50,
        }
    }
}

/// Full fault-injection configuration. The default is **inert**: every
/// rate zero, no degraded disks, no degradation budget — the engine
/// behaves byte-identically to a fault-free build.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Probability a physical page read attempt fails transiently.
    pub read_error_rate: f64,
    /// Probability a physical page write attempt fails transiently.
    pub write_error_rate: f64,
    /// Probability a data-disk I/O suffers a latency spike.
    pub spike_rate: f64,
    /// Service-time multiplier of a spiked I/O.
    pub spike_mult: u32,
    /// Persistently degraded ("hot") disk indices.
    pub degraded_disks: Vec<u32>,
    /// Service-time multiplier on degraded disks.
    pub degraded_mult: u32,
    /// Transient-error multiplier on degraded disks.
    pub degraded_error_mult: u32,
    /// Probability a physical log I/O stalls.
    pub log_stall_rate: f64,
    /// Duration of a log-device stall, in simulated µs.
    pub log_stall_us: u64,
    /// Retry/backoff policy for failed page I/Os.
    pub retry: RetryPolicy,
    /// Graceful clustering degradation thresholds.
    pub degradation: DegradationPolicy,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            read_error_rate: 0.0,
            write_error_rate: 0.0,
            spike_rate: 0.0,
            spike_mult: 8,
            degraded_disks: Vec::new(),
            degraded_mult: 4,
            degraded_error_mult: 2,
            log_stall_rate: 0.0,
            log_stall_us: 50_000,
            retry: RetryPolicy::default(),
            degradation: DegradationPolicy::default(),
        }
    }
}

impl FaultConfig {
    /// Whether this configuration injects nothing at all (the engine's
    /// fault hooks short-circuit and the run is byte-identical to a
    /// fault-free build).
    pub fn is_inert(&self) -> bool {
        self.read_error_rate <= 0.0
            && self.write_error_rate <= 0.0
            && self.spike_rate <= 0.0
            && self.degraded_disks.is_empty()
            && self.log_stall_rate <= 0.0
            && self.degradation.search_budget_us == 0
    }

    /// Opposite of [`FaultConfig::is_inert`].
    pub fn enabled(&self) -> bool {
        !self.is_inert()
    }

    /// Named presets: `none`, `smoke`, `degraded`, `stress`.
    pub fn preset(name: &str) -> Option<FaultConfig> {
        Some(match name {
            "none" => FaultConfig::default(),
            // Light transient faults: enough to exercise retries
            // without aborting much.
            "smoke" => FaultConfig {
                read_error_rate: 0.02,
                write_error_rate: 0.01,
                spike_rate: 0.02,
                spike_mult: 6,
                log_stall_rate: 0.01,
                log_stall_us: 30_000,
                ..FaultConfig::default()
            },
            // Two hot disks plus mild transients; degradation armed.
            "degraded" => FaultConfig {
                read_error_rate: 0.01,
                spike_rate: 0.01,
                degraded_disks: vec![0, 1],
                degraded_mult: 4,
                degradation: DegradationPolicy {
                    window_txns: 16,
                    search_budget_us: 1_200_000,
                    exit_pct: 50,
                },
                ..FaultConfig::default()
            },
            // Heavy transients and stalls; retries exhaust and
            // transactions abort; degradation engages quickly.
            "stress" => FaultConfig {
                read_error_rate: 0.10,
                write_error_rate: 0.05,
                spike_rate: 0.08,
                spike_mult: 10,
                degraded_disks: vec![0],
                degraded_mult: 6,
                log_stall_rate: 0.05,
                log_stall_us: 80_000,
                retry: RetryPolicy {
                    max_attempts: 3,
                    backoff_us: 2_000,
                    backoff_mult: 2,
                },
                degradation: DegradationPolicy {
                    window_txns: 12,
                    search_budget_us: 600_000,
                    exit_pct: 50,
                },
                ..FaultConfig::default()
            },
            _ => return None,
        })
    }

    /// All preset names accepted by [`FaultConfig::preset`].
    pub const PRESETS: [&'static str; 4] = ["none", "smoke", "degraded", "stress"];
}

/// Where a crash-and-recover run pulls the plug. Counters are counted
/// from the start of the run (warmup included).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CrashPoint {
    /// Crash after the full run completes.
    #[default]
    End,
    /// Crash after the k-th simulation event is processed (1-based).
    Event(u64),
    /// Crash after the k-th write-transaction commit (1-based).
    Commit(u64),
    /// Crash during the k-th physical log flush (1-based) of the
    /// simulated log: the file store's log buffer is mid-write to the
    /// WAL, a prefix of it persists, and recovery must truncate it.
    MidFlush(u64),
    /// Kill the process image at the file store's k-th filesystem
    /// syscall (1-based) after its initial checkpoint; the run stops at
    /// the next event boundary.
    Syscall(u64),
    /// Inject an fsync failure at the file store's k-th fsync (1-based)
    /// after its initial checkpoint and run to completion, exercising
    /// fsyncgate handling.
    FsyncFail(u64),
}

impl CrashPoint {
    /// Canonical textual form (`commit:12`), as crash-matrix reports
    /// and scratch directories name the point.
    pub fn label(&self) -> String {
        match *self {
            CrashPoint::End => "end".to_string(),
            CrashPoint::Event(k) => format!("event:{k}"),
            CrashPoint::Commit(k) => format!("commit:{k}"),
            CrashPoint::MidFlush(k) => format!("midflush:{k}"),
            CrashPoint::Syscall(k) => format!("syscall:{k}"),
            CrashPoint::FsyncFail(k) => format!("fsyncfail:{k}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_inert() {
        let cfg = FaultConfig::default();
        assert!(cfg.is_inert());
        assert!(!cfg.enabled());
    }

    #[test]
    fn presets_resolve() {
        for name in FaultConfig::PRESETS {
            let cfg = FaultConfig::preset(name).unwrap();
            if name == "none" {
                assert!(cfg.is_inert());
            } else {
                assert!(cfg.enabled(), "{name} must inject something");
            }
        }
        assert!(FaultConfig::preset("bogus").is_none());
    }

    #[test]
    fn backoff_grows_geometrically() {
        let r = RetryPolicy {
            max_attempts: 4,
            backoff_us: 100,
            backoff_mult: 3,
        };
        assert_eq!(r.backoff_after(1), 100);
        assert_eq!(r.backoff_after(2), 300);
        assert_eq!(r.backoff_after(3), 900);
    }
}
