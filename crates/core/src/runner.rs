//! Replicated experiment running.

use crate::config::SimConfig;
use crate::engine::{run_simulation_observed, ObsConfig, RunObservations};
use crate::metrics::RunReport;
use semcluster_sim::{Estimate, OnlineStats};

/// Mean response time with a confidence interval, plus the per-replication
/// reports.
#[derive(Debug, Clone)]
pub struct ReplicatedResult {
    /// Mean-response-time estimate across replications (seconds).
    pub response: Estimate,
    /// Log-I/O count estimate across replications.
    pub log_ios: Estimate,
    /// Buffer-hit-ratio estimate across replications.
    pub hit_ratio: Estimate,
    /// The individual run reports.
    pub reports: Vec<RunReport>,
}

impl ReplicatedResult {
    /// Fold per-replication reports (in replication order) into the
    /// summary estimates. The fold is a plain left-to-right pass, so the
    /// result depends only on the report sequence — never on how the
    /// replications were scheduled.
    pub fn from_reports(reports: Vec<RunReport>) -> ReplicatedResult {
        assert!(!reports.is_empty(), "need at least one replication");
        let mut response = OnlineStats::new();
        let mut log_ios = OnlineStats::new();
        let mut hit_ratio = OnlineStats::new();
        for report in &reports {
            response.push(report.mean_response_s);
            log_ios.push(report.log_ios as f64);
            hit_ratio.push(report.hit_ratio);
        }
        ReplicatedResult {
            response: Estimate::from_stats(&response),
            log_ios: Estimate::from_stats(&log_ios),
            hit_ratio: Estimate::from_stats(&hit_ratio),
            reports,
        }
    }
}

/// The configuration of replication `r` of `cfg`: the same parameters
/// under a seed derived from the master seed. This mapping is the single
/// definition of "replication seed" — the serial runner, the parallel
/// sweep executor and the CLI all share it, which is what makes their
/// outputs interchangeable.
///
/// Replication 0 *is* the master configuration
/// (`replication_config(cfg, 0) == cfg`), so fanning the replications
/// out as independent single-replication sweep jobs produces exactly
/// the reports a serial [`run_replicated`] call would.
pub fn replication_config(cfg: &SimConfig, r: u32) -> SimConfig {
    cfg.clone().with_seed(
        cfg.seed
            .wrapping_add((r as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
    )
}

/// Run `cfg` `replications` times with derived seeds and fold the results.
pub fn run_replicated(cfg: &SimConfig, replications: u32) -> ReplicatedResult {
    run_replicated_observed(cfg, replications, &mut |_| ObsConfig::default()).0
}

/// The fully general replicated runner: `obs_for` builds a complete
/// [`ObsConfig`] per replication (sink, timeline sampling, profiling).
/// Metrics, timelines and profiles merge order-independently.
pub fn run_replicated_observed(
    cfg: &SimConfig,
    replications: u32,
    obs_for: &mut dyn FnMut(u32) -> ObsConfig,
) -> (ReplicatedResult, RunObservations) {
    assert!(replications > 0, "need at least one replication");
    let mut reports = Vec::with_capacity(replications as usize);
    let mut merged = RunObservations::default();
    for r in 0..replications {
        let (report, obs) = run_simulation_observed(replication_config(cfg, r), obs_for(r));
        merged.absorb(&obs);
        reports.push(report);
    }
    (ReplicatedResult::from_reports(reports), merged)
}
