//! Deterministic parallel sweep execution (DESIGN.md §10).
//!
//! Every experiment in the reproduction is a loop over *independent*
//! simulation configurations: each run owns its RNG (derived from its
//! config's seed), its engine state and its metrics registry, and shares
//! nothing with its neighbours. [`SweepRunner`] exploits that: it runs
//! the submitted [`SweepJob`]s on a scoped worker pool (std only — no
//! external thread-pool crate) and assembles the results **in submission
//! order**, so the output is byte-identical whether the sweep ran on one
//! thread or sixteen, and regardless of completion order.
//!
//! The determinism contract:
//!
//! * a job's result depends only on its `SimConfig` (the engine is a
//!   deterministic function of the config — same seed, same report);
//! * results, merged metrics and verbose breakdowns are assembled by
//!   submission index at join, never by completion order;
//! * each replication gets an isolated `semcluster-obs` registry; the
//!   per-run snapshots are merged with the commutative-and-associative
//!   [`MetricsSnapshot::merge`], folded in submission order;
//! * a panicking run is caught (`catch_unwind`) and surfaces as a
//!   [`SweepError`] for that job alone — the rest of the sweep completes.
//!
//! Only host wall-clock facts ([`SweepSummary`]) vary with thread count;
//! callers print those to stderr so stdout stays canonical.

use crate::config::SimConfig;
use crate::engine::{ObsConfig, RunObservations};
use crate::runner::{run_replicated_observed, ReplicatedResult};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One independent unit of sweep work: a configuration run `reps` times
/// with derived seeds (see [`crate::replication_config`]).
#[derive(Debug, Clone)]
pub struct SweepJob {
    /// Label carried through to the item (defaults to the config label).
    pub label: String,
    /// The configuration to run.
    pub cfg: SimConfig,
    /// Replications (each with a derived seed).
    pub reps: u32,
}

impl SweepJob {
    /// A labelled job.
    pub fn new(label: impl Into<String>, cfg: SimConfig, reps: u32) -> Self {
        SweepJob {
            label: label.into(),
            cfg,
            reps,
        }
    }

    /// A job labelled with its config's own label.
    pub fn of(cfg: SimConfig, reps: u32) -> Self {
        SweepJob {
            label: cfg.label(),
            cfg,
            reps,
        }
    }
}

/// A run that failed (panicked); the sweep carries on without it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepError {
    /// Submission index of the failed job.
    pub index: usize,
    /// The failed job's label.
    pub label: String,
    /// The panic payload, if it was a string.
    pub message: String,
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sweep run #{} ({}) failed: {}",
            self.index, self.label, self.message
        )
    }
}

impl std::error::Error for SweepError {}

/// The outcome of one job, in submission order.
#[derive(Debug)]
pub struct SweepItem {
    /// Submission index (== position in [`SweepOutcome::items`]).
    pub index: usize,
    /// Job label.
    pub label: String,
    /// The folded replications, or the captured panic.
    pub result: Result<ReplicatedResult, SweepError>,
    /// This job's replications' observations, merged: metrics always,
    /// a timeline or profile when the runner enables it (empty on
    /// failure).
    pub obs: RunObservations,
    /// Host wall-clock this job took on its worker.
    pub wall: Duration,
}

/// Host-side facts about a finished sweep. Everything here varies with
/// thread count and machine load — print it to stderr, never into
/// canonical output.
#[derive(Debug, Clone)]
pub struct SweepSummary {
    /// Jobs submitted.
    pub runs: usize,
    /// Jobs that failed.
    pub failed: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock of the whole sweep.
    pub wall: Duration,
    /// Sum of per-job wall-clocks (≈ what one thread would have taken).
    pub serial_equivalent: Duration,
}

impl SweepSummary {
    /// Parallel speedup estimate: serial-equivalent time over wall time.
    pub fn speedup(&self) -> f64 {
        let wall = self.wall.as_secs_f64();
        if wall <= 0.0 {
            1.0
        } else {
            self.serial_equivalent.as_secs_f64() / wall
        }
    }

    /// One-line human-readable rendering.
    pub fn render(&self) -> String {
        let failed = if self.failed > 0 {
            format!(", {} FAILED", self.failed)
        } else {
            String::new()
        };
        format!(
            "sweep: {} runs on {} thread{} in {:.2}s (serial-equivalent {:.2}s, speedup {:.2}x{})",
            self.runs,
            self.threads,
            if self.threads == 1 { "" } else { "s" },
            self.wall.as_secs_f64(),
            self.serial_equivalent.as_secs_f64(),
            self.speedup(),
            failed,
        )
    }
}

/// Everything a sweep produced: per-job items in submission order, the
/// deterministically merged metrics of all successful runs, and the
/// host-side summary.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Per-job outcomes, in submission order.
    pub items: Vec<SweepItem>,
    /// All successful jobs' observations, merged in submission order.
    /// Every merge is order-independent (the profile's is per-stack
    /// sums), so this is byte-identical at any thread count.
    pub obs: RunObservations,
    /// Host wall-clock facts (stderr material).
    pub summary: SweepSummary,
}

impl SweepOutcome {
    /// The results in submission order, failing on the first error.
    /// Sweeps that expect every configuration to succeed (all the figure
    /// sweeps) use this to keep the old panic-on-failure behaviour
    /// explicit.
    pub fn into_results(self) -> Result<Vec<ReplicatedResult>, SweepError> {
        self.items.into_iter().map(|item| item.result).collect()
    }

    /// Borrowed view of every successful result, in submission order.
    pub fn ok_results(&self) -> impl Iterator<Item = (&SweepItem, &ReplicatedResult)> {
        self.items
            .iter()
            .filter_map(|i| i.result.as_ref().ok().map(|r| (i, r)))
    }

    /// The errors, in submission order (empty when all runs succeeded).
    pub fn errors(&self) -> Vec<&SweepError> {
        self.items
            .iter()
            .filter_map(|i| i.result.as_ref().err())
            .collect()
    }
}

/// The deterministic parallel sweep executor.
pub struct SweepRunner {
    jobs: usize,
    obs: Box<dyn Fn(usize, u32) -> ObsConfig + Send + Sync>,
}

impl SweepRunner {
    /// An executor using `jobs` worker threads; `0` means the host's
    /// available parallelism.
    pub fn new(jobs: usize) -> Self {
        let jobs = if jobs == 0 {
            default_parallelism()
        } else {
            jobs
        };
        SweepRunner {
            jobs,
            obs: Box::new(|_, _| ObsConfig::default()),
        }
    }

    /// Worker threads this executor will use.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Observe every replication as `f(job index, replication)` says
    /// (a trace sink per run, timeline sampling, profiling); without
    /// it each run gets [`ObsConfig::default`]. `f` is called on the
    /// worker thread that owns the run, so a sink never crosses threads,
    /// and each run still gets an isolated registry. Each job's
    /// replications merge into [`SweepItem::obs`] and all jobs into
    /// [`SweepOutcome::obs`]; timeline boundaries are interval
    /// multiples and every merge is order-independent, so the merged
    /// timelines and profiles (minus wall clock, which never enters
    /// canonical output) are byte-identical at any thread count.
    pub fn with_obs(mut self, f: impl Fn(usize, u32) -> ObsConfig + Send + Sync + 'static) -> Self {
        self.obs = Box::new(f);
        self
    }

    /// Run every job and assemble the outcome in submission order.
    pub fn run(&self, jobs: Vec<SweepJob>) -> SweepOutcome {
        let started = Instant::now();
        let threads = self.jobs.clamp(1, jobs.len().max(1));
        let items = ordered_parallel_map(threads, &jobs, |index, job| self.run_one(index, job));
        // Join: fold observations and wall-clocks in submission order
        // (every merge is order-independent anyway).
        let mut obs = RunObservations::default();
        let mut serial_equivalent = Duration::ZERO;
        let mut failed = 0;
        for item in &items {
            obs.absorb(&item.obs);
            serial_equivalent += item.wall;
            if item.result.is_err() {
                failed += 1;
            }
        }
        SweepOutcome {
            obs,
            summary: SweepSummary {
                runs: items.len(),
                failed,
                threads,
                wall: started.elapsed(),
                serial_equivalent,
            },
            items,
        }
    }

    fn run_one(&self, index: usize, job: &SweepJob) -> SweepItem {
        let SweepJob { label, cfg, reps } = job;
        let t0 = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_replicated_observed(cfg, *reps, &mut |rep| (self.obs)(index, rep))
        }));
        let (result, obs) = match outcome {
            Ok((result, obs)) => (Ok(result), obs),
            Err(payload) => (
                Err(SweepError {
                    index,
                    label: label.clone(),
                    message: panic_message(payload.as_ref()),
                }),
                RunObservations::default(),
            ),
        };
        SweepItem {
            index,
            label: label.clone(),
            result,
            obs,
            wall: t0.elapsed(),
        }
    }
}

/// Map `f` over `items` on up to `threads` scoped workers (`0` = the
/// host's available parallelism) pulling indices from a shared atomic
/// cursor, and return the results in item order — so the output never
/// depends on worker count or completion order. One thread runs inline.
pub(crate) fn ordered_parallel_map<T: Sync, R: Send>(
    threads: usize,
    items: &[T],
    f: impl Fn(usize, &T) -> R + Sync,
) -> Vec<R> {
    let n = items.len();
    let threads = if threads == 0 {
        default_parallelism()
    } else {
        threads
    }
    .clamp(1, n.max(1));
    if threads == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    let next = AtomicUsize::new(0);
    let out: Vec<Mutex<&mut Option<R>>> = slots.iter_mut().map(Mutex::new).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= n {
                    break;
                }
                let item = f(index, &items[index]);
                **out[index]
                    .lock()
                    .expect("result mutex poisoned: a worker panicked while storing its item") =
                    Some(item);
            });
        }
    });
    drop(out);
    slots
        .into_iter()
        .map(|s| s.expect("every index < n is claimed exactly once by the atomic cursor"))
        .collect()
}

/// The host's available parallelism (1 when unknown).
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic payload".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(seed: u64) -> SimConfig {
        SimConfig {
            database_bytes: 2 * 1024 * 1024,
            buffer_pages: 24,
            warmup_txns: 40,
            measured_txns: 120,
            seed,
            ..SimConfig::default()
        }
    }

    #[test]
    fn serial_and_parallel_agree() {
        let jobs = |reps| {
            (0..4)
                .map(|i| SweepJob::new(format!("job{i}"), tiny(100 + i), reps))
                .collect::<Vec<_>>()
        };
        let serial = SweepRunner::new(1).run(jobs(1));
        let parallel = SweepRunner::new(4).run(jobs(1));
        assert_eq!(serial.items.len(), 4);
        assert_eq!(serial.summary.threads, 1);
        assert_eq!(parallel.summary.threads, 4);
        assert_eq!(serial.obs.metrics, parallel.obs.metrics);
        for (a, b) in serial.items.iter().zip(&parallel.items) {
            assert_eq!(a.label, b.label);
            let (ra, rb) = (a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
            assert_eq!(ra.response.mean.to_bits(), rb.response.mean.to_bits());
            assert_eq!(ra.reports[0].io, rb.reports[0].io);
            assert_eq!(a.obs.metrics, b.obs.metrics);
        }
    }

    #[test]
    fn timelines_merge_identically_across_thread_counts() {
        let jobs = || {
            (0..4)
                .map(|i| SweepJob::new(format!("job{i}"), tiny(200 + i), 2))
                .collect::<Vec<_>>()
        };
        let sampled = |threads| {
            SweepRunner::new(threads).with_obs(|_, _| ObsConfig::default().timeline(1_000_000))
        };
        let serial = sampled(1).run(jobs());
        let parallel = sampled(4).run(jobs());
        for (a, b) in serial.items.iter().zip(&parallel.items) {
            let (ta, tb) = (
                a.obs.timeline.as_ref().unwrap(),
                b.obs.timeline.as_ref().unwrap(),
            );
            assert!(!ta.is_empty());
            assert_eq!(ta.to_json(), tb.to_json());
        }
        let (ma, mb) = (serial.obs.timeline.unwrap(), parallel.obs.timeline.unwrap());
        assert_eq!(ma.to_json(), mb.to_json());
        // Each job contributed 2 replications to the first boundary.
        let first = ma.points().next().unwrap().1;
        assert_eq!(first.runs, 8);
    }

    #[test]
    fn panicking_job_is_isolated() {
        let jobs = vec![
            SweepJob::new("ok-before", tiny(7), 1),
            // reps == 0 violates run_replicated's precondition and panics.
            SweepJob::new("boom", tiny(8), 0),
            SweepJob::new("ok-after", tiny(9), 1),
        ];
        let out = SweepRunner::new(2).run(jobs);
        assert_eq!(out.summary.failed, 1);
        assert!(out.items[0].result.is_ok());
        assert!(out.items[2].result.is_ok());
        let err = out.items[1].result.as_ref().unwrap_err();
        assert_eq!(err.index, 1);
        assert_eq!(err.label, "boom");
        assert!(err.message.contains("at least one replication"));
        assert_eq!(out.errors().len(), 1);
        assert!(out.into_results().is_err());
    }

    #[test]
    fn per_rep_fanout_matches_serial_replication() {
        let cfg = tiny(5);
        let serial = crate::runner::run_replicated(&cfg, 3);
        let jobs = (0..3)
            .map(|r| {
                SweepJob::new(
                    format!("rep{r}"),
                    crate::runner::replication_config(&cfg, r),
                    1,
                )
            })
            .collect();
        let results = SweepRunner::new(3).run(jobs).into_results().unwrap();
        assert_eq!(serial.reports.len(), results.len());
        for (a, b) in serial
            .reports
            .iter()
            .zip(results.iter().map(|r| &r.reports[0]))
        {
            assert_eq!(a.mean_response_s.to_bits(), b.mean_response_s.to_bits());
            assert_eq!(a.io, b.io);
            assert_eq!(a.span_totals, b.span_totals);
        }
    }

    #[test]
    fn zero_jobs_means_available_parallelism() {
        assert!(SweepRunner::new(0).jobs() >= 1);
        assert_eq!(SweepRunner::new(3).jobs(), 3);
    }

    #[test]
    fn summary_speedup_and_render() {
        let s = SweepSummary {
            runs: 8,
            failed: 0,
            threads: 4,
            wall: Duration::from_secs(2),
            serial_equivalent: Duration::from_secs(6),
        };
        assert!((s.speedup() - 3.0).abs() < 1e-12);
        let line = s.render();
        assert!(line.contains("8 runs"));
        assert!(line.contains("4 threads"));
        let failing = SweepSummary { failed: 2, ..s };
        assert!(failing.render().contains("2 FAILED"));
    }

    #[test]
    fn obs_factory_runs_per_replication() {
        use std::sync::atomic::AtomicU32;
        use std::sync::Arc;
        let calls = Arc::new(AtomicU32::new(0));
        let seen = Arc::clone(&calls);
        let runner = SweepRunner::new(2).with_obs(move |_, _| {
            seen.fetch_add(1, Ordering::Relaxed);
            ObsConfig::default()
        });
        let jobs = (0..3).map(|i| SweepJob::of(tiny(i), 2)).collect();
        let out = runner.run(jobs);
        assert_eq!(out.summary.failed, 0);
        assert_eq!(calls.load(Ordering::Relaxed), 6);
    }
}
