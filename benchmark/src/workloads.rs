//! The six workloads. Each is sized as a *round* — one fresh engine or
//! server driven through a fixed, seed-generated input — and a run
//! repeats rounds until its measuring time is used, so every round of a
//! run sees identical input and throughput, set-up and CPU are medians
//! over rounds. Why each exists is recorded in `BENCHMARK.json` and the
//! README.

use semcluster_buffer::{PrefetchScope, ReplacementPolicy};
use semcluster_clustering::SplitPolicy;

#[derive(Debug, Clone, Copy)]
pub struct EngineSpec {
    pub database_mib: u64,
    pub buffer_pages: usize,
    /// Density and read/write ratio preset (`workload_from_label`).
    pub label: &'static str,
    pub split: SplitPolicy,
    pub replacement: ReplacementPolicy,
    pub prefetch: PrefetchScope,
    /// Measured transactions per round (400 warm-up ones come first).
    pub txns: u64,
    /// Shadow the run on a real `FilePageStore`; the first round of a run
    /// is crashed and recovered.
    pub durable: bool,
}

#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    pub objects: u32,
    /// Share of operations that are updates, in percent.
    pub write_pct: u32,
    /// Logical transactions per connection per round.
    pub txns_per_conn: usize,
}

#[derive(Debug, Clone, Copy)]
pub enum Kind {
    Engine(EngineSpec),
    Serve(ServeSpec),
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
}

const PAPER_POOL: usize = 1000;

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "engine_read_clustered",
        kind: Kind::Engine(EngineSpec {
            database_mib: 64,
            buffer_pages: PAPER_POOL,
            label: "hi10-100",
            split: SplitPolicy::NoSplit,
            replacement: ReplacementPolicy::ContextSensitive,
            prefetch: PrefetchScope::WithinDatabase,
            txns: 600_000,
            durable: false,
        }),
    },
    Workload {
        name: "engine_write_recluster",
        kind: Kind::Engine(EngineSpec {
            database_mib: 64,
            buffer_pages: PAPER_POOL,
            label: "low3-5",
            split: SplitPolicy::Linear,
            replacement: ReplacementPolicy::ContextSensitive,
            prefetch: PrefetchScope::None,
            txns: 450_000,
            durable: false,
        }),
    },
    Workload {
        name: "engine_resident",
        kind: Kind::Engine(EngineSpec {
            database_mib: 32,
            buffer_pages: 32_768,
            label: "med5-10",
            split: SplitPolicy::NoSplit,
            replacement: ReplacementPolicy::Lru,
            prefetch: PrefetchScope::None,
            txns: 1_000_000,
            durable: false,
        }),
    },
    Workload {
        name: "engine_durable",
        kind: Kind::Engine(EngineSpec {
            database_mib: 32,
            buffer_pages: 100,
            label: "low3-5",
            split: SplitPolicy::Linear,
            replacement: ReplacementPolicy::Lru,
            prefetch: PrefetchScope::None,
            txns: 300_000,
            durable: true,
        }),
    },
    Workload {
        name: "serve_mixed",
        kind: Kind::Serve(ServeSpec {
            objects: 4096,
            write_pct: 25,
            txns_per_conn: 3_000,
        }),
    },
    Workload {
        name: "serve_hot",
        kind: Kind::Serve(ServeSpec {
            objects: 16,
            write_pct: 25,
            txns_per_conn: 1_500,
        }),
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// What every invocation is told on its command line.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub seed: u64,
    /// Measuring time: rounds repeat until their timed phases add up to
    /// this (and at least [`MIN_ROUNDS`] have run).
    pub seconds: f64,
    /// Shrinks every round's transaction count (the smoke test runs at
    /// 1/100); 1.0 everywhere else.
    pub scale: f64,
}

/// Rounds every run makes at least, so medians and the determinism
/// check always have something to compare.
pub const MIN_ROUNDS: usize = 3;

/// The protocol every workload shares: append rounds to `rounds` until
/// the timed phases of the new ones add up to `seconds` and at least
/// `min_rounds` were made. `run` gets the index of the round it makes.
pub fn repeat_rounds<R>(
    rounds: &mut Vec<R>,
    seconds: f64,
    min_rounds: usize,
    timed_s: impl Fn(&R) -> f64,
    mut run: impl FnMut(usize) -> Result<R, String>,
) -> Result<(), String> {
    let first = rounds.len();
    let mut measured = 0.0;
    while rounds.len() - first < min_rounds || measured < seconds {
        let round = run(rounds.len())?;
        measured += timed_s(&round);
        rounds.push(round);
    }
    Ok(())
}

impl RunArgs {
    /// A round's transaction count at this scale, never so few that the
    /// round's p99 would have fewer than ten samples beyond it.
    pub fn scaled(&self, n: u64) -> u64 {
        ((n as f64 * self.scale) as u64).max(1_200)
    }
}
