//! Reusable sweep drivers behind the exhibits.
//!
//! Every driver builds a flat list of [`SweepJob`]s and hands it to the
//! deterministic parallel executor ([`SweepRunner`]); results come back
//! in submission order, so tables and verbose breakdowns are
//! byte-identical at any `--jobs` level.

use crate::FigureOpts;
use semcluster::{
    buffering_study_base, clustering_study_base, figure_5_11_combos, ReplicatedResult, SimConfig,
    SweepItem, SweepJob, SweepRunner,
};
use semcluster_analysis::{find_break_even, BreakEven, Corners, FactorialDesign, Table};
use semcluster_buffer::{PrefetchScope, ReplacementPolicy};
use semcluster_clustering::{
    linear_split, optimal_split, ClusteringPolicy, DependencyGraph, HintPolicy, SplitPolicy,
};
use semcluster_sim::{Estimate, OnlineStats, SimRng};
use semcluster_vdm::ObjectId;
use semcluster_workload::{StructureDensity, WorkloadSpec};
use std::sync::Mutex;

/// A labelled sweep matrix of estimates.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Row labels (typically workloads).
    pub rows: Vec<String>,
    /// Column labels (typically policies).
    pub cols: Vec<String>,
    /// `cells[row][col]`.
    pub cells: Vec<Vec<Estimate>>,
}

impl Sweep {
    /// Render as an ASCII table of `mean ± ci` values.
    pub fn print(&self, value_name: &str) {
        let mut headers = vec![format!("workload \\ {value_name}")];
        headers.extend(self.cols.iter().cloned());
        let mut table = Table::new(headers);
        for (r, row_label) in self.rows.iter().enumerate() {
            let mut cells = vec![row_label.clone()];
            for c in 0..self.cols.len() {
                let e = &self.cells[r][c];
                cells.push(format!("{:.3}±{:.3}", e.mean, e.ci95));
            }
            table.row(cells);
        }
        table.print();
    }

    /// Cell lookup by labels.
    pub fn get(&self, row: &str, col: &str) -> Option<&Estimate> {
        let r = self.rows.iter().position(|x| x == row)?;
        let c = self.cols.iter().position(|x| x == col)?;
        Some(&self.cells[r][c])
    }
}

/// Run a batch of jobs on the shared executor and collect the results
/// (submission order). Under `--verbose` every run's breakdown is
/// printed (submission order — deterministic at any thread count); the
/// host-side summary (wall-clock, speedup) goes to stderr; any failed
/// run panics.
pub fn run_jobs(opts: &FigureOpts, jobs: Vec<SweepJob>) -> Vec<ReplicatedResult> {
    let items = run_items(opts, jobs).into_iter();
    items
        .map(|item| item.result.expect("run_items panics on a failure"))
        .collect()
}

/// [`run_jobs`], keeping each job's merged metrics beside its result.
pub fn run_items(opts: &FigureOpts, jobs: Vec<SweepJob>) -> Vec<SweepItem> {
    let outcome = SweepRunner::new(opts.jobs).run(jobs);
    if opts.verbose {
        for (_, result) in outcome.ok_results() {
            crate::print_breakdown(&result.reports[0]);
        }
    }
    eprintln!("{}", outcome.summary.render());
    if let Some(e) = outcome.errors().first() {
        panic!("{e}");
    }
    outcome.items
}

/// Run a `workloads × cols` grid (row-major submission): each cell is
/// `base` at the opts' scale, under its row's workload, with
/// `set_col(cfg, column)` applied; `cell` folds its replications.
pub fn run_grid(
    opts: &FigureOpts,
    base: SimConfig,
    workloads: &[WorkloadSpec],
    cols: Vec<String>,
    set_col: impl Fn(&mut SimConfig, usize),
    cell: impl Fn(&ReplicatedResult) -> Estimate,
) -> Sweep {
    let base = opts.apply(base);
    let rows: Vec<String> = workloads.iter().map(|w| w.label()).collect();
    let mut jobs = Vec::with_capacity(rows.len() * cols.len());
    for (workload, row) in workloads.iter().zip(&rows) {
        for (c, col) in cols.iter().enumerate() {
            let mut cfg = base.clone();
            cfg.workload = workload.clone();
            set_col(&mut cfg, c);
            jobs.push(SweepJob::new(format!("{row} / {col}"), cfg, opts.reps));
        }
    }
    let results = run_jobs(opts, jobs);
    let cells = results
        .chunks(cols.len())
        .map(|row| row.iter().map(&cell).collect())
        .collect();
    Sweep { rows, cols, cells }
}

fn response_cell(result: &ReplicatedResult) -> Estimate {
    result.response.clone()
}

fn labels<T: std::fmt::Display>(levels: &[T]) -> Vec<String> {
    levels.iter().map(T::to_string).collect()
}

/// The density sweep of Figures 5.2–5.4 at a fixed rw ratio.
pub fn density_workloads(rw: f64) -> Vec<WorkloadSpec> {
    StructureDensity::ALL
        .into_iter()
        .map(|d| WorkloadSpec::new(d, rw))
        .collect()
}

/// The rw sweep of Figures 5.6–5.8 at a fixed density.
pub fn rw_workloads(density: StructureDensity) -> Vec<WorkloadSpec> {
    [2.0, 5.0, 10.0, 100.0]
        .into_iter()
        .map(|rw| WorkloadSpec::new(density, rw))
        .collect()
}

/// Clustering-effect sweep (Figures 5.1–5.4, 5.6–5.8): the five paper
/// clustering policies against `workloads`, under the §5.1 buffering
/// baseline (LRU, no prefetch, no splitting).
pub fn clustering_effect(opts: &FigureOpts, workloads: &[WorkloadSpec]) -> Sweep {
    let policies = ClusteringPolicy::PAPER_LEVELS;
    run_grid(
        opts,
        clustering_study_base(),
        workloads,
        labels(&policies),
        |cfg, c| cfg.clustering = policies[c],
        response_cell,
    )
}

/// Page-splitting sweep (Figure 5.9): No/Linear/NP splitting under
/// clustering without I/O limitation.
pub fn split_effect(opts: &FigureOpts, workloads: &[WorkloadSpec]) -> Sweep {
    let policies = [
        SplitPolicy::NoSplit,
        SplitPolicy::Linear,
        SplitPolicy::Optimal,
    ];
    run_grid(
        opts,
        clustering_study_base().with_clustering(ClusteringPolicy::NoLimit),
        workloads,
        labels(&policies),
        |cfg, c| cfg.split = policies[c],
        response_cell,
    )
}

/// Buffering-effect sweep (Figure 5.11): the six reported replacement ×
/// prefetch combinations under the §5.2 clustering baseline.
pub fn buffering_effect(opts: &FigureOpts, workloads: &[WorkloadSpec]) -> Sweep {
    let combos = figure_5_11_combos();
    run_grid(
        opts,
        buffering_study_base(),
        workloads,
        combos.iter().map(|(l, _, _)| l.to_string()).collect(),
        |cfg, c| (_, cfg.replacement, cfg.prefetch) = combos[c],
        response_cell,
    )
}

/// Prefetch sweep under one replacement policy (Figures 5.12–5.14).
pub fn prefetch_effect(
    opts: &FigureOpts,
    replacement: ReplacementPolicy,
    workloads: &[WorkloadSpec],
) -> Sweep {
    let scopes = [
        PrefetchScope::None,
        PrefetchScope::WithinBuffer,
        PrefetchScope::WithinDatabase,
    ];
    run_grid(
        opts,
        buffering_study_base().with_replacement(replacement),
        workloads,
        labels(&scopes),
        |cfg, c| cfg.prefetch = scopes[c],
        response_cell,
    )
}

/// Transaction-logging I/O comparison (Figure 5.5): physical log I/Os
/// *per committed write transaction* under no clustering vs clustering
/// without I/O limitation, rw = 5, density sweep. (Per-commit
/// normalisation removes the dilution from each run's random
/// write-transaction count.)
pub fn log_io_effect(opts: &FigureOpts) -> Sweep {
    let policies = [ClusteringPolicy::NoCluster, ClusteringPolicy::NoLimit];
    run_grid(
        opts,
        clustering_study_base(),
        &density_workloads(5.0),
        labels(&policies),
        |cfg, c| cfg.clustering = policies[c],
        |result| {
            let mut stats = OnlineStats::new();
            for report in &result.reports {
                stats.push(report.log_ios as f64 / report.commits.max(1) as f64);
            }
            Estimate::from_stats(&stats)
        },
    )
}

/// Break-even read/write ratio (Table 5.1): where `No_Cluster` and
/// clustering-without-limit response times cross for one density.
///
/// The bisection is inherently sequential, but each probe's two
/// configurations (clustered, plain) run as one two-job parallel sweep.
pub fn break_even_for(opts: &FigureOpts, density: StructureDensity) -> BreakEven {
    let runner = SweepRunner::new(opts.jobs);
    let diff = |rw: f64| {
        let probe = |clustering| {
            let mut cfg = opts.apply(clustering_study_base());
            cfg.workload = WorkloadSpec::new(density, rw);
            cfg.clustering = clustering;
            SweepJob::of(cfg, opts.reps)
        };
        let results = runner
            .run(vec![
                probe(ClusteringPolicy::NoLimit),
                probe(ClusteringPolicy::NoCluster),
            ])
            .into_results()
            .expect("break-even probes must succeed");
        results[0].response.mean - results[1].response.mean
    };
    find_break_even(diff, 1.0, 10.0, 7, 4)
}

/// The eight two-level factors of the §6 factorial analysis, with their
/// low/high operating levels applied through a closure.
pub fn factorial_design() -> FactorialDesign {
    FactorialDesign::new(vec![
        "density",
        "rw-ratio",
        "clustering",
        "split",
        "hints",
        "replacement",
        "buffer-size",
        "prefetch",
    ])
}

/// Configure one factorial run from its level vector.
pub fn factorial_config(opts: &FigureOpts, levels: &[bool]) -> SimConfig {
    let mut cfg = opts.apply(SimConfig::default());
    cfg.workload = WorkloadSpec::new(
        if levels[0] {
            StructureDensity::High10
        } else {
            StructureDensity::Low3
        },
        if levels[1] { 100.0 } else { 5.0 },
    );
    cfg.clustering = if levels[2] {
        ClusteringPolicy::NoLimit
    } else {
        ClusteringPolicy::NoCluster
    };
    cfg.split = if levels[3] {
        SplitPolicy::Linear
    } else {
        SplitPolicy::NoSplit
    };
    cfg.hints = if levels[4] {
        HintPolicy::UserHints
    } else {
        HintPolicy::NoHints
    };
    cfg.replacement = if levels[5] {
        ReplacementPolicy::ContextSensitive
    } else {
        ReplacementPolicy::Lru
    };
    cfg.buffer_pages = if levels[6] {
        cfg.buffer_pages * 4
    } else {
        cfg.buffer_pages / 2
    };
    cfg.prefetch = if levels[7] {
        PrefetchScope::WithinDatabase
    } else {
        PrefetchScope::None
    };
    cfg
}

/// The per-run mean responses of the full 2^8 factorial, in run (mask)
/// order. The sweep runs once per process and option set: Figures 6.1
/// and 6.2 share it through an in-process memo keyed by every option
/// that changes the responses (thread count does not — the sweep is
/// deterministic).
pub fn factorial_responses(opts: &FigureOpts) -> Vec<f64> {
    type Key = (u64, u64, u64, u64, u32);
    static MEMO: Mutex<Option<(Key, Vec<f64>)>> = Mutex::new(None);
    let key = (
        opts.seed,
        opts.database_bytes,
        opts.measured_txns,
        opts.warmup_txns,
        opts.reps,
    );
    let mut memo = MEMO.lock().expect("a panicking sweep ends the process");
    if let Some((_, responses)) = memo.as_ref().filter(|(k, _)| *k == key) {
        return responses.clone();
    }
    let design = factorial_design();
    eprintln!(
        "running {} configurations (shared by 6.1/6.2)…",
        design.runs()
    );
    let jobs: Vec<SweepJob> = (0..design.runs())
        .map(|run| {
            SweepJob::new(
                format!("factorial run {run:03}"),
                factorial_config(opts, &design.levels(run)),
                1,
            )
        })
        .collect();
    let responses: Vec<f64> = run_jobs(opts, jobs)
        .iter()
        .map(|r| r.response.mean)
        .collect();
    *memo = Some((key, responses.clone()));
    responses
}

/// The 2×2 interaction corners of factors `i` and `j`, averaging
/// responses over all other factors (standard interaction-plot
/// construction from a full factorial).
pub fn corners_from(design: &FactorialDesign, responses: &[f64], i: usize, j: usize) -> Corners {
    assert_eq!(responses.len(), design.runs());
    let mut sums = [0.0f64; 4];
    let mut counts = [0u32; 4];
    for (run, &y) in responses.iter().enumerate() {
        let a = (run >> i) & 1;
        let b = (run >> j) & 1;
        let idx = a * 2 + b;
        sums[idx] += y;
        counts[idx] += 1;
    }
    Corners {
        ll: sums[0] / counts[0] as f64,
        lh: sums[1] / counts[1] as f64,
        hl: sums[2] / counts[2] as f64,
        hh: sums[3] / counts[3] as f64,
    }
}

/// Random dependency graph for the Figure 5.10 partition-cost study.
fn random_dependency_graph(
    rng: &mut SimRng,
    nodes: usize,
    arc_prob: f64,
    size_range: (u32, u32),
) -> DependencyGraph {
    let sizes: Vec<u32> = (0..nodes)
        .map(|_| rng.range_inclusive(size_range.0 as u64, size_range.1 as u64) as u32)
        .collect();
    let mut arcs = Vec::new();
    for a in 0..nodes as u32 {
        for b in (a + 1)..nodes as u32 {
            if rng.chance(arc_prob) {
                arcs.push((a, b, 1.0 + rng.f64() * 9.0));
            }
        }
    }
    arcs.sort_by(|x, y| y.2.partial_cmp(&x.2).expect("finite"));
    DependencyGraph {
        objects: (0..nodes as u32).map(ObjectId).collect(),
        sizes,
        arcs,
    }
}

/// Mean broken-cost gap between the greedy and optimal partitioners
/// (Figure 5.10), per density class: `(class, linear_cost, optimal_cost)`
/// averaged over `samples` random graphs each.
pub fn split_cost_gap(seed: u64, samples: usize) -> Vec<(String, f64, f64)> {
    let mut rng = SimRng::seed_from_u64(seed);
    let classes = [
        ("low-3", 5usize, 0.25),
        ("med-5", 9, 0.35),
        ("high-10", 14, 0.45),
    ];
    let capacity = 4000u32;
    let mut out = Vec::new();
    for (label, nodes, arc_prob) in classes {
        let mut lin_sum = 0.0;
        let mut opt_sum = 0.0;
        let mut n = 0;
        while n < samples {
            let g = random_dependency_graph(&mut rng, nodes, arc_prob, (300, 900));
            let (Ok(lin), Ok(opt)) = (linear_split(&g, capacity), optimal_split(&g, capacity))
            else {
                continue;
            };
            lin_sum += lin.broken_cost;
            opt_sum += opt.broken_cost;
            n += 1;
        }
        out.push((
            label.to_string(),
            lin_sum / samples as f64,
            opt_sum / samples as f64,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> FigureOpts {
        FigureOpts {
            reps: 1,
            database_bytes: 2 * 1024 * 1024,
            measured_txns: 150,
            warmup_txns: 50,
            seed: 1,
            verbose: false,
            jobs: 2,
        }
    }

    #[test]
    fn sweep_lookup_and_print() {
        let opts = tiny_opts();
        let sweep = clustering_effect(&opts, &[WorkloadSpec::new(StructureDensity::Low3, 5.0)]);
        assert_eq!(sweep.rows, vec!["low3-5"]);
        assert_eq!(sweep.cols.len(), 5);
        assert!(sweep.get("low3-5", "No_Cluster").unwrap().mean > 0.0);
        assert!(sweep.get("nope", "No_Cluster").is_none());
        sweep.print("response (s)");
    }

    #[test]
    fn grid_is_thread_count_invariant() {
        let workloads = [WorkloadSpec::new(StructureDensity::Low3, 5.0)];
        let serial = clustering_effect(
            &FigureOpts {
                jobs: 1,
                ..tiny_opts()
            },
            &workloads,
        );
        let parallel = clustering_effect(
            &FigureOpts {
                jobs: 4,
                ..tiny_opts()
            },
            &workloads,
        );
        assert_eq!(serial.rows, parallel.rows);
        assert_eq!(serial.cols, parallel.cols);
        for (a, b) in serial.cells[0].iter().zip(&parallel.cells[0]) {
            assert_eq!(a.mean.to_bits(), b.mean.to_bits());
            assert_eq!(a.ci95.to_bits(), b.ci95.to_bits());
        }
    }

    #[test]
    fn factorial_config_applies_levels() {
        let opts = tiny_opts();
        let hi = factorial_config(&opts, &[true; 8]);
        assert_eq!(hi.workload.label(), "hi10-100");
        assert_eq!(hi.clustering, ClusteringPolicy::NoLimit);
        assert_eq!(hi.replacement, ReplacementPolicy::ContextSensitive);
        let lo = factorial_config(&opts, &[false; 8]);
        assert_eq!(lo.workload.label(), "low3-5");
        assert_eq!(lo.clustering, ClusteringPolicy::NoCluster);
        assert!(lo.buffer_pages < hi.buffer_pages);
    }

    #[test]
    fn corners_average_other_factors() {
        let design = FactorialDesign::new(vec!["A", "B", "C"]);
        // y depends only on A (factor 0).
        let responses: Vec<f64> = (0..8)
            .map(|run| if run & 1 == 1 { 10.0 } else { 2.0 })
            .collect();
        let c = corners_from(&design, &responses, 0, 1);
        assert_eq!(c.ll, 2.0);
        assert_eq!(c.lh, 2.0);
        assert_eq!(c.hl, 10.0);
        assert_eq!(c.hh, 10.0);
    }

    #[test]
    fn optimal_never_beats_linear_backwards() {
        for (label, lin, opt) in split_cost_gap(3, 10) {
            assert!(
                opt <= lin + 1e-9,
                "{label}: optimal {opt} worse than linear {lin}"
            );
        }
    }

    #[test]
    fn workload_families() {
        assert_eq!(density_workloads(5.0).len(), 3);
        assert_eq!(rw_workloads(StructureDensity::Low3).len(), 4);
    }
}
