//! The paper set: Figures 3.2–6.2 and Tables 4.1 / 5.1.

use crate::experiments::{
    break_even_for, buffering_effect, clustering_effect, corners_from, factorial_design,
    factorial_responses, log_io_effect, prefetch_effect, split_cost_gap, split_effect, Sweep,
};
use crate::FigureOpts;
use semcluster::SimConfig;
use semcluster_analysis::{BreakEven, Table};
use semcluster_buffer::ReplacementPolicy;
use semcluster_sim::SimRng;
use semcluster_workload::{
    analyze, generate_trace, oct_tools, StructureDensity, ToolProfile, ToolStats, WorkloadSpec,
};

/// Table 4.1 — the simulation parameters, printed from the live default
/// configuration (scaled) and the paper-scale configuration.
pub fn table4_1(_: &FigureOpts) {
    let scaled = SimConfig::default();
    let paper = SimConfig::paper_scale();
    let mut t = Table::new(vec!["label", "parameter", "paper value", "scaled default"]);
    let mut row = |label: &str, parameter: &str, show: fn(&SimConfig) -> String| {
        t.row(vec![
            label.to_string(),
            parameter.to_string(),
            show(&paper),
            show(&scaled),
        ]);
    };
    row("A", "Database size", |c| {
        format!("{} MB", c.database_bytes / (1024 * 1024))
    });
    row("B", "Page size", |c| format!("{} B", c.page_bytes));
    row("C", "Number of users", |c| c.users.to_string());
    row("D", "Number of disks", |c| c.disks.to_string());
    row("E", "Think time", |c| {
        format!("{:.0} s", c.think_time.as_secs_f64())
    });
    row("L", "Buffer pool size", |c| {
        format!("{} pages", c.buffer_pages)
    });
    t.print();
    println!("\ncontrol parameters (operating levels):");
    let mut c = Table::new(vec!["label", "parameter", "levels"]);
    c.row(vec!["F", "Structure density", "low-3, med-5, high-10"]);
    c.row(vec!["G", "Read/write ratio", "5, 10, 100"]);
    c.row(vec![
        "H",
        "Clustering policy",
        "No_Cluster, Cluster_within_Buffer, 2_IO_limit, 10_IO_limit, No_limit",
    ]);
    c.row(vec![
        "I",
        "Page splitting",
        "No_Splitting, Linear_Split, NP_Split",
    ]);
    c.row(vec!["J", "User hints", "No_hint, User_hint"]);
    c.row(vec![
        "K",
        "Buffer replacement",
        "LRU, Context-sensitive, Random",
    ]);
    c.row(vec![
        "L",
        "Buffer pool size",
        "100, 1000, 10000 (paper scale)",
    ]);
    c.row(vec![
        "M",
        "Prefetch policy",
        "No_prefetch, Prefetch_within_buffer_pool, Prefetch_within_Database",
    ]);
    c.print();
}

/// Figures 3.2–3.4 each recover one per-tool statistic from a synthetic
/// trace generated off the OCT tool profiles: one table row per tool,
/// `row` choosing the columns.
fn oct_trace_table(
    seed: u64,
    headers: Vec<&str>,
    row: impl Fn(&ToolProfile, &ToolStats) -> Vec<String>,
) {
    let mut rng = SimRng::seed_from_u64(seed);
    let tools = oct_tools();
    let trace = generate_trace(&tools, 40, &mut rng);
    let stats = analyze(&trace);
    let mut table = Table::new(headers);
    for t in &tools {
        let s = stats.iter().find(|s| s.tool == t.name).expect("analysed");
        table.row(row(t, s));
    }
    table.print();
}

/// Figure 3.2 — OCT tools' read/write ratios.
pub fn fig3_2(_: &FigureOpts) {
    oct_trace_table(32, vec!["tool", "profile R/W", "measured R/W"], |t, s| {
        let measured = s.rw_ratio();
        let shown = if measured.is_infinite() {
            "inf (no writes observed)".to_string()
        } else {
            format!("{measured:.2}")
        };
        vec![t.name.to_string(), format!("{:.2}", t.rw_ratio), shown]
    });
    println!("\npaper: VEM 6000; other tools span 0.52 (atlas) to 170 (mosaico).");
}

/// Figure 3.3 — OCT tools' object I/O rate (logical I/Os per session
/// second).
pub fn fig3_3(_: &FigureOpts) {
    oct_trace_table(
        33,
        vec!["tool", "profile I/O per s", "measured I/O per s"],
        |t, s| {
            vec![
                t.name.to_string(),
                format!("{:.1}", t.io_rate_per_s),
                format!("{:.1}", s.io_rate()),
            ]
        },
    );
}

/// Figure 3.4 — OCT tool structure-density distribution (shares of
/// low/medium/high downward fan-out).
pub fn fig3_4(_: &FigureOpts) {
    oct_trace_table(
        34,
        vec!["tool", "low (0-3)", "med (4-10)", "high (>10)"],
        |t, s| {
            let mut cells = vec![t.name.to_string()];
            cells.extend(s.density_shares.iter().map(|share| format!("{share:.2}")));
            cells
        },
    );
    println!("\npaper: all tools except wolfe (and VEM) are dominated by low density.");
}

/// Print a corner sweep, then the paper's headline comparison at
/// hi10-100: how many times slower the `worse` column is than `better`.
fn print_with_headline(sweep: &Sweep, worse: &str, better: &str, paper_claim: &str) {
    sweep.print("response (s)");
    if let (Some(w), Some(b)) = (sweep.get("hi10-100", worse), sweep.get("hi10-100", better)) {
        println!(
            "\nhi10-100: {worse} / {better} = {:.2}× (paper: {paper_claim})",
            w.mean / b.mean
        );
    }
}

/// Figure 5.1 — clustering-effects analysis: five clustering policies
/// across the six workload corners (densities × rw 5/100), under LRU,
/// 1000-buffer-equivalent, no prefetch.
pub fn fig5_1(opts: &FigureOpts) {
    print_with_headline(
        &clustering_effect(opts, &WorkloadSpec::figure51_corners()),
        "No_Cluster",
        "No_limit",
        "≈3× — a 200% improvement",
    );
}

/// Table 5.1 — read/write-ratio break-even points where clustering
/// without I/O limitation starts beating No_Cluster, per density.
pub fn table5_1(opts: &FigureOpts) {
    let paper = [3.0, 3.6, 4.3];
    let mut table = Table::new(vec!["structure density", "paper", "measured"]);
    for (density, paper_value) in StructureDensity::ALL.into_iter().zip(paper) {
        let measured = match break_even_for(opts, density) {
            BreakEven::At(x) => format!("{x:.1}"),
            BreakEven::AlwaysNegative => "<1 (clustering always wins)".into(),
            BreakEven::AlwaysPositive => ">10 (clustering never wins)".into(),
        };
        table.row(vec![
            density.label().to_string(),
            format!("{paper_value:.1}"),
            measured,
        ]);
    }
    table.print();
}

/// Figure 5.5 — clustering effect on transaction-logging I/Os (rw = 5,
/// density sweep): before-image coalescing makes clustering cheaper to
/// log.
pub fn fig5_5(opts: &FigureOpts) {
    log_io_effect(opts).print("log I/Os per write txn");
    println!("\npaper: clustering reduces logging I/O at every density.");
}

/// Figure 5.9 — page-splitting effects: No_Splitting vs Linear_Split vs
/// NP_Split across the six workload corners, clustering without limit.
pub fn fig5_9(opts: &FigureOpts) {
    split_effect(opts, &WorkloadSpec::figure51_corners()).print("response (s)");
    println!("\npaper: differences are small; Linear_Split best at high density + high rw,");
    println!("No_Splitting best at low rw.");
}

/// Figure 5.10 — broken-arc cost of the greedy Linear_Split vs the exact
/// NP_Split partition, on random inheritance-dependency graphs per
/// density class.
pub fn fig5_10(_: &FigureOpts) {
    let mut table = Table::new(vec![
        "density class",
        "Linear_Split cost",
        "NP_Split cost",
        "gap",
    ]);
    for (label, lin, opt) in split_cost_gap(510, 200) {
        table.row(vec![
            label,
            format!("{lin:.2}"),
            format!("{opt:.2}"),
            format!("{:.1}%", 100.0 * (lin - opt) / opt.max(1e-9)),
        ]);
    }
    table.print();
    println!("\npaper: the gap is small, and shrinks at low density (few arcs).");
}

/// Figure 5.11 — buffering-effects analysis: the six reported replacement
/// × prefetch combinations across workloads, clustering without limit.
pub fn fig5_11(opts: &FigureOpts) {
    print_with_headline(
        &buffering_effect(opts, &WorkloadSpec::figure51_corners()),
        "LRU_no_p",
        "C_p_DB",
        "≈2.5× — a 150% improvement",
    );
}

/// Figures 5.12–5.14 — prefetching effect under one buffer replacement
/// policy.
pub fn prefetch_under(opts: &FigureOpts, replacement: ReplacementPolicy) {
    prefetch_effect(opts, replacement, &WorkloadSpec::figure51_corners()).print("response (s)");
}

/// Figure 6.1 — two-level factorial effect analysis of the eight control
/// parameters: |effect| ranking of main effects and two-factor
/// interactions.
pub fn fig6_1(opts: &FigureOpts) {
    let design = factorial_design();
    let ranked = design.ranked_effects(&factorial_responses(opts), 2);
    let mut table = Table::new(vec!["rank", "factor(s)", "|effect| (s)", "signed"]);
    for (i, e) in ranked.iter().take(15).enumerate() {
        table.row(vec![
            format!("{}", i + 1),
            e.label.clone(),
            format!("{:.4}", e.effect.abs()),
            format!("{:+.4}", e.effect),
        ]);
    }
    table.print();
    println!("\npaper: structure density and buffering policy dominate; page splitting ≈ 0.");
}

/// Figure 6.2 — interaction analysis: classify selected control-parameter
/// pairs as no / minor / major interactions from the factorial responses.
pub fn fig6_2(opts: &FigureOpts) {
    let design = factorial_design();
    let responses = factorial_responses(opts);
    // The pairs §6 singles out.
    let pairs = [
        (0usize, 5usize), // density × buffering (replacement)
        (1, 2),           // rw × clustering
        (1, 3),           // rw × split
        (0, 2),           // density × clustering
        (0, 3),           // density × split
        (2, 3),           // clustering × split
        (2, 5),           // clustering × buffering
        (0, 1),           // density × rw
        (1, 5),           // rw × buffering
    ];
    let names = design.factors();
    let mut table = Table::new(vec!["pair", "ll", "lh", "hl", "hh", "class"]);
    for (i, j) in pairs {
        let c = corners_from(&design, &responses, i, j);
        table.row(vec![
            format!("{}×{}", names[i], names[j]),
            format!("{:.3}", c.ll),
            format!("{:.3}", c.lh),
            format!("{:.3}", c.hl),
            format!("{:.3}", c.hh),
            c.classify(0.08).to_string(),
        ]);
    }
    table.print();
    println!("\npaper: no major (crossing) interactions; minor ones around density/rw");
    println!("with clustering and splitting; none between buffering and clustering.");
}
