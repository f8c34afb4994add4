//! The exhibit registry: one entry per table, figure, ablation and
//! extension exhibit, each a banner plus a function of the shared
//! [`FigureOpts`]. The `figures` binary is a thin driver over
//! [`PAPER_SET`] and [`EXTRAS`]; nothing else knows the list.

mod extra;
mod paper;

use crate::experiments::{clustering_effect, density_workloads, rw_workloads};
use crate::FigureOpts;
use semcluster_buffer::ReplacementPolicy;
use semcluster_workload::StructureDensity;

/// One reproducible exhibit.
pub struct Exhibit {
    /// Name on the `figures` command line.
    pub name: &'static str,
    /// Banner title ("Figure 5.1", "Ablation", …).
    pub title: &'static str,
    /// Banner caption.
    pub caption: &'static str,
    /// Print the exhibit's body to stdout.
    pub body: fn(&FigureOpts),
}

impl Exhibit {
    /// Print the banner, then the body.
    pub fn print(&self, opts: &FigureOpts) {
        println!("================================================================");
        println!("{} — {}", self.title, self.caption);
        println!("================================================================");
        (self.body)(opts);
    }
}

/// Every exhibit: the paper set, then the extras.
pub fn all() -> impl Iterator<Item = &'static Exhibit> {
    PAPER_SET.iter().chain(EXTRAS)
}

/// Look an exhibit up by its command-line name.
pub fn find(name: &str) -> Option<&'static Exhibit> {
    all().find(|e| e.name == name)
}

/// The paper set — Figures 3.2–6.2 and Tables 4.1 / 5.1 — in the
/// paper's order, which is the order `figures all` prints it.
pub static PAPER_SET: &[Exhibit] = &[
    Exhibit {
        name: "table4_1",
        title: "Table 4.1",
        caption: "simulation parameters",
        body: paper::table4_1,
    },
    Exhibit {
        name: "fig3_2",
        title: "Figure 3.2",
        caption: "OCT tools' read/write ratio",
        body: paper::fig3_2,
    },
    Exhibit {
        name: "fig3_3",
        title: "Figure 3.3",
        caption: "OCT tools' object I/O rate",
        body: paper::fig3_3,
    },
    Exhibit {
        name: "fig3_4",
        title: "Figure 3.4",
        caption: "OCT tool structure-density distribution",
        body: paper::fig3_4,
    },
    Exhibit {
        name: "fig5_1",
        title: "Figure 5.1",
        caption: "clustering effects (LRU, no prefetch) — mean response time (s)",
        body: paper::fig5_1,
    },
    Exhibit {
        name: "table5_1",
        title: "Table 5.1",
        caption: "read/write-ratio break-even points",
        body: paper::table5_1,
    },
    Exhibit {
        name: "fig5_2",
        title: "Figure 5.2",
        caption: "clustering effect at R/W ratio 5 — mean response time (s)",
        body: |o| clustering_effect(o, &density_workloads(5.0)).print("response (s)"),
    },
    Exhibit {
        name: "fig5_3",
        title: "Figure 5.3",
        caption: "clustering effect at R/W ratio 10 — mean response time (s)",
        body: |o| clustering_effect(o, &density_workloads(10.0)).print("response (s)"),
    },
    Exhibit {
        name: "fig5_4",
        title: "Figure 5.4",
        caption: "clustering effect at R/W ratio 100 — mean response time (s)",
        body: |o| clustering_effect(o, &density_workloads(100.0)).print("response (s)"),
    },
    Exhibit {
        name: "fig5_5",
        title: "Figure 5.5",
        caption: "log I/Os per write transaction, No_Cluster vs No_limit (rw=5)",
        body: paper::fig5_5,
    },
    Exhibit {
        name: "fig5_6",
        title: "Figure 5.6",
        caption: "clustering effect at low density — mean response time (s)",
        body: |o| clustering_effect(o, &rw_workloads(StructureDensity::Low3)).print("response (s)"),
    },
    Exhibit {
        name: "fig5_7",
        title: "Figure 5.7",
        caption: "clustering effect at med density — mean response time (s)",
        body: |o| clustering_effect(o, &rw_workloads(StructureDensity::Med5)).print("response (s)"),
    },
    Exhibit {
        name: "fig5_8",
        title: "Figure 5.8",
        caption: "clustering effect at high density — mean response time (s)",
        body: |o| {
            clustering_effect(o, &rw_workloads(StructureDensity::High10)).print("response (s)")
        },
    },
    Exhibit {
        name: "fig5_9",
        title: "Figure 5.9",
        caption: "page-splitting effects — mean response time (s)",
        body: paper::fig5_9,
    },
    Exhibit {
        name: "fig5_10",
        title: "Figure 5.10",
        caption: "Linear vs NP split partition cost",
        body: paper::fig5_10,
    },
    Exhibit {
        name: "fig5_11",
        title: "Figure 5.11",
        caption: "buffering effects — mean response time (s)",
        body: paper::fig5_11,
    },
    Exhibit {
        name: "fig5_12",
        title: "Figure 5.12",
        caption: "prefetching effect under Context-sensitive replacement — response (s)",
        body: |o| paper::prefetch_under(o, ReplacementPolicy::ContextSensitive),
    },
    Exhibit {
        name: "fig5_13",
        title: "Figure 5.13",
        caption: "prefetching effect under LRU replacement — response (s)",
        body: |o| paper::prefetch_under(o, ReplacementPolicy::Lru),
    },
    Exhibit {
        name: "fig5_14",
        title: "Figure 5.14",
        caption: "prefetching effect under Random replacement — response (s)",
        body: |o| paper::prefetch_under(o, ReplacementPolicy::Random),
    },
    Exhibit {
        name: "fig6_1",
        title: "Figure 6.1",
        caption: "two-level factorial effect analysis (2^8 runs)",
        body: paper::fig6_1,
    },
    Exhibit {
        name: "fig6_2",
        title: "Figure 6.2",
        caption: "interaction analysis of control-parameter pairs",
        body: paper::fig6_2,
    },
];

/// Ablations, extensions and the fault sweep: reachable by name only.
pub static EXTRAS: &[Exhibit] = &[
    Exhibit {
        name: "ablate_boost",
        title: "Ablation",
        caption: "context-sensitive boost magnitude (hi10-100)",
        body: extra::ablate_boost,
    },
    Exhibit {
        name: "ablate_buffer_size",
        title: "Ablation",
        caption: "buffer pool size under LRU vs context-sensitive (med5-100)",
        body: extra::ablate_buffer_size,
    },
    Exhibit {
        name: "ablate_copyref",
        title: "Ablation",
        caption: "copy-vs-reference traversal weight",
        body: extra::ablate_copyref,
    },
    Exhibit {
        name: "ablate_hints",
        title: "Extension",
        caption: "user-hint effectiveness (configuration-heavy workload)",
        body: extra::ablate_hints,
    },
    Exhibit {
        name: "ablate_io_limit",
        title: "Ablation",
        caption: "candidate-search I/O limit sweep (med5, rw 5 and 100)",
        body: extra::ablate_io_limit,
    },
    Exhibit {
        name: "ablate_logbuf",
        title: "Ablation",
        caption: "circular log-buffer size (med5-5)",
        body: extra::ablate_logbuf,
    },
    Exhibit {
        name: "ext_adaptive",
        title: "Extension",
        caption: "adaptive clustering across MOSAICO's phases (rw 0.52 → 170)",
        body: extra::ext_adaptive,
    },
    Exhibit {
        name: "ext_static_drift",
        title: "Extension",
        caption: "static layout drift vs run-time reclustering",
        body: extra::ext_static_drift,
    },
    Exhibit {
        name: "fault_sweep",
        title: "Fault sweep",
        caption: "response time vs fault preset, per clustering policy",
        body: extra::fault_sweep,
    },
];
