//! The exhibit registry and its one driver.

use semcluster_bench::exhibits::{all, find, EXTRAS, PAPER_SET};
use semcluster_bench::FigureOpts;
use std::collections::BTreeSet;
use std::process::Command;

fn figures() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_figures"));
    cmd.env("SEMCLUSTER_FAST", "1")
        .env_remove("SEMCLUSTER_REPS");
    cmd
}

#[test]
fn names_are_unique() {
    let names: BTreeSet<&str> = all().map(|e| e.name).collect();
    assert_eq!(names.len(), PAPER_SET.len() + EXTRAS.len());
    assert!(find("all").is_none() && find("list").is_none());
}

#[test]
fn paper_set_is_the_paper_order() {
    let order: Vec<&str> = PAPER_SET.iter().map(|e| e.name).collect();
    assert_eq!(
        order,
        [
            "table4_1", "fig3_2", "fig3_3", "fig3_4", "fig5_1", "table5_1", "fig5_2", "fig5_3",
            "fig5_4", "fig5_5", "fig5_6", "fig5_7", "fig5_8", "fig5_9", "fig5_10", "fig5_11",
            "fig5_12", "fig5_13", "fig5_14", "fig6_1", "fig6_2",
        ]
    );
}

#[test]
fn list_prints_exactly_the_registry() {
    let out = figures().arg("list").output().unwrap();
    assert!(out.status.success());
    let listed = String::from_utf8(out.stdout).unwrap();
    let expected: Vec<String> = [("paper", PAPER_SET), ("extra", EXTRAS)]
        .into_iter()
        .flat_map(|(set, exhibits)| {
            exhibits
                .iter()
                .map(move |e| format!("{} {set} {} — {}", e.name, e.title, e.caption))
        })
        .collect();
    let squeezed: Vec<String> = listed
        .lines()
        .map(|l| l.split_whitespace().collect::<Vec<_>>().join(" "))
        .collect();
    assert_eq!(squeezed, expected);
}

#[test]
fn unknown_names_and_flags_are_rejected() {
    for args in [&["fig9_9"][..], &["fig5_10", "--frobnicate"], &[]] {
        let out = figures().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} must not start printing");
    }
}

#[test]
fn cheap_exhibits_run_in_process() {
    let opts = FigureOpts {
        reps: 1,
        database_bytes: 4 * 1024 * 1024,
        measured_txns: 500,
        warmup_txns: 150,
        seed: 42,
        verbose: false,
        jobs: 1,
    };
    for name in ["table4_1", "fig5_10"] {
        find(name).unwrap().print(&opts);
    }
}

#[test]
fn figures_6_1_and_6_2_share_one_sweep_and_leave_no_file() {
    let tmp = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("exhibits-factorial-tmp");
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).unwrap();
    let out = figures()
        .args(["fig6_1", "fig6_2", "--jobs", "2"])
        .env("TMPDIR", &tmp)
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("Figure 6.1 — ") && stdout.contains("Figure 6.2 — "));
    let stderr = String::from_utf8(out.stderr).unwrap();
    let sweeps = stderr.lines().filter(|l| l.starts_with("sweep: ")).count();
    assert_eq!(sweeps, 1, "the 2^8 sweep must run exactly once:\n{stderr}");
    assert!(stderr.contains("sweep: 256 runs"));
    assert_eq!(std::fs::read_dir(&tmp).unwrap().count(), 0);
    std::fs::remove_dir_all(&tmp).unwrap();
}

/// `ext_static_drift` ignores `FigureOpts`, so its whole stdout is fixed:
/// the structure-order layout of a 40-module database, then that layout
/// drifting under appends with and without run-time reclustering.
#[test]
fn ext_static_drift_output_is_pinned() {
    let out = figures().arg("ext_static_drift").output().unwrap();
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        "================================================================\n\
         Extension — static layout drift vs run-time reclustering\n\
         ================================================================\n\
         offline reorganisation: broken weight 12580 → 11009 (12% repaired)\n\
         \n\
         mutations  static only (broken wt)  with run-time reclustering\n\
         --------------------------------------------------------------\n\
         0          11009                    11009\n\
         120        11485                    11090\n\
         240        11961                    11186\n\
         360        12441                    11378\n\
         480        12921                    11574\n\
         600        13401                    11778\n\
         720        13881                    11924\n\
         \n\
         expected: the static-only layout decays steadily; run-time\n\
         reclustering holds broken weight near the reorganised optimum.\n"
    );
}
