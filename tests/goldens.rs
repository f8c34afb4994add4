//! Tier-1 holds every committed golden: each suite in the CLI's
//! registry is re-rendered and byte-compared against its file under
//! `goldens/`, serially and on four workers, so a PR that drifts any of
//! them fails `cargo test` — not just the CI job that runs the CLI.

use semcluster_cli::golden::GOLDEN_SUITES;
use semcluster_cli::{dispatch, Args};

/// Suites `cargo test` cannot hold: `profile` pins allocation counts
/// that only exist under the CLI binary's `CountingAlloc`, and `paper`
/// is the 500 MB configuration (seconds in release; CI's `full-scale`
/// job runs it under a wall-clock budget).
const CLI_ONLY: &[&str] = &["profile", "paper"];

#[test]
fn every_committed_golden_verifies_at_any_jobs_count() {
    let mut checked = 0;
    for suite in GOLDEN_SUITES {
        if CLI_ONLY.contains(&suite.name) {
            continue;
        }
        for jobs in ["1", "4"] {
            let args = Args::parse(
                ["golden", "--suite", suite.name, "--jobs", jobs]
                    .into_iter()
                    .map(String::from),
            )
            .expect("parse args");
            let out = dispatch(&args)
                .unwrap_or_else(|e| panic!("suite {} at --jobs {jobs}: {e}", suite.name));
            assert!(out.contains("golden OK"), "unexpected output: {out}");
        }
        checked += 1;
    }
    assert_eq!(checked, GOLDEN_SUITES.len() - CLI_ONLY.len());
}
