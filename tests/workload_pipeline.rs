//! Cross-crate tests of the workload layer: OCT trace reconstruction and
//! the transaction generator against a synthetic database.

use semcluster_sim::SimRng;
use semcluster_vdm::{SyntheticDbSpec, WalkScratch};
use semcluster_workload::{
    analyze, generate_trace, oct_tools, Generator, QueryKind, StructureDensity, TxnOp, WorkloadSpec,
};

#[test]
fn trace_reconstruction_matches_all_profile_dimensions() {
    let tools = oct_tools();
    let mut rng = SimRng::seed_from_u64(99);
    let trace = generate_trace(&tools, 60, &mut rng);
    assert_eq!(trace.len(), tools.len() * 60);
    let stats = analyze(&trace);
    for profile in &tools {
        let s = stats.iter().find(|s| s.tool == profile.name).unwrap();
        assert_eq!(s.invocations, 60);
        // I/O rate within 10 %.
        let rate_err = (s.io_rate() - profile.io_rate_per_s).abs() / profile.io_rate_per_s;
        assert!(rate_err < 0.1, "{}: io rate {rate_err:.3}", profile.name);
        // Density shares within 5 points.
        for (m, e) in s.density_shares.iter().zip(&profile.density_mix) {
            assert!((m - e).abs() < 0.05, "{}: density {m} vs {e}", profile.name);
        }
        // R/W within 25 % for estimable tools.
        if profile.rw_ratio <= 200.0 {
            let err = (s.rw_ratio() - profile.rw_ratio).abs() / profile.rw_ratio;
            assert!(err < 0.25, "{}: rw {err:.3}", profile.name);
        }
    }
}

#[test]
fn oct_rw_ordering_matches_figure_3_2() {
    // The relative ordering of the tools' R/W ratios is the figure's
    // content; verify the measured ordering matches the profiles'.
    let tools = oct_tools();
    let mut rng = SimRng::seed_from_u64(7);
    let trace = generate_trace(&tools, 80, &mut rng);
    let stats = analyze(&trace);
    let measured = |name: &str| {
        stats
            .iter()
            .find(|s| s.tool == name)
            .map(|s| s.rw_ratio())
            .unwrap()
    };
    assert!(measured("vem") > measured("mosaico"));
    assert!(measured("mosaico") > measured("misII"));
    assert!(measured("misII") > measured("sparcs"));
    assert!(measured("sparcs") > measured("cds"));
    assert!(measured("cds") > measured("atlas"));
    assert!(measured("atlas") < 1.0, "atlas writes more than it reads");
}

#[test]
fn generated_transactions_are_executable_against_db() {
    let (db, _) = SyntheticDbSpec::default().build();
    let spec = WorkloadSpec::new(StructureDensity::Med5, 5.0);
    let mut rng = SimRng::seed_from_u64(3);
    let mut generator = Generator::new(spec, None, 1);
    generator.start_session(
        0,
        &db,
        &mut rng,
        &mut WalkScratch::default(),
        &mut Vec::new(),
    );
    let mut reads = 0usize;
    let mut writes = 0usize;
    for completed in 0..2000 {
        let txn = generator.next_transaction(0, completed, &db, &mut rng);
        assert!(!txn.ops.is_empty());
        if txn.is_read() {
            reads += 1;
            assert_eq!(txn.ops.len(), 1);
        } else {
            writes += 1;
        }
        for op in &txn.ops {
            match *op {
                TxnOp::Read { root, .. } => {
                    assert!(root.index() < db.object_count());
                }
                TxnOp::Create { anchor, .. } => {
                    assert!(anchor.index() < db.object_count());
                }
                TxnOp::Update { target } | TxnOp::Delete { target } => {
                    assert!(target.index() < db.object_count());
                }
            }
        }
    }
    let ratio = reads as f64 / writes as f64;
    assert!((3.5..7.0).contains(&ratio), "rw ratio drifted: {ratio:.2}");
}

#[test]
fn query_taxonomy_is_complete() {
    // The six §4.1 read query types are reachable from the public API,
    // in paper order; type 7 (insert / delete / update) is the write
    // ops `TxnOp::{Create, Update, Delete}`.
    let all = [
        QueryKind::SimpleLookup,
        QueryKind::ComponentRetrieval,
        QueryKind::CompositeRetrieval,
        QueryKind::DescendantRetrieval,
        QueryKind::AncestorRetrieval,
        QueryKind::CorrespondentRetrieval,
    ];
    assert_eq!(QueryKind::READS, all);
}
