//! Exhibits beyond the paper set: ablations of design points the paper
//! fixes or defers, extension experiments, and the fault sweep.

use crate::experiments::{run_items, run_jobs};
use crate::FigureOpts;
use semcluster::{
    buffering_study_base, clustering_study_base, static_layout, FaultConfig, SweepJob,
};
use semcluster_analysis::Table;
use semcluster_buffer::{AccessHint, PrefetchScope, ReplacementPolicy};
use semcluster_clustering::{
    broken_arc_weight, plan_placement_in, plan_recluster_in, repaired_share, AllResident,
    ClusteringPolicy, HintPolicy, PlacementTarget, ScoreScratch, WeightModel,
};
use semcluster_sim::SimRng;
use semcluster_storage::StorageManager;
use semcluster_vdm::{
    derive_version, CopyVsRefModel, ObjectId, ObjectName, RelKind, SyntheticDbSpec,
};
use semcluster_workload::{PhaseSchedule, StructureDensity, WorkloadSpec};

/// Ablation: magnitude of the context-sensitive relationship boost
/// (DESIGN.md §5). Too small degenerates to LRU; too large pins stale
/// relationship neighbourhoods.
pub fn ablate_boost(opts: &FigureOpts) {
    let boosts = [1u64, 8, 32, 128, 512, 4096];
    let jobs = boosts
        .iter()
        .map(|&boost| {
            let mut cfg = opts.apply(buffering_study_base());
            cfg.workload = WorkloadSpec::new(StructureDensity::High10, 100.0);
            cfg.replacement = ReplacementPolicy::ContextSensitive;
            cfg.prefetch = PrefetchScope::None;
            cfg.context_boost_ticks = Some(boost);
            SweepJob::new(format!("boost {boost}"), cfg, opts.reps)
        })
        .collect();
    let results = run_jobs(opts, jobs);
    let mut table = Table::new(vec!["boost (ticks)", "response (s)", "hit ratio"]);
    for (boost, r) in boosts.iter().zip(&results) {
        table.row(vec![
            boost.to_string(),
            format!("{:.3}±{:.3}", r.response.mean, r.response.ci95),
            format!("{:.3}", r.hit_ratio.mean),
        ]);
    }
    table.print();
}

/// Ablation: buffer pool size (Table 4.1 parameter L — the study the
/// paper defers to \[CHAN89\]).
pub fn ablate_buffer_size(opts: &FigureOpts) {
    let frame_levels = [25usize, 50, 100, 200, 400, 800];
    let policies = [ReplacementPolicy::Lru, ReplacementPolicy::ContextSensitive];
    // Row-major grid: one job per (frames, replacement) pair.
    let mut jobs = Vec::new();
    for &frames in &frame_levels {
        for replacement in policies {
            let mut cfg = opts.apply(buffering_study_base());
            cfg.workload = WorkloadSpec::new(StructureDensity::Med5, 100.0);
            cfg.replacement = replacement;
            cfg.buffer_pages = frames;
            jobs.push(SweepJob::new(
                format!("{frames} frames / {replacement:?}"),
                cfg,
                opts.reps,
            ));
        }
    }
    let results = run_jobs(opts, jobs);
    let mut table = Table::new(vec![
        "frames",
        "LRU resp (s)",
        "Ctx resp (s)",
        "LRU hits",
        "Ctx hits",
    ]);
    for (row, chunk) in results.chunks(policies.len()).enumerate() {
        table.row(vec![
            frame_levels[row].to_string(),
            format!("{:.3}", chunk[0].response.mean),
            format!("{:.3}", chunk[1].response.mean),
            format!("{:.2}", chunk[0].hit_ratio.mean),
            format!("{:.2}", chunk[1].hit_ratio.mean),
        ]);
    }
    table.print();
}

/// Ablation: the copy-vs-reference cost model for inherited attributes —
/// how the traversal-cost weight shifts the decision mix and the
/// resulting inheritance-arc count the clusterer can exploit.
pub fn ablate_copyref(_: &FigureOpts) {
    let mut table = Table::new(vec![
        "traversal weight",
        "copied attrs",
        "by-reference attrs",
        "inheritance edges",
        "mean derived size (B)",
    ]);
    for weight in [0.1, 0.5, 1.0, 2.0, 8.0, 32.0] {
        let (mut db, _) = SyntheticDbSpec {
            modules: 8,
            version_prob: 0.0,
            seed: 99,
            ..SyntheticDbSpec::default()
        }
        .build();
        let model = CopyVsRefModel {
            traversal_per_read: weight,
            ..CopyVsRefModel::default()
        };
        let parents: Vec<ObjectId> = db.objects().map(|o| o.id).step_by(7).take(60).collect();
        let mut copied = 0usize;
        let mut referenced = 0usize;
        let mut bytes = 0u64;
        let mut derived_count = 0u64;
        for p in parents {
            let d = derive_version(&mut db, p, &model).unwrap();
            copied += d.copied.count_ones() as usize;
            referenced += d.referenced.count_ones() as usize;
            bytes += u64::from(db.get(d.id).map_or(0, |o| o.size_bytes()));
            derived_count += 1;
        }
        let edges = db
            .graph()
            .edges()
            .filter(|(k, _, _)| *k == RelKind::Inheritance)
            .count();
        table.row(vec![
            format!("{weight}"),
            copied.to_string(),
            referenced.to_string(),
            edges.to_string(),
            format!("{:.0}", bytes as f64 / derived_count as f64),
        ]);
    }
    table.print();
    println!("\nhigher traversal cost pushes the model toward copying: fewer");
    println!("inheritance arcs for the clusterer, larger derived objects.");
}

/// Extension exhibit (\[CHAN89\] study): effectiveness of user hints. A
/// hint matching the application's dominant access pattern should help
/// placement; a wrong hint should hurt it.
pub fn ablate_hints(opts: &FigureOpts) {
    let cases: [(&str, HintPolicy, AccessHint); 3] = [
        ("No_hint", HintPolicy::NoHints, AccessHint::None),
        (
            "User_hint (matched: by-configuration)",
            HintPolicy::UserHints,
            AccessHint::ByConfiguration,
        ),
        (
            "User_hint (mismatched: by-version)",
            HintPolicy::UserHints,
            AccessHint::ByVersionHistory,
        ),
    ];
    let jobs = cases
        .iter()
        .map(|&(label, policy, hint)| {
            let mut cfg = opts.apply(clustering_study_base());
            cfg.workload = WorkloadSpec::new(StructureDensity::Med5, 20.0);
            cfg.clustering = ClusteringPolicy::NoLimit;
            cfg.hints = policy;
            cfg.session_hint = hint;
            SweepJob::new(label, cfg, opts.reps)
        })
        .collect();
    let results = run_jobs(opts, jobs);
    let mut table = Table::new(vec!["hint policy", "response (s)"]);
    for ((label, _, _), result) in cases.iter().zip(&results) {
        table.row(vec![
            label.to_string(),
            format!("{:.3}±{:.3}", result.response.mean, result.response.ci95),
        ]);
    }
    table.print();
    println!("\nthe workload navigates configurations; amplifying configuration arcs");
    println!("in the placement affinity helps, amplifying version arcs misplaces.");
}

/// Ablation: sweep the candidate-search I/O limit from 0 to unbounded —
/// the continuous version of Figures 5.2–5.4's discrete levels.
pub fn ablate_io_limit(opts: &FigureOpts) {
    let limits: [(String, ClusteringPolicy); 7] = [
        ("within-buffer (0)".into(), ClusteringPolicy::WithinBuffer),
        ("1".into(), ClusteringPolicy::IoLimit(1)),
        ("2".into(), ClusteringPolicy::IoLimit(2)),
        ("4".into(), ClusteringPolicy::IoLimit(4)),
        ("8".into(), ClusteringPolicy::IoLimit(8)),
        ("16".into(), ClusteringPolicy::IoLimit(16)),
        ("unbounded".into(), ClusteringPolicy::NoLimit),
    ];
    let rws = [5.0, 100.0];
    let mut jobs = Vec::new();
    for (label, policy) in &limits {
        for rw in rws {
            let mut cfg = opts.apply(clustering_study_base());
            cfg.workload = WorkloadSpec::new(StructureDensity::Med5, rw);
            cfg.clustering = *policy;
            jobs.push(SweepJob::new(
                format!("limit {label} rw={rw}"),
                cfg,
                opts.reps,
            ));
        }
    }
    let results = run_jobs(opts, jobs);
    let mut table = Table::new(vec!["I/O limit", "rw=5 resp (s)", "rw=100 resp (s)"]);
    for ((label, _), chunk) in limits.iter().zip(results.chunks(rws.len())) {
        table.row(vec![
            label.clone(),
            format!("{:.3}", chunk[0].response.mean),
            format!("{:.3}", chunk[1].response.mean),
        ]);
    }
    table.print();
    println!("\nexpected: a small limit captures nearly all of the benefit — the");
    println!("paper's conclusion that \"a low limit on I/O appears to be acceptable\".");
}

/// Ablation: circular log-buffer size vs physical log I/O (the §4
/// "circular in-memory log buffer" design point).
pub fn ablate_logbuf(opts: &FigureOpts) {
    let sizes = [1u32, 4, 16, 64, 256];
    let jobs = sizes
        .iter()
        .map(|&kb| {
            let mut cfg = opts.apply(clustering_study_base());
            cfg.workload = WorkloadSpec::new(StructureDensity::Med5, 5.0);
            cfg.log.buffer_bytes = kb * 1024;
            SweepJob::new(format!("log buffer {kb} KB"), cfg, opts.reps)
        })
        .collect();
    let items = run_items(opts, jobs);
    let mut table = Table::new(vec![
        "log buffer",
        "log I/Os",
        "buffer flushes",
        "response (s)",
    ]);
    for (kb, item) in sizes.iter().zip(&items) {
        let r = item.result.as_ref().expect("run_items panics on a failure");
        let flushes = item.obs.metrics.counter("wal.flush.full") as f64 / r.reports.len() as f64;
        table.row(vec![
            format!("{kb} KB"),
            format!("{:.0}", r.log_ios.mean),
            format!("{flushes:.0}"),
            format!("{:.3}", r.response.mean),
        ]);
    }
    table.print();
}

/// Extension exhibit: adaptive clustering under the MOSAICO phase cycle.
///
/// §3.3 shows one application's read/write ratio swinging 0.52 → 170
/// across phases, and §5.1 remarks that selecting the clustering
/// mechanism by observed ratio "gets the best response time of both".
/// This experiment runs that cycle and compares fixed policies with the
/// run-time adaptive policy.
pub fn ext_adaptive(opts: &FigureOpts) {
    let policies = [
        ClusteringPolicy::NoCluster,
        ClusteringPolicy::IoLimit(2),
        ClusteringPolicy::NoLimit,
        ClusteringPolicy::Adaptive,
    ];
    let jobs = policies
        .iter()
        .map(|&policy| {
            let mut cfg = opts.apply(clustering_study_base());
            cfg.clustering = policy;
            cfg.phases = Some(PhaseSchedule::mosaico(StructureDensity::Med5, 100));
            SweepJob::new(policy.to_string(), cfg, opts.reps)
        })
        .collect();
    let results = run_jobs(opts, jobs);
    let mut table = Table::new(vec!["policy", "response (s)", "search I/Os"]);
    for (policy, result) in policies.iter().zip(&results) {
        let search: f64 = result
            .reports
            .iter()
            .map(|r| r.io.cluster_search_ios as f64)
            .sum::<f64>()
            / result.reports.len() as f64;
        table.row(vec![
            policy.to_string(),
            format!("{:.3}±{:.3}", result.response.mean, result.response.ci95),
            format!("{search:.0}"),
        ]);
    }
    table.print();
    println!("\nexpected: Adaptive tracks the better fixed policy in every phase,");
    println!("spending bounded search I/O in write-heavy phases and unbounded in");
    println!("read-heavy ones.");
}

/// Extension exhibit: static (offline) clustering vs structure drift.
///
/// §2.1: static clustering needs a quiesced system, and a static layout
/// decays as design structures keep changing — the motivation for
/// run-time reclustering. We measure the broken-arc weight of a
/// statically clustered layout as design evolution appends new
/// components, with and without run-time reclustering.
pub fn ext_static_drift(_: &FigureOpts) {
    let (mut db, _) = SyntheticDbSpec {
        modules: 40,
        depth: 3,
        fanout: (2, 4),
        seed: 77,
        ..SyntheticDbSpec::default()
    }
    .build();
    let model = WeightModel::no_hints();

    // Start both variants from the same statically clustered layout.
    let mut scattered = StorageManager::new(4096);
    for obj in db.objects() {
        scattered.append(obj.id, obj.size_bytes()).unwrap();
    }
    let initial = static_layout(&db, &model, scattered.page_bytes());
    let before = broken_arc_weight(&db, &scattered, &model);
    let after = broken_arc_weight(&db, &initial, &model);
    println!(
        "offline reorganisation: broken weight {before:.0} → {after:.0} ({:.0}% repaired)\n",
        repaired_share(before, after) * 100.0
    );

    let mut table = Table::new(vec![
        "mutations",
        "static only (broken wt)",
        "with run-time reclustering",
    ]);
    // One evolving design database, two layouts of it.
    let mut static_store = initial.clone();
    let mut dynamic_store = initial;
    let mut rng = SimRng::seed_from_u64(9);
    let mut scratch = ScoreScratch::new();
    let ty = db.lattice().id_of("layout").unwrap();
    let steps = 6;
    let per_step = 120;
    for step in 0..=steps {
        table.row(vec![
            format!("{}", step * per_step),
            format!("{:.0}", broken_arc_weight(&db, &static_store, &model)),
            format!("{:.0}", broken_arc_weight(&db, &dynamic_store, &model)),
        ]);
        if step == steps {
            break;
        }
        for i in 0..per_step {
            let anchor = ObjectId(rng.below(db.object_count() as u64) as u32);
            let name = ObjectName::new(format!("d{step}x{i}"), 1, "layout");
            let id = db.create_object(name, ty, 128).unwrap();
            db.relate(RelKind::Configuration, anchor, id).unwrap();
            let size = db.get(id).unwrap().size_bytes();
            // Static variant: plain append (no run-time clustering).
            static_store.append(id, size).unwrap();
            // Dynamic variant: clustered placement + reclustering.
            let plan = plan_placement_in(
                &db,
                &dynamic_store,
                &AllResident,
                ClusteringPolicy::NoLimit,
                &model,
                id,
                size,
                &mut scratch,
            );
            match plan.target {
                PlacementTarget::Existing(p) => {
                    dynamic_store.place(id, size, p).unwrap();
                }
                PlacementTarget::Append => {
                    dynamic_store.append(id, size).unwrap();
                }
            }
            scratch.put_examined(plan.examined);
            if let Some(mv) = plan_recluster_in(
                &db,
                &dynamic_store,
                &AllResident,
                ClusteringPolicy::NoLimit,
                &model,
                anchor,
                1.0,
                &mut scratch,
            ) {
                let _ = dynamic_store.move_object(anchor, mv.to);
                scratch.put_examined(mv.examined);
            }
        }
    }
    table.print();
    println!("\nexpected: the static-only layout decays steadily; run-time");
    println!("reclustering holds broken weight near the reorganised optimum.");
}

/// Fault sweep: mean response time versus injected fault intensity,
/// per clustering policy. Shows how the retry/backoff path and graceful
/// clustering degradation absorb disk faults — clustered layouts keep
/// their advantage under mild faults and converge toward the
/// no-clustering baseline as degradation suspends the candidate search.
pub fn fault_sweep(opts: &FigureOpts) {
    let presets = ["none", "smoke", "degraded", "stress"];
    let policies: [(&str, ClusteringPolicy); 3] = [
        ("no clustering", ClusteringPolicy::NoCluster),
        ("unbounded", ClusteringPolicy::NoLimit),
        ("adaptive", ClusteringPolicy::Adaptive),
    ];
    let mut jobs = Vec::new();
    for (label, policy) in &policies {
        for preset in presets {
            let mut cfg = opts.apply(clustering_study_base());
            cfg.clustering = *policy;
            cfg.faults = FaultConfig::preset(preset).expect("preset names are the fixed set above");
            jobs.push(SweepJob::new(
                format!("{label} faults={preset}"),
                cfg,
                opts.reps,
            ));
        }
    }
    let results = run_jobs(opts, jobs);
    let mut table = Table::new(vec![
        "clustering",
        "none (s)",
        "smoke (s)",
        "degraded (s)",
        "stress (s)",
        "retries@stress",
        "aborts@stress",
    ]);
    for ((label, _), chunk) in policies.iter().zip(results.chunks(presets.len())) {
        let stress = &chunk[presets.len() - 1].reports[0];
        table.row(vec![
            label.to_string(),
            format!("{:.3}", chunk[0].response.mean),
            format!("{:.3}", chunk[1].response.mean),
            format!("{:.3}", chunk[2].response.mean),
            format!("{:.3}", chunk[3].response.mean),
            stress.faults.retries.to_string(),
            stress.faults.txn_aborts.to_string(),
        ]);
    }
    table.print();
    println!("\nexpected: responses rise with fault intensity; retry/backoff absorbs");
    println!("transient errors, and under heavy faults degradation narrows the gap");
    println!("between clustered and unclustered layouts (search is suspended).");
}
