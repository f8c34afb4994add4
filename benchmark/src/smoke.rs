//! Every workload at 1/100 size, timed and traced: what comes out must
//! be exactly what `BENCHMARK.json` declares, with every check passing.

use crate::host;
use crate::json::Json;
use crate::workloads::{RunArgs, WORKLOADS};
use std::collections::BTreeMap;

/// `name → unit` of one metric list in `BENCHMARK.json`.
fn declared(doc: &Json, list: &str) -> BTreeMap<String, String> {
    doc.get(list)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// `name → unit` of the metrics in one printed result line.
fn emitted(line: &str) -> BTreeMap<String, String> {
    let result = Json::parse(line).expect("result line is JSON");
    let metrics = result.get("metrics").and_then(Json::as_obj).unwrap();
    metrics
        .iter()
        .map(|(name, m)| {
            assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
            (
                name.clone(),
                m.get("unit").and_then(Json::as_str).unwrap().to_string(),
            )
        })
        .collect()
}

#[test]
fn every_workload_emits_exactly_what_benchmark_json_declares() {
    let path = host::bench_dir().join("..").join("BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let end_to_end = declared(&doc, "end_to_end");
    let per_layer = declared(&doc, "per_layer");
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(names, WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());

    let args = RunArgs {
        seed: 1989,
        seconds: 0.2,
        scale: 0.01,
    };
    for w in WORKLOADS {
        for (trace, expect) in [(false, &end_to_end), (true, &per_layer)] {
            let result = crate::measure(w, &args, trace)
                .unwrap_or_else(|e| panic!("{} trace={trace}: {e}", w.name));
            assert!(
                result.correct,
                "{} trace={trace}: {:?}",
                w.name, result.problems
            );
            assert_eq!(result.failed, 0, "{} trace={trace}", w.name);
            assert!(result.attempted > 0);
            assert_eq!(
                &emitted(&result.to_json_line()),
                expect,
                "{} trace={trace}",
                w.name
            );
            if !trace {
                for name in expect.keys() {
                    assert!(result.metrics.get(name) > 0.0, "{}: {name} is zero", w.name);
                }
            }
        }
        let trace_file = host::out_dir().join(format!("trace-{}.json", w.name));
        let trace = Json::parse(&std::fs::read_to_string(trace_file).unwrap()).unwrap();
        assert!(!trace
            .get("spans")
            .and_then(Json::as_arr)
            .unwrap()
            .is_empty());
    }
    // Scratch stores are removed when their checks pass.
    let leftovers = std::fs::read_dir(host::out_dir().join("scratch"))
        .map(|d| d.count())
        .unwrap_or(0);
    assert_eq!(leftovers, 0, "scratch directories left behind");
}
