//! The whole ledger in one command — every workload, timed then traced,
//! each in a child process of its own — and `--check-agree`, which
//! holds two such result sets against the bounds in `BENCHMARK.json`.

use crate::host;
use crate::json::{quote, Json};
use crate::stats::{breaches, valid_name, worsening, Better};
use crate::workloads::WORKLOADS;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

/// Run one workload in a child process and parse its result line.
fn run_child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or("");
    // A failed check still prints its result line (and exits 1); only a
    // run that produced no result at all stops the ledger.
    Json::parse(line).map_err(|e| format!("{workload}: {}, no result line ({e})", output.status))
}

fn print_metrics(workload: &str, result: &Json) {
    let Some(metrics) = result.get("metrics").and_then(Json::as_obj) else {
        return;
    };
    for (name, m) in metrics {
        let value = m.get("value").and_then(Json::as_f64).unwrap_or(0.0);
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        println!("{workload:<24} {name:<36} {value:>16.4} {unit}");
    }
}

fn metrics_json(result: &Json) -> String {
    let mut out = String::from("{");
    if let Some(metrics) = result.get("metrics").and_then(Json::as_obj) {
        for (i, (name, m)) in metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(0.0);
            let _ = write!(out, "{sep}{}: {value}", quote(name));
        }
    }
    out.push('}');
    out
}

/// Run every workload, print every metric by name and unit, write the
/// result set to `out`, and report whether every check passed.
pub fn run_all(seed: u64, seconds: f64, out: &Path) -> Result<bool, String> {
    let header = host::header(seed, seconds);
    println!("{header}");
    let mut all_correct = true;
    let mut body = String::new();
    for (i, w) in WORKLOADS.iter().enumerate() {
        let timed = run_child(w.name, seed, seconds, false)?;
        let traced = run_child(w.name, seed, seconds, true)?;
        print_metrics(w.name, &timed);
        print_metrics(w.name, &traced);
        let num = |key: &str| timed.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        let correct = [&timed, &traced]
            .iter()
            .all(|r| r.get("correct").and_then(Json::as_bool) == Some(true));
        println!(
            "{:<24} checks {} ({} attempted, {} failed)",
            w.name,
            if correct { "passed" } else { "FAILED" },
            num("attempted"),
            num("failed")
        );
        all_correct &= correct;
        let sep = if i == 0 { "" } else { ",\n" };
        let _ = write!(
            body,
            "{sep}  {}: {{\"correct\": {correct}, \"attempted\": {}, \"failed\": {},\n    \
             \"end_to_end\": {},\n    \"per_layer\": {}}}",
            quote(w.name),
            num("attempted"),
            num("failed"),
            metrics_json(&timed),
            metrics_json(&traced)
        );
    }
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let text = format!(
        "{{\"header\": {}, \"seed\": {seed}, \"workloads\": {{\n{body}\n}}}}\n",
        quote(&header)
    );
    std::fs::write(out, text).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("results written to {}", out.display());
    Ok(all_correct)
}

/// The end-to-end metrics `BENCHMARK.json` declares: name → (direction,
/// bound).
pub fn declared_bounds(benchmark_json: &Json) -> Result<Vec<(String, Better, f64)>, String> {
    benchmark_json
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without name")?;
            if !valid_name(name) {
                return Err(format!("{name:?} is not a valid metric name"));
            }
            let better = m
                .get("better")
                .and_then(Json::as_str)
                .and_then(Better::parse)
                .ok_or_else(|| format!("{name}: bad direction"))?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{name}: no bound"))?;
            Ok((name.to_string(), better, bound))
        })
        .collect()
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

type ResultSet = BTreeMap<String, BTreeMap<String, f64>>;

/// Per workload: every end-to-end metric, plus `failed_frac` from the
/// attempted and failed counts.
fn end_to_end_of(results: &Json) -> Result<ResultSet, String> {
    let workloads = results
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("result set has no workloads")?;
    Ok(workloads
        .iter()
        .map(|(name, w)| {
            let mut metrics: BTreeMap<String, f64> = w
                .get("end_to_end")
                .and_then(Json::as_obj)
                .map(|m| {
                    m.iter()
                        .filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v)))
                        .collect()
                })
                .unwrap_or_default();
            let num = |key: &str| w.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            metrics.insert(
                "failed_frac".into(),
                num("failed") / num("attempted").max(1.0),
            );
            (name.clone(), metrics)
        })
        .collect())
}

/// One row per (metric, workload): both values, how much worse the
/// second is, the bound, and whether it is breached.
pub fn compare(
    bounds: &[(String, Better, f64)],
    a: &ResultSet,
    b: &ResultSet,
) -> Vec<(String, bool)> {
    let mut rows = Vec::new();
    // Failures carry no declared bound: any rise above the absolute
    // floor is a breach.
    let failed = ("failed_frac".to_string(), Better::Lower, 0.0);
    for (workload, metrics_a) in a {
        for (metric, better, bound) in bounds.iter().chain(std::iter::once(&failed)) {
            let (Some(&va), Some(&vb)) = (
                metrics_a.get(metric),
                b.get(workload).and_then(|m| m.get(metric)),
            ) else {
                rows.push((
                    format!("{workload:<24} {metric:<18} missing from a result set"),
                    true,
                ));
                continue;
            };
            let breach = breaches(metric, *better, va, vb, *bound);
            rows.push((
                format!(
                    "{workload:<24} {metric:<18} {va:>14.4} {vb:>14.4} {:>+8.2}% (bound {:.0}%){}",
                    worsening(*better, va, vb) * 100.0,
                    bound * 100.0,
                    if breach { "  BREACH" } else { "" }
                ),
                breach,
            ));
        }
    }
    rows
}

/// `--check-agree A.json B.json`: true when B is within every bound of A.
pub fn check_agree(benchmark_json: &Path, a: &Path, b: &Path) -> Result<bool, String> {
    let bounds = declared_bounds(&load(benchmark_json)?)?;
    let rows = compare(
        &bounds,
        &end_to_end_of(&load(a)?)?,
        &end_to_end_of(&load(b)?)?,
    );
    println!(
        "{:<24} {:<18} {:>14} {:>14} {:>9}",
        "workload", "metric", "A", "B", "worse by"
    );
    for (row, _) in &rows {
        println!("{row}");
    }
    let breaches = rows.iter().filter(|(_, breach)| *breach).count();
    println!("{} rows, {breaches} breach(es)", rows.len());
    Ok(breaches == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(tps: f64, setup: f64, failed: f64) -> ResultSet {
        let text = format!(
            r#"{{"workloads": {{"serve_mixed": {{"attempted": 1000, "failed": {failed},
                "end_to_end": {{"txn_per_s": {tps}, "setup_s": {setup}}}}}}}}}"#
        );
        end_to_end_of(&Json::parse(&text).unwrap()).unwrap()
    }

    #[test]
    fn compare_flags_only_rows_beyond_bound_and_floor() {
        let bounds = vec![
            ("txn_per_s".to_string(), Better::Higher, 0.10),
            ("setup_s".to_string(), Better::Lower, 0.25),
        ];
        let base = set(1000.0, 0.006, 0.0);
        let breached = |b: &ResultSet| -> Vec<bool> {
            compare(&bounds, &base, b).iter().map(|(_, x)| *x).collect()
        };
        // Within bound; set-up doubles but stays under its 50 ms floor.
        assert_eq!(breached(&set(950.0, 0.012, 0.0)), [false, false, false]);
        // Throughput 15 % down breaches its 10 % bound.
        assert_eq!(breached(&set(850.0, 0.006, 0.0)), [true, false, false]);
        // Two failures in a thousand are above the 0.001 floor.
        assert_eq!(breached(&set(1000.0, 0.006, 2.0)), [false, false, true]);
        // A workload missing from B is a breach, not a silent pass.
        let empty = ResultSet::new();
        assert!(compare(&bounds, &base, &empty).iter().all(|(_, x)| *x));
    }
}
