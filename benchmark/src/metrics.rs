//! The metric names this binary emits, with their units, and the result
//! line it prints. `BENCHMARK.json` declares the same names (the smoke
//! test holds the two together) and adds direction and bound.

use crate::json::quote;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, emitted by every workload's timed run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("txn_per_s", "txn/s"),
    ("p50_us", "us"),
    ("p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, emitted by every workload's traced run. A layer a
/// workload bypasses reads 0 — that zero is the separation the README
/// relies on (no fsync outside `engine_durable`, no prefetch I/O
/// outside `engine_read_clustered`, no server span on engine_*).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.event_pop_calls", "count"),
    ("sim.event_pop_wall_ms", "ms"),
    ("sim.queue_push_pop_ns", "ns"),
    ("vdm.build_objects_per_s", "1/s"),
    ("core.engine.build_s", "s"),
    ("core.engine.drive_s", "s"),
    ("core.engine.self_wall_ms", "ms"),
    ("core.engine.events_per_txn", "ev/txn"),
    ("core.engine.alloc_bytes_per_txn", "B/txn"),
    ("core.engine.step_p99_us", "us"),
    ("core.engine.sim_response_ms", "ms"),
    ("core.engine.aborts", "count"),
    ("buffer.lookup_calls", "count"),
    ("buffer.lookup_wall_ms", "ms"),
    ("buffer.hit_ratio", "ratio"),
    ("buffer.data_reads", "count"),
    ("buffer.access_hit_ns", "ns"),
    ("buffer.access_miss_ns", "ns"),
    ("buffer.prefetch_calls", "count"),
    ("buffer.prefetch_wall_ms", "ms"),
    ("buffer.prefetch_ios", "count"),
    ("clustering.placement_calls", "count"),
    ("clustering.placement_wall_ms", "ms"),
    ("clustering.search_ios", "count"),
    ("clustering.splits", "count"),
    ("clustering.recluster_moves", "count"),
    ("clustering.plan_placement_ns", "ns"),
    ("lock.acquire_calls", "count"),
    ("lock.acquire_wall_ms", "ms"),
    ("lock.waits", "count"),
    ("lock.acquire_release_ns", "ns"),
    ("lock.wait_p50_us", "us"),
    ("lock.wait_p99_us", "us"),
    ("lock.retry_exhausted", "count"),
    ("wal.append_calls", "count"),
    ("wal.append_wall_ms", "ms"),
    ("wal.flush_calls", "count"),
    ("wal.flush_wall_ms", "ms"),
    ("wal.log_ios", "count"),
    ("wal.commit_txn8_ns", "ns"),
    ("wal.group_commits", "count"),
    ("wal.txns_per_force", "txn/force"),
    ("storage.checkpoint_s", "s"),
    ("storage.fs_writes", "count"),
    ("storage.fsyncs", "count"),
    ("storage.bytes_synced", "B"),
    ("storage.fsyncs_per_commit", "1/commit"),
    ("storage.synced_bytes_per_commit", "B/commit"),
    ("storage.steal_us", "us"),
    ("storage.commit_fsync_us", "us"),
    ("storage.encode_page_ns", "ns"),
    ("storage.decode_page_ns", "ns"),
    ("storage.disk_bytes_per_db_byte", "ratio"),
    ("storage.recover_ms", "ms"),
    ("storage.recover_redo", "count"),
    ("serve.protocol.encode_txn_ns", "ns"),
    ("serve.protocol.decode_txn_ns", "ns"),
    ("serve.session.fsm_txn_ns", "ns"),
    ("serve.admission.wait_p50_us", "us"),
    ("serve.admission.wait_p99_us", "us"),
    ("serve.admission.sheds", "count"),
    ("serve.admission.shed_frac", "ratio"),
    ("serve.server.start_ms", "ms"),
    ("serve.server.drain_ms", "ms"),
    ("serve.server.exec_p50_us", "us"),
    ("serve.server.exec_p99_us", "us"),
    ("serve.server.reply_write_p50_us", "us"),
    ("serve.server.reply_write_p99_us", "us"),
    ("serve.server.service_p50_us", "us"),
    ("serve.server.service_p99_us", "us"),
    ("serve.commit.wait_p50_us", "us"),
    ("serve.commit.wait_p99_us", "us"),
    ("process.cpu_ms_per_ktxn", "ms/ktxn"),
    ("client.outside_server_p50_us", "us"),
    ("client.retries", "count"),
    ("client.failed_frac", "ratio"),
    ("obs.trace_overhead_frac", "ratio"),
    ("obs.unattributed_ms", "ms"),
];

/// One run's named values over a fixed table: every declared name is
/// present exactly once (unset ones read 0) and no other name can be
/// set.
pub struct MetricSet {
    table: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, f64>,
}

impl MetricSet {
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Self {
        MetricSet {
            table,
            values: BTreeMap::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.table.iter().any(|(n, _)| *n == name),
            "metric {name} is not declared"
        );
        assert!(value.is_finite(), "metric {name} is not finite");
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, unit)) in self.table.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                self.get(name),
                quote(unit)
            );
        }
        out.push('}');
        out
    }
}

/// What one invocation reports: the last line of its standard output.
pub struct RunResult {
    /// Every output check passed.
    pub correct: bool,
    /// What failed, for the log (empty when `correct`).
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: MetricSet,
}

impl RunResult {
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            self.metrics.to_json()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::stats::valid_name;

    #[test]
    fn declared_names_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(*name), "{name} declared twice");
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
            let unit_ok = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
            assert!(unit.chars().all(unit_ok), "{unit}");
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn result_line_carries_every_declared_metric_once() {
        let mut metrics = MetricSet::new(END_TO_END);
        metrics.set("txn_per_s", 1234.5);
        let line = RunResult {
            correct: true,
            problems: Vec::new(),
            attempted: 10,
            failed: 0,
            metrics,
        }
        .to_json_line();
        assert!(!line.contains('\n'));
        let v = Json::parse(&line).unwrap();
        let m = v.get("metrics").and_then(Json::as_obj).unwrap();
        assert_eq!(m.len(), END_TO_END.len());
        let tps = m["txn_per_s"].get("value").and_then(Json::as_f64);
        assert_eq!(tps, Some(1234.5));
        assert_eq!(m["p99_us"].get("unit").and_then(Json::as_str), Some("us"));
        assert_eq!(v.as_obj().unwrap().len(), 4);
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_names_cannot_be_emitted() {
        MetricSet::new(END_TO_END).set("made_up", 1.0);
    }
}
