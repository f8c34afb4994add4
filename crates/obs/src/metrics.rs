//! The metrics registry: named counters, gauges and histograms with
//! hierarchical dotted scopes (`buffer.hit`, `wal.flush.commit`,
//! `disk.3.busy_us`), snapshot/diff support and JSON + ASCII-table
//! export.
//!
//! Everything is integer-valued and keyed through `BTreeMap`s, so
//! snapshots are deterministic: same run → same snapshot, byte for byte.

use crate::json::{push_json_str, ObjWriter};
use std::collections::BTreeMap;

/// Power-of-two-bucket histogram of `u64` observations. Bucket `i`
/// counts values `v` with `2^i <= v < 2^(i+1)` (bucket 0 counts zeros
/// and ones), which is plenty of resolution for latency-style data
/// while staying integer-exact.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros() as usize).saturating_sub(1)
    }

    /// Record one observation.
    pub fn observe(&mut self, v: u64) {
        let b = Self::bucket_of(v);
        if self.buckets.len() <= b {
            self.buckets.resize(b + 1, 0);
        }
        self.buckets[b] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean observation (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Merge another histogram into this one. Buckets are power-of-two
    /// aligned by construction, so the merge is exact: the result equals
    /// the histogram of the concatenated observation streams regardless
    /// of how the observations were partitioned.
    pub fn merge(&mut self, other: &Histogram) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (i, &c) in other.buckets.iter().enumerate() {
            self.buckets[i] += c;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Upper bound on the q-quantile observation.
    ///
    /// This is **not** an exact quantile: the histogram only keeps
    /// power-of-two bucket counts, so the returned value is the
    /// inclusive upper edge `2^(i+1) - 1` of the bucket the q-quantile
    /// observation fell into, clamped to the observed maximum. The true
    /// quantile lies somewhere in `[2^i, 2^(i+1))` — up to 2× smaller
    /// than the reported bound. The estimate is coarse but deterministic
    /// and merge-stable, which is what the golden gate needs.
    pub fn quantile_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64 * q).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return (u64::MAX >> (63 - i)).min(self.max);
            }
        }
        self.max
    }

    fn to_json(&self) -> String {
        let mut s = String::new();
        let mut w = ObjWriter::begin(&mut s);
        w.u64("count", self.count)
            .u64("sum", self.sum)
            .u64("max", self.max);
        let buckets = self
            .buckets
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(",");
        w.raw("buckets_pow2", &format!("[{buckets}]"));
        w.end();
        s
    }
}

/// Handle to a declared counter: [`MetricsRegistry::bump`] through it
/// is one indexed add, where [`MetricsRegistry::inc`] searches the name
/// table. Valid only for the registry that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Registry of named metrics. Dotted names form the hierarchy; the
/// registry itself is flat (a scope is just a name prefix).
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    /// Counter values, by [`CounterId`].
    counters: Vec<u64>,
    /// Counter names, sorted, each with its slot in `counters`.
    counter_ids: BTreeMap<String, CounterId>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Increment counter `name` by one.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Increment counter `name` by `n`. Creates the counter on first use.
    pub fn add(&mut self, name: &str, n: u64) {
        let id = self.declare(name);
        self.counters[id.0] += n;
    }

    /// Increment a declared counter by one — the hot-path spelling of
    /// [`MetricsRegistry::inc`].
    #[inline]
    pub fn bump(&mut self, id: CounterId) {
        self.counters[id.0] += 1;
    }

    /// Create counter `name` at zero if absent and return its handle.
    /// Declaring every hot counter up front (outside the engine's
    /// profiled phases) keeps `String` and tree-node allocation out of
    /// those phases and lets the hot paths [`MetricsRegistry::bump`] by
    /// index. Zero-valued counters never appear in
    /// [`MetricsRegistry::snapshot`], so declaring is observationally
    /// free.
    pub fn declare(&mut self, name: &str) -> CounterId {
        if let Some(&id) = self.counter_ids.get(name) {
            return id;
        }
        let id = CounterId(self.counters.len());
        self.counters.push(0);
        self.counter_ids.insert(name.to_string(), id);
        id
    }

    /// Current value of counter `name` (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counter_ids
            .get(name)
            .map_or(0, |id| self.counters[id.0])
    }

    /// Set gauge `name` to `v`.
    pub fn set_gauge(&mut self, name: &str, v: i64) {
        if let Some(g) = self.gauges.get_mut(name) {
            *g = v;
        } else {
            self.gauges.insert(name.to_string(), v);
        }
    }

    /// Current value of gauge `name` (0 if never set).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Record `v` into histogram `name`. Creates it on first use.
    pub fn observe(&mut self, name: &str, v: u64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.observe(v);
        } else {
            let mut h = Histogram::default();
            h.observe(v);
            self.histograms.insert(name.to_string(), h);
        }
    }

    /// Histogram `name`, if any observation was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Clear every metric (used when the measured interval begins, so
    /// counters reconcile with per-run report totals).
    ///
    /// Counter *names* are retained and their values zeroed in place,
    /// so every [`CounterId`] stays valid and a post-warmup
    /// [`MetricsRegistry::inc`] allocates no `String` inside a profiled
    /// phase. Zero-valued counters are filtered out of
    /// [`MetricsRegistry::snapshot`], so the observable state is
    /// byte-identical to a full clear.
    pub fn reset(&mut self) {
        self.counters.fill(0);
        self.gauges.clear();
        self.histograms.clear();
    }

    /// Deterministic point-in-time copy of every metric. Zero-valued
    /// counters (declared, or retained by [`MetricsRegistry::reset`])
    /// are omitted — a counter that never fired is indistinguishable
    /// from one that was never created.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counter_ids
                .iter()
                .map(|(k, id)| (k, self.counters[id.0]))
                .filter(|&(_, v)| v > 0)
                .map(|(k, v)| (k.clone(), v))
                .collect(),
            gauges: self.gauges.clone(),
            histograms: self.histograms.clone(),
        }
    }
}

/// Immutable copy of a registry's state; supports diff and export.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    /// Counter value (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value (0 if absent).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Counter and gauge deltas since `earlier` (histograms are omitted
    /// from diffs — they don't subtract meaningfully bucket-wise once
    /// reset semantics differ). Counters absent earlier count from zero.
    pub fn diff(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut counters = BTreeMap::new();
        for (k, &v) in &self.counters {
            let delta = v.saturating_sub(earlier.counter(k));
            if delta > 0 {
                counters.insert(k.clone(), delta);
            }
        }
        let mut gauges = BTreeMap::new();
        for (k, &v) in &self.gauges {
            let delta = v - earlier.gauge(k);
            if delta != 0 {
                gauges.insert(k.clone(), delta);
            }
        }
        MetricsSnapshot {
            counters,
            gauges,
            histograms: BTreeMap::new(),
        }
    }

    /// Merge another snapshot into this one: counters and gauges add,
    /// histograms merge bucket-wise. Because every container is a
    /// `BTreeMap` and addition is commutative and associative, folding
    /// any permutation of per-run snapshots yields the same bytes —
    /// the property the parallel sweep executor relies on when it joins
    /// per-run registries in submission order.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, &v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, &v) in &other.gauges {
            *self.gauges.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }

    /// Fold an iterator of snapshots into one merged snapshot.
    pub fn merged<'a, I: IntoIterator<Item = &'a MetricsSnapshot>>(snaps: I) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::default();
        for s in snaps {
            out.merge(s);
        }
        out
    }

    /// Render as a deterministic JSON object:
    /// `{"counters":{...},"gauges":{...},"histograms":{...}}`.
    pub fn to_json(&self) -> String {
        let mut counters = String::from("{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                counters.push(',');
            }
            push_json_str(&mut counters, k);
            counters.push(':');
            counters.push_str(&v.to_string());
        }
        counters.push('}');

        let mut gauges = String::from("{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                gauges.push(',');
            }
            push_json_str(&mut gauges, k);
            gauges.push(':');
            gauges.push_str(&v.to_string());
        }
        gauges.push('}');

        let mut hists = String::from("{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                hists.push(',');
            }
            push_json_str(&mut hists, k);
            hists.push(':');
            hists.push_str(&h.to_json());
        }
        hists.push('}');

        let mut s = String::new();
        let mut w = ObjWriter::begin(&mut s);
        w.raw("counters", &counters)
            .raw("gauges", &gauges)
            .raw("histograms", &hists);
        w.end();
        s
    }

    /// Render as a boxed ASCII table, one row per metric, sorted by name.
    pub fn to_ascii_table(&self) -> String {
        let mut rows: Vec<(String, String, String)> = Vec::new();
        for (k, v) in &self.counters {
            rows.push((k.clone(), "counter".into(), v.to_string()));
        }
        for (k, v) in &self.gauges {
            rows.push((k.clone(), "gauge".into(), v.to_string()));
        }
        for (k, h) in &self.histograms {
            rows.push((
                k.clone(),
                "histogram".into(),
                format!(
                    "n={} mean={:.1} p50<={} p95<={} p99<={} max={}",
                    h.count(),
                    h.mean(),
                    h.quantile_bound(0.50),
                    h.quantile_bound(0.95),
                    h.quantile_bound(0.99),
                    h.max()
                ),
            ));
        }
        rows.sort();
        let name_w = rows.iter().map(|r| r.0.len()).max().unwrap_or(4).max(6);
        let kind_w = 9;
        let val_w = rows.iter().map(|r| r.2.len()).max().unwrap_or(5).max(5);
        let sep = format!(
            "+-{}-+-{}-+-{}-+",
            "-".repeat(name_w),
            "-".repeat(kind_w),
            "-".repeat(val_w)
        );
        let mut out = String::new();
        out.push_str(&sep);
        out.push('\n');
        out.push_str(&format!(
            "| {:<name_w$} | {:<kind_w$} | {:>val_w$} |\n",
            "metric", "kind", "value"
        ));
        out.push_str(&sep);
        out.push('\n');
        for (name, kind, value) in &rows {
            out.push_str(&format!(
                "| {name:<name_w$} | {kind:<kind_w$} | {value:>val_w$} |\n"
            ));
        }
        out.push_str(&sep);
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let mut r = MetricsRegistry::new();
        r.inc("buffer.hit");
        r.add("buffer.hit", 2);
        r.inc("buffer.miss");
        r.set_gauge("disk.0.busy_us", 1234);
        assert_eq!(r.counter("buffer.hit"), 3);
        assert_eq!(r.counter("absent"), 0);
        let snap = r.snapshot();
        assert_eq!(snap.counter("buffer.hit"), 3);
        assert_eq!(snap.gauge("disk.0.busy_us"), 1234);
    }

    #[test]
    fn bump_by_handle_is_inc_by_name() {
        let mut r = MetricsRegistry::new();
        let z = r.declare("z.declared_first");
        let a = r.declare("a.declared_second");
        let idle = r.declare("idle");
        assert_eq!(r.declare("z.declared_first"), z, "declare is idempotent");
        assert!(
            r.snapshot().counters.is_empty(),
            "declared zeros are filtered"
        );
        r.bump(z);
        r.inc("z.declared_first");
        r.bump(a);
        assert_eq!(r.counter("z.declared_first"), 2);
        let mut by_name = MetricsRegistry::new();
        by_name.add("z.declared_first", 2);
        by_name.inc("a.declared_second");
        assert_eq!(r.snapshot(), by_name.snapshot());
        assert_eq!(r.snapshot().to_json(), by_name.snapshot().to_json());
        assert_eq!(
            r.snapshot().to_ascii_table(),
            by_name.snapshot().to_ascii_table()
        );
        r.reset();
        assert!(r.snapshot().counters.is_empty());
        r.bump(idle);
        assert_eq!(r.counter("idle"), 1, "handles survive reset");
    }

    #[test]
    fn diff_subtracts_counters() {
        let mut r = MetricsRegistry::new();
        r.add("a", 5);
        let early = r.snapshot();
        r.add("a", 3);
        r.inc("b");
        let late = r.snapshot();
        let d = late.diff(&early);
        assert_eq!(d.counter("a"), 3);
        assert_eq!(d.counter("b"), 1);
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::default();
        for v in [0, 1, 2, 3, 900, 1100] {
            h.observe(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 2006);
        assert_eq!(h.max(), 1100);
    }

    #[test]
    fn quantile_bound_is_an_upper_bound_on_the_exact_quantile() {
        let sorted = [0u64, 1, 2, 3, 7, 8, 900, 1023, 1024, 1100];
        let mut h = Histogram::default();
        for v in sorted {
            h.observe(v);
        }
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1];
            let bound = h.quantile_bound(q);
            assert!(bound >= exact, "q={q}: bound {bound} < exact {exact}");
            assert!(bound <= h.max());
        }
        // One observation of 900 used to render as `p99<=512`.
        let mut one = Histogram::default();
        one.observe(900);
        assert_eq!(one.quantile_bound(0.99), 900);
        assert_eq!(Histogram::default().quantile_bound(0.5), 0);
    }

    #[test]
    fn snapshot_json_is_deterministic_and_sorted() {
        let mut r = MetricsRegistry::new();
        r.inc("z.last");
        r.inc("a.first");
        r.observe("lat", 7);
        let a = r.snapshot().to_json();
        let b = r.snapshot().to_json();
        assert_eq!(a, b);
        let za = a.find("z.last").unwrap();
        let aa = a.find("a.first").unwrap();
        assert!(aa < za, "keys must be sorted");
        assert!(a.starts_with("{\"counters\":{"));
    }

    #[test]
    fn ascii_table_renders_all_kinds() {
        let mut r = MetricsRegistry::new();
        r.inc("c");
        r.set_gauge("g", -4);
        r.observe("h", 10);
        let t = r.snapshot().to_ascii_table();
        assert!(t.contains("| c"));
        assert!(t.contains("gauge"));
        assert!(t.contains("histogram"));
        assert!(t.contains("p50<="));
        assert!(t.contains("p99<="));
        assert!(t.lines().all(|l| l.starts_with('|') || l.starts_with('+')));
    }

    #[test]
    fn histogram_merge_equals_concatenated_stream() {
        let all = [0u64, 1, 2, 3, 900, 1100, 5, 64, 65];
        let mut whole = Histogram::default();
        for &v in &all {
            whole.observe(v);
        }
        for split in 0..all.len() {
            let (a, b) = all.split_at(split);
            let mut left = Histogram::default();
            let mut right = Histogram::default();
            for &v in a {
                left.observe(v);
            }
            for &v in b {
                right.observe(v);
            }
            left.merge(&right);
            assert_eq!(left, whole, "split at {split}");
        }
    }

    #[test]
    fn snapshot_merge_is_order_independent() {
        let mut r1 = MetricsRegistry::new();
        r1.add("io.read", 5);
        r1.set_gauge("disk.busy_us", 100);
        r1.observe("lat", 7);
        let mut r2 = MetricsRegistry::new();
        r2.add("io.read", 2);
        r2.add("io.write", 1);
        r2.set_gauge("disk.busy_us", 30);
        r2.observe("lat", 900);
        let (a, b) = (r1.snapshot(), r2.snapshot());
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.to_json(), ba.to_json());
        assert_eq!(ab.counter("io.read"), 7);
        assert_eq!(ab.counter("io.write"), 1);
        assert_eq!(ab.gauge("disk.busy_us"), 130);
        assert_eq!(ab.histograms["lat"].count(), 2);
        let folded = MetricsSnapshot::merged([&a, &b]);
        assert_eq!(folded, ab);
    }

    #[test]
    fn reset_clears_everything() {
        let mut r = MetricsRegistry::new();
        r.inc("x");
        r.set_gauge("y", 1);
        r.observe("z", 1);
        r.reset();
        let s = r.snapshot();
        assert!(s.counters.is_empty() && s.gauges.is_empty() && s.histograms.is_empty());
    }
}
