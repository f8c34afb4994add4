//! The metrics registry: named counters, gauges and histograms with
//! hierarchical dotted scopes (`buffer.hit`, `wal.flush.commit`,
//! `disk.3.busy_us`), snapshot/diff support and JSON + ASCII-table
//! export — and the repo's one log₂ [`Histogram`], as a plain cell and
//! as an [`AtomicHistogram`], which the live server's STATS registry
//! records into as well.
//!
//! Everything is integer-valued and keyed through `BTreeMap`s, so
//! snapshots are deterministic: same run → same snapshot, byte for
//! byte. Nothing here reads a clock or an RNG (CI's purity guard covers
//! this file: the stats golden replays its bucket math byte-exactly).

use crate::json::ObjWriter;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Cells in every log₂ histogram. Cell `b` counts the values of bit
/// length `b`: cell 0 holds zeros, cell `b ≥ 1` holds `[2^(b-1), 2^b)`,
/// and the last cell is open-ended (everything from 2^38 µs ≈ 3.2 days
/// up), so a histogram's shape never depends on what it observed.
pub const HIST_BUCKETS: usize = 40;

/// Cell index of `v`: its bit length, capped at the open-ended last cell.
fn bucket_of(v: u64) -> usize {
    ((u64::BITS - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

/// Inclusive upper edge `2^b − 1` of cell `b < HIST_BUCKETS` (nominal
/// for the open-ended last cell).
pub fn bucket_bound(b: usize) -> u64 {
    (1u64 << b) - 1
}

/// The log₂ histogram, as a plain cell: what the engine's registry
/// records into and what every snapshot — the registry's, an
/// [`AtomicHistogram`]'s, the live server's STATS reply — carries.
/// Integer-exact and fixed-shape, so merging, subtracting and rendering
/// are deterministic. Every histogram in the repo records microseconds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Per-cell observation counts (see [`HIST_BUCKETS`]).
    pub buckets: [u64; HIST_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observations (wrapping, like the atomic cell's).
    pub sum_us: u64,
    /// Largest observation (0 when empty).
    pub max_us: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum_us: 0,
            max_us: 0,
        }
    }
}

fn join_cells(cells: impl Iterator<Item = u64>) -> String {
    cells.map(|c| c.to_string()).collect::<Vec<_>>().join(",")
}

impl Histogram {
    /// Record one observation.
    pub fn observe(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum_us = self.sum_us.wrapping_add(v);
        self.max_us = self.max_us.max(v);
    }

    /// Mean observation (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }

    /// Merge another histogram into this one. Cells are value-aligned
    /// by construction, so the merge is exact: the result equals the
    /// histogram of the concatenated observation streams regardless of
    /// how the observations were partitioned.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum_us = self.sum_us.wrapping_add(other.sum_us);
        self.max_us = self.max_us.max(other.max_us);
    }

    /// What was observed after `earlier`, a previous copy of the same
    /// cumulative histogram: merging the result back onto `earlier`
    /// gives `self`. A maximum cannot be subtracted, so the difference
    /// keeps the cumulative one.
    pub fn since(&self, earlier: &Histogram) -> Histogram {
        let mut delta = self.clone();
        for (cell, was) in delta.buckets.iter_mut().zip(&earlier.buckets) {
            *cell = cell.saturating_sub(*was);
        }
        delta.count = self.count.saturating_sub(earlier.count);
        delta.sum_us = self.sum_us.wrapping_sub(earlier.sum_us);
        delta
    }

    /// Upper bound on the q-quantile observation.
    ///
    /// This is **not** an exact quantile: the histogram only keeps
    /// per-cell counts, so the returned value is the inclusive upper
    /// edge `2^b - 1` of the cell the q-quantile observation fell into,
    /// clamped to the observed maximum. The true quantile lies somewhere
    /// in `[2^(b-1), 2^b)` — up to 2× smaller than the reported bound.
    /// The estimate is coarse but deterministic and merge-stable, which
    /// is what the golden gate needs.
    pub fn quantile_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64 * q).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (b, &c) in self.buckets[..HIST_BUCKETS - 1].iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_bound(b).min(self.max_us);
            }
        }
        // The last cell has no upper edge but the maximum.
        self.max_us
    }

    /// The fixed-shape render STATS carries: all [`HIST_BUCKETS`] cells,
    /// whatever was observed.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"count\":{},\"sum_us\":{},\"max_us\":{},\"buckets\":[{}]}}",
            self.count,
            self.sum_us,
            self.max_us,
            join_cells(self.buckets.iter().copied())
        )
    }

    /// The trimmed render registry snapshots carry: 0 and 1 share the
    /// first cell and nothing follows the last occupied one. Both
    /// renders are pinned by goldens, which is why there are two.
    pub fn to_json_pow2(&self) -> String {
        let last = self.buckets.iter().rposition(|&c| c > 0);
        let used = last.map_or(0, |last| last.max(1) + 1);
        let folded = self.buckets[..used].iter().enumerate().skip(1);
        let folded = folded.map(|(b, &c)| if b == 1 { c + self.buckets[0] } else { c });
        format!(
            "{{\"count\":{},\"sum\":{},\"max\":{},\"buckets_pow2\":[{}]}}",
            self.count,
            self.sum_us,
            self.max_us,
            join_cells(folded)
        )
    }
}

/// The same histogram as a lock-free cell for concurrent recorders.
/// Updates are relaxed: a snapshot taken while recording may be
/// mid-update by one observation, which is fine for telemetry — one
/// taken after every recorder is joined is exact.
pub struct AtomicHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        AtomicHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }
}

impl AtomicHistogram {
    /// Record one observation.
    pub fn observe(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(v, Ordering::Relaxed);
        self.max_us.fetch_max(v, Ordering::Relaxed);
    }

    /// Copy out the current state.
    pub fn snapshot(&self) -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|b| self.buckets[b].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum_us: self.sum_us.load(Ordering::Relaxed),
            max_us: self.max_us.load(Ordering::Relaxed),
        }
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

    /// Current value of a declared counter — the by-handle spelling of
    /// [`MetricsRegistry::counter`].
    pub fn value(&self, id: CounterId) -> u64 {
        self.counters[id.0]
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
    /// counters cover exactly what the per-run report covers).
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
        fn section<V>(map: &BTreeMap<String, V>, render: impl Fn(&V) -> String) -> String {
            let mut s = String::new();
            let mut w = ObjWriter::begin(&mut s);
            for (k, v) in map {
                w.raw(k, &render(v));
            }
            w.end();
            s
        }
        let mut s = String::new();
        let mut w = ObjWriter::begin(&mut s);
        w.raw("counters", &section(&self.counters, u64::to_string))
            .raw("gauges", &section(&self.gauges, i64::to_string))
            .raw(
                "histograms",
                &section(&self.histograms, Histogram::to_json_pow2),
            );
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
                    h.count,
                    h.mean(),
                    h.quantile_bound(0.50),
                    h.quantile_bound(0.95),
                    h.quantile_bound(0.99),
                    h.max_us
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
        assert_eq!(h.count, 6);
        assert_eq!(h.sum_us, 2006);
        assert_eq!(h.max_us, 1100);
    }

    #[test]
    fn buckets_are_log2_with_fixed_shape() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
        assert_eq!(bucket_bound(0), 0);
        assert_eq!(bucket_bound(1), 1);
        assert_eq!(bucket_bound(2), 3);
        assert_eq!(bucket_bound(11), 2047);
        let h = AtomicHistogram::default();
        let empty = h.snapshot();
        assert_eq!(empty.buckets.len(), HIST_BUCKETS);
        h.observe(5);
        h.observe(900);
        let snap = h.snapshot();
        assert_eq!(snap.buckets.len(), HIST_BUCKETS, "shape is value-free");
        assert_eq!(snap.count, 2);
        assert_eq!(snap.sum_us, 905);
        assert_eq!(snap.max_us, 900);
        assert_eq!(snap.quantile_bound(0.5), 7);
        assert_eq!(snap.quantile_bound(0.99), 900, "clamped to max");
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
            assert!(bound <= h.max_us);
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
        assert_eq!(ab.histograms["lat"].count, 2);
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
