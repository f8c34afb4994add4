//! Deterministic hierarchical phase profiling with allocation accounting.
//!
//! The engine's hot paths — placement scoring, buffer lookups, WAL
//! appends and flushes, prefetch, lock acquisition, event-queue pops and
//! the timeline's `page_locality` fold — are bracketed with
//! [`PhaseProfiler::enter`] / [`PhaseProfiler::exit`] pairs. Each
//! distinct *stack* of phases (e.g. `run;placement_score;buffer_lookup`)
//! accumulates four self-cost counters:
//!
//! * **calls** — times the phase was entered on this stack;
//! * **sim_us** — simulated microseconds the caller attributes to the
//!   phase (I/O waits, log-flush chains); deterministic;
//! * **alloc_bytes / allocs** — heap bytes and allocation count requested
//!   while the phase was the innermost open phase, measured by
//!   [`CountingAlloc`]; deterministic for a deterministic run;
//! * **wall_ns** — host wall-clock nanoseconds, the only
//!   non-deterministic column.
//!
//! ## Determinism contract (DESIGN.md §13)
//!
//! [`ProfileReport`] merges are commutative and associative sums keyed by
//! stack path, so a sweep's merged profile is byte-identical at any
//! `--jobs N`. [`ProfileReport::to_json`] **excludes** `wall_ns`; wall
//! clock only leaves through [`ProfileReport::render_table`] (stderr
//! material) and the [`ProfileReport::folded`] sidecar when the wall
//! metric is selected. Because allocation self-costs are exact and
//! deterministic, a golden can *pin* them — the profile suite asserts the
//! `page_locality` fold allocates exactly zero bytes.
//!
//! Costs are **self** (exclusive): entering a nested phase closes the
//! parent's accounting window and reopens it on exit, so a stack's value
//! never double-counts its children — exactly the convention folded
//! flamegraph stacks expect.

use crate::json::{push_json_str, ObjWriter};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::time::Instant;

// ------------------------------------------------------------ accounting

thread_local! {
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
    static ALLOC_COUNT: Cell<u64> = const { Cell::new(0) };
}

/// Counting wrapper around the system allocator.
///
/// Register it in a *binary* (the CLI, the benches, the profile test
/// harness) with
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: semcluster_obs::CountingAlloc = semcluster_obs::CountingAlloc;
/// ```
///
/// and every heap request on the thread is tallied into monotonic
/// thread-local counters ([`allocation_counts`]). The counters are
/// per-thread, so a run profiled on one worker thread observes exactly
/// its own allocations. In binaries that do not register the wrapper the
/// counters simply stay zero and profiles report zero allocation —
/// never wrong data, just absent data.
///
/// Only the requested size is counted (`alloc`, `alloc_zeroed`, and the
/// new size of `realloc`); frees are not tracked — the profiler measures
/// allocation *pressure*, not live heap.
pub struct CountingAlloc;

#[inline]
fn note_alloc(bytes: usize) {
    // `try_with` so a stray allocation during TLS teardown cannot panic
    // inside the allocator.
    let _ = ALLOC_BYTES.try_with(|c| c.set(c.get() + bytes as u64));
    let _ = ALLOC_COUNT.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// This thread's monotonic `(bytes_requested, allocation_count)` tally.
/// Zero forever unless the binary registered [`CountingAlloc`].
pub fn allocation_counts() -> (u64, u64) {
    let bytes = ALLOC_BYTES.try_with(Cell::get).unwrap_or(0);
    let count = ALLOC_COUNT.try_with(Cell::get).unwrap_or(0);
    (bytes, count)
}

// -------------------------------------------------------------- phases

/// The engine hot paths the profiler distinguishes. A fixed enum (not
/// free-form strings) keeps `enter` allocation-free on the steady state
/// and the golden's key set closed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Root scope: the whole drive loop plus anything not bracketed more
    /// precisely.
    Run,
    /// Event-queue pop in the drive loop.
    EventPop,
    /// Conservative hierarchical lock acquisition.
    LockAcquire,
    /// Placement / recluster candidate scoring (plus the candidate-page
    /// reads it charges, which nest as `buffer_lookup` below it).
    PlacementScore,
    /// The page-overflow decision (`consider_split`): dependency graph,
    /// partition and the cost comparison — pinned allocation-free by the
    /// profile golden.
    SplitPlan,
    /// Buffer-pool access: hit bookkeeping or the full miss path
    /// (eviction write-back + demand read).
    BufferLookup,
    /// Asynchronous prefetch group computation and issue.
    Prefetch,
    /// WAL logical append (`charge_log`); physical flushes nest below.
    WalAppend,
    /// One physical log-device I/O.
    WalFlush,
    /// Timeline sampling (queue depths, locality fold).
    TimelineSample,
    /// The `page_locality` fold over the resident set — pinned
    /// allocation-free by the profile golden.
    PageLocality,
}

impl Phase {
    /// Stable snake_case name used in stack paths and goldens.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Run => "run",
            Phase::EventPop => "event_pop",
            Phase::LockAcquire => "lock_acquire",
            Phase::PlacementScore => "placement_score",
            Phase::SplitPlan => "split_plan",
            Phase::BufferLookup => "buffer_lookup",
            Phase::Prefetch => "prefetch",
            Phase::WalAppend => "wal_append",
            Phase::WalFlush => "wal_flush",
            Phase::TimelineSample => "timeline_sample",
            Phase::PageLocality => "page_locality",
        }
    }
}

/// Proof of an open phase; must be passed back to [`PhaseProfiler::exit`].
#[must_use = "an unclosed phase corrupts the profile tree"]
#[derive(Debug)]
pub struct PhaseToken {
    node: usize,
}

struct Node {
    phase: Phase,
    children: Vec<usize>,
    stats: PhaseStats,
}

struct Frame {
    node: usize,
    wall_mark: Instant,
    bytes_mark: u64,
    allocs_mark: u64,
}

/// Hierarchical self-cost profiler for one engine run.
///
/// Single-threaded by construction (a run owns its engine and its
/// profiler on one worker thread). `enter`/`exit` are explicit rather
/// than RAII guards because the instrumented call sites hold `&mut`
/// engine borrows a guard would alias.
pub struct PhaseProfiler {
    nodes: Vec<Node>,
    stack: Vec<Frame>,
}

impl Default for PhaseProfiler {
    fn default() -> Self {
        Self::new()
    }
}

impl PhaseProfiler {
    /// A profiler with the root `run` phase open.
    pub fn new() -> Self {
        let mut nodes = Vec::with_capacity(32);
        nodes.push(Node {
            phase: Phase::Run,
            children: Vec::new(),
            stats: PhaseStats {
                calls: 1,
                ..PhaseStats::default()
            },
        });
        // Deep enough for any real nesting; pre-reserved so frame pushes
        // never allocate inside a measured window.
        let mut stack = Vec::with_capacity(16);
        let (bytes, allocs) = allocation_counts();
        stack.push(Frame {
            node: 0,
            wall_mark: Instant::now(),
            bytes_mark: bytes,
            allocs_mark: allocs,
        });
        PhaseProfiler { nodes, stack }
    }

    /// Close the current accounting window, attributing it to the frame's
    /// node, and return a fresh wall mark for the next window.
    fn flush_top(&mut self) -> Instant {
        let now = Instant::now();
        let (bytes, allocs) = allocation_counts();
        let top = self.stack.last_mut().expect("root frame always present");
        let stats = &mut self.nodes[top.node].stats;
        stats.wall_ns += now.duration_since(top.wall_mark).as_nanos() as u64;
        stats.alloc_bytes += bytes - top.bytes_mark;
        stats.allocs += allocs - top.allocs_mark;
        top.wall_mark = now;
        top.bytes_mark = bytes;
        top.allocs_mark = allocs;
        now
    }

    /// Open `phase` nested under the current phase.
    pub fn enter(&mut self, phase: Phase) -> PhaseToken {
        self.flush_top();
        let parent = self.stack.last().expect("root frame always present").node;
        // Linear scan: a node has at most a handful of distinct children.
        let node = match self.nodes[parent]
            .children
            .iter()
            .find(|&&c| self.nodes[c].phase == phase)
        {
            Some(&c) => c,
            None => {
                let id = self.nodes.len();
                self.nodes.push(Node {
                    phase,
                    children: Vec::new(),
                    stats: PhaseStats::default(),
                });
                self.nodes[parent].children.push(id);
                id
            }
        };
        self.nodes[node].stats.calls += 1;
        // Marks are read *after* any node bookkeeping above, so the
        // profiler's own allocations are attributed to no phase at all
        // rather than polluting the one being opened.
        let (bytes, allocs) = allocation_counts();
        self.stack.push(Frame {
            node,
            wall_mark: Instant::now(),
            bytes_mark: bytes,
            allocs_mark: allocs,
        });
        PhaseToken { node }
    }

    /// Close the phase `token` opened, attributing `sim_us` simulated
    /// microseconds of self cost to it (alongside the measured wall and
    /// allocation windows).
    pub fn exit(&mut self, token: PhaseToken, sim_us: u64) {
        debug_assert_eq!(
            self.stack.last().map(|f| f.node),
            Some(token.node),
            "phase exit out of order"
        );
        self.flush_top();
        self.nodes[token.node].stats.sim_us += sim_us;
        self.stack.pop();
        // Reopen the parent's window from now.
        let now = Instant::now();
        let (bytes, allocs) = allocation_counts();
        let top = self.stack.last_mut().expect("root frame always present");
        top.wall_mark = now;
        top.bytes_mark = bytes;
        top.allocs_mark = allocs;
    }

    /// Attribute `sim_us` to the root `run` phase (end-of-run simulated
    /// span).
    pub fn add_root_sim_us(&mut self, sim_us: u64) {
        self.nodes[0].stats.sim_us += sim_us;
    }

    /// Snapshot the accumulated tree as a mergeable [`ProfileReport`].
    /// Flushes the open window first, so calling at end of run loses
    /// nothing.
    pub fn report(&mut self) -> ProfileReport {
        debug_assert_eq!(self.stack.len(), 1, "phases still open at report time");
        self.flush_top();
        let mut phases = BTreeMap::new();
        let mut pending: Vec<(usize, String)> = vec![(0, Phase::Run.name().to_string())];
        while let Some((id, path)) = pending.pop() {
            for &child in &self.nodes[id].children {
                let mut p = path.clone();
                p.push(';');
                p.push_str(self.nodes[child].phase.name());
                pending.push((child, p));
            }
            phases.insert(path, self.nodes[id].stats);
        }
        ProfileReport { phases }
    }
}

// -------------------------------------------------------------- report

/// Self-cost counters for one phase stack.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseStats {
    /// Times the stack was entered.
    pub calls: u64,
    /// Simulated microseconds attributed by the instrumented call sites.
    pub sim_us: u64,
    /// Host wall-clock nanoseconds (non-deterministic; excluded from
    /// [`ProfileReport::to_json`]).
    pub wall_ns: u64,
    /// Heap bytes requested while the stack was innermost.
    pub alloc_bytes: u64,
    /// Heap allocations requested while the stack was innermost.
    pub allocs: u64,
}

impl PhaseStats {
    fn add(&mut self, other: &PhaseStats) {
        self.calls += other.calls;
        self.sim_us += other.sim_us;
        self.wall_ns += other.wall_ns;
        self.alloc_bytes += other.alloc_bytes;
        self.allocs += other.allocs;
    }
}

/// The metric a folded-stack export carries per line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FoldedMetric {
    /// Host wall-clock nanoseconds (the classic flamegraph input;
    /// non-deterministic, sidecar only).
    WallNs,
    /// Simulated microseconds.
    SimUs,
    /// Allocated bytes.
    AllocBytes,
    /// Allocation count.
    Allocs,
    /// Call count.
    Calls,
}

impl FoldedMetric {
    /// Parse a CLI metric name.
    pub fn parse(s: &str) -> Option<FoldedMetric> {
        Some(match s {
            "wall_ns" => FoldedMetric::WallNs,
            "sim_us" => FoldedMetric::SimUs,
            "alloc_bytes" => FoldedMetric::AllocBytes,
            "allocs" => FoldedMetric::Allocs,
            "calls" => FoldedMetric::Calls,
            _ => return None,
        })
    }

    fn pick(self, s: &PhaseStats) -> u64 {
        match self {
            FoldedMetric::WallNs => s.wall_ns,
            FoldedMetric::SimUs => s.sim_us,
            FoldedMetric::AllocBytes => s.alloc_bytes,
            FoldedMetric::Allocs => s.allocs,
            FoldedMetric::Calls => s.calls,
        }
    }
}

/// Merged per-stack self costs of one run (or, after [`merge`], of many).
///
/// Keys are `;`-joined phase stacks rooted at `run`
/// (`run;wal_append;wal_flush`). Values are *self* costs — summing a
/// subtree reconstructs inclusive cost, which is exactly what flamegraph
/// tooling does with [`folded`] output.
///
/// [`merge`]: ProfileReport::merge
/// [`folded`]: ProfileReport::folded
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileReport {
    phases: BTreeMap<String, PhaseStats>,
}

impl ProfileReport {
    /// Merge another report in: per-stack sums, commutative and
    /// associative, so any merge order (and any `--jobs N` partition)
    /// yields the same report.
    pub fn merge(&mut self, other: &ProfileReport) {
        for (path, stats) in &other.phases {
            self.phases.entry(path.clone()).or_default().add(stats);
        }
    }

    /// The stacks and their stats, in sorted path order.
    pub fn phases(&self) -> impl Iterator<Item = (&str, &PhaseStats)> {
        self.phases.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Stats for one exact stack path.
    pub fn get(&self, path: &str) -> Option<&PhaseStats> {
        self.phases.get(path)
    }

    /// True when no run contributed any phases.
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }

    /// Deterministic JSON: sorted stacks, integer fields, **no
    /// `wall_ns`** — this is the golden-comparable form.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"profile_schema\":1,\"phases\":{");
        let mut first = true;
        for (path, s) in &self.phases {
            if !first {
                out.push(',');
            }
            first = false;
            push_json_str(&mut out, path);
            out.push(':');
            let mut w = ObjWriter::begin(&mut out);
            w.u64("calls", s.calls)
                .u64("sim_us", s.sim_us)
                .u64("alloc_bytes", s.alloc_bytes)
                .u64("allocs", s.allocs);
            w.end();
        }
        out.push_str("}}");
        out
    }

    /// Folded-stack export (`stack value` per line, `;`-separated
    /// frames): feed straight to `flamegraph.pl` / `inferno-flamegraph`.
    /// Zero-valued stacks are kept so the stack set itself is stable
    /// across metrics.
    pub fn folded(&self, metric: FoldedMetric) -> String {
        let mut out = String::new();
        for (path, s) in &self.phases {
            out.push_str(path);
            out.push(' ');
            out.push_str(&metric.pick(s).to_string());
            out.push('\n');
        }
        out
    }

    /// Human-readable table *including wall clock* — stderr material,
    /// never canonical output.
    pub fn render_table(&self) -> String {
        let width = self
            .phases
            .keys()
            .map(|k| k.len())
            .max()
            .unwrap_or(5)
            .max(5);
        let mut out = format!(
            "{:<width$}  {:>10}  {:>12}  {:>12}  {:>10}  {:>12}\n",
            "phase", "calls", "sim_us", "alloc_bytes", "allocs", "wall_us"
        );
        for (path, s) in &self.phases {
            out.push_str(&format!(
                "{:<width$}  {:>10}  {:>12}  {:>12}  {:>10}  {:>12}\n",
                path,
                s.calls,
                s.sim_us,
                s.alloc_bytes,
                s.allocs,
                s.wall_ns / 1_000,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_alloc_tallies_requests() {
        let (b0, c0) = allocation_counts();
        unsafe {
            let layout = Layout::from_size_align(64, 8).unwrap();
            let p = CountingAlloc.alloc(layout);
            assert!(!p.is_null());
            let p = CountingAlloc.realloc(p, layout, 96);
            assert!(!p.is_null());
            let layout = Layout::from_size_align(96, 8).unwrap();
            CountingAlloc.dealloc(p, layout);
            let z = CountingAlloc.alloc_zeroed(Layout::from_size_align(16, 8).unwrap());
            assert!(!z.is_null());
            CountingAlloc.dealloc(z, Layout::from_size_align(16, 8).unwrap());
        }
        let (b1, c1) = allocation_counts();
        assert_eq!(b1 - b0, 64 + 96 + 16);
        assert_eq!(c1 - c0, 3, "dealloc is not an allocation");
    }

    #[test]
    fn nesting_builds_stack_paths_with_self_costs() {
        let mut p = PhaseProfiler::new();
        let outer = p.enter(Phase::PlacementScore);
        let inner = p.enter(Phase::BufferLookup);
        p.exit(inner, 40);
        let inner = p.enter(Phase::BufferLookup);
        p.exit(inner, 2);
        p.exit(outer, 0);
        let top = p.enter(Phase::BufferLookup);
        p.exit(top, 7);
        p.add_root_sim_us(1000);
        let report = p.report();
        let nested = report.get("run;placement_score;buffer_lookup").unwrap();
        assert_eq!(nested.calls, 2);
        assert_eq!(nested.sim_us, 42);
        let flat = report.get("run;buffer_lookup").unwrap();
        assert_eq!(flat.calls, 1);
        assert_eq!(flat.sim_us, 7);
        assert_eq!(report.get("run;placement_score").unwrap().sim_us, 0);
        assert_eq!(report.get("run").unwrap().sim_us, 1000);
        assert_eq!(report.get("run").unwrap().calls, 1);
    }

    #[test]
    fn merge_is_order_independent() {
        let mk = |n: u64| {
            let mut p = PhaseProfiler::new();
            for _ in 0..n {
                let t = p.enter(Phase::WalFlush);
                p.exit(t, 10);
            }
            p.report()
        };
        let (a, b, c) = (mk(1), mk(2), mk(3));
        let mut left = ProfileReport::default();
        left.merge(&a);
        left.merge(&b);
        left.merge(&c);
        let mut right = ProfileReport::default();
        right.merge(&c);
        right.merge(&a);
        right.merge(&b);
        assert_eq!(left.to_json(), right.to_json());
        assert_eq!(left.get("run;wal_flush").unwrap().calls, 6);
        assert_eq!(left.get("run;wal_flush").unwrap().sim_us, 60);
    }

    #[test]
    fn json_excludes_wall_and_folded_selects_metric() {
        let mut p = PhaseProfiler::new();
        let t = p.enter(Phase::EventPop);
        p.exit(t, 5);
        let report = p.report();
        let json = report.to_json();
        assert!(json.starts_with("{\"profile_schema\":1,"));
        assert!(json.contains("\"run;event_pop\":{\"calls\":1,\"sim_us\":5,"));
        assert!(
            !json.contains("wall_ns"),
            "wall clock must not leak: {json}"
        );
        let folded = report.folded(FoldedMetric::SimUs);
        assert!(folded.contains("run;event_pop 5\n"), "{folded}");
        let calls = report.folded(FoldedMetric::Calls);
        assert!(calls.contains("run;event_pop 1\n"));
        let table = report.render_table();
        assert!(table.contains("wall_us"));
    }

    #[test]
    fn folded_metric_parse_roundtrip() {
        for (name, metric) in [
            ("wall_ns", FoldedMetric::WallNs),
            ("sim_us", FoldedMetric::SimUs),
            ("alloc_bytes", FoldedMetric::AllocBytes),
            ("allocs", FoldedMetric::Allocs),
            ("calls", FoldedMetric::Calls),
        ] {
            assert_eq!(FoldedMetric::parse(name), Some(metric));
        }
        assert_eq!(FoldedMetric::parse("bogus"), None);
    }
}
