//! Deterministic observability for the semcluster engine.
//!
//! The paper's whole argument is an *attribution* argument — response
//! time decomposed into candidate-search reads (§2.1a), log flushes
//! (Fig 5.5), prefetch traffic (§5.2) and buffer misses (Fig 5.11). This
//! crate provides the measurement substrate for that:
//!
//! * [`MetricsRegistry`] — named counters/gauges/histograms with
//!   hierarchical dotted scopes (`buffer.hit`, `wal.flush.commit`,
//!   `disk.3.busy_us`), snapshot/diff and JSON + ASCII-table export;
//! * [`Histogram`] / [`AtomicHistogram`] — the one log₂ histogram
//!   ([`HIST_BUCKETS`] fixed cells, one `quantile_bound`, exact `merge`
//!   and `since`), as the plain cell the registry and every snapshot
//!   hold and the lock-free cell the live server records into;
//! * [`TraceSink`] + [`TraceEvent`] — typed events stamped in simulated
//!   time, each event's fields listed once and written by both
//!   emitters: JSON Lines ([`JsonlSink`]) and the Chrome `trace_event`
//!   array ([`ChromeTraceSink`], whose record `args` are the JSONL
//!   fields less `t`); a free [`NoopSink`] default, and a
//!   `Vec<TraceEvent>` sink for tests that read events back typed. Each
//!   run-time placement decision is one [`TraceEvent::Placement`]
//!   record (candidates with [`milli`] scores, chosen and landed page,
//!   [`SplitVerdict`]), which is all `explain-placement` reads;
//! * [`PhaseProfiler`] + [`ProfileReport`] — hierarchical self-cost
//!   profiles of the engine's hot paths (calls, simulated time, heap
//!   allocation via [`CountingAlloc`], wall clock), with deterministic
//!   JSON and folded-stack (flamegraph) export.
//!
//! ## Determinism contract
//!
//! Everything here is a pure observer: no clocks, no RNG, no feedback
//! into the simulation. Timestamps are integer simulated microseconds
//! and all exports iterate sorted maps, so two runs of the same
//! configuration and seed produce **byte-identical** traces and
//! snapshots, and enabling any sink changes no simulation result.

#![warn(missing_docs)]

mod chrome;
mod json;
mod metrics;
mod profile;
mod timeline;
mod trace;

pub use chrome::ChromeTraceSink;
pub use metrics::{
    bucket_bound, AtomicHistogram, CounterId, Histogram, MetricsRegistry, MetricsSnapshot,
    HIST_BUCKETS,
};
pub use profile::{
    allocation_counts, CountingAlloc, FoldedMetric, Phase, PhaseProfiler, PhaseStats, PhaseToken,
    ProfileReport,
};
pub use timeline::{Timeline, TimelinePoint, TimelineSample, TimelineSampler};
pub use trace::{
    milli, shared, AbortCause, AuditKind, CandidateAudit, FaultOp, FlushCause, JsonlSink,
    LogFlushKind, NoopSink, ReadCause, SharedSink, SplitVerdict, SyncBuf, TraceEvent, TraceSink,
};
