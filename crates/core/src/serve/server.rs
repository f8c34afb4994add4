//! The multi-client TCP server: configuration, lifecycle and report.
//!
//! Std-only threading: one accept thread (which also owns start-up and
//! drain), a reader + driver pair per connection ([`super::conn`]), a
//! bank of executor workers over the one bounded job queue
//! ([`super::exec`]), and an optional Prometheus listener; none of them
//! naps ([`wake`]). The server keeps only cumulative books: a reader
//! that wants a window (`semclusterctl top`, a PromQL `rate`)
//! differences two snapshots itself. The two [`ServeMode`]s share all
//! of it and differ only in the backend the workers call: the oracle's
//! one worker steps a deterministic [`crate::Engine`], so REPORT is
//! byte-identical to [`crate::run_simulation`] — the equivalence
//! contract that keeps the simulator the correctness oracle for the
//! served path — while concurrent mode drives one shared core under
//! locks and group commit and, at drain, checks every acknowledged
//! transaction against the tokens its committer forced.
//!
//! Hardening on every path, in both modes: per-request deadlines
//! (expired work is dropped, typed timeout replies), admission control
//! with hysteresis ([`AdmissionControl`]), a bounded queue with
//! backpressure, drain-then-close shutdown (in-flight transactions
//! finish and are acked; new work gets a typed shutting-down error), and
//! a thread that cannot be started costs one connection or an unclean
//! drain, never a panicked accept thread.

use std::io::Write as _;
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown as SockShutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use semcluster_faults::RetryPolicy;

use super::admission::AdmissionControl;
use super::conn::{open_conn, Conn, ConnEvent};
use super::exec::{Backend, Job};
use super::stats::{RequestTraceRecord, ServeStats, StatsSnapshot};
use super::{spawn, ServeError};
use crate::config::SimConfig;

/// The server's clock tick, in milliseconds: how often a connection
/// driver with nothing to read sweeps its deadlines.
pub(super) const TICK_MS: u64 = 20;

/// Admission hysteresis: shedding starts at `queue_cap` and ends after
/// [`ADMISSION_CALM_WINDOW`] consecutive admission decisions that saw the
/// queue at or below this percentage of it.
const ADMISSION_EXIT_PCT: usize = 50;
const ADMISSION_CALM_WINDOW: usize = 16;

/// What backs transaction execution.
#[derive(Debug, Clone)]
pub enum ServeMode {
    /// Deterministic single-engine mode: the simulator is the server.
    Oracle(Box<SimConfig>),
    /// Threaded shared-core mode with locking, WAL and group commit.
    Concurrent,
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Execution backend.
    pub mode: ServeMode,
    /// Executor worker threads (concurrent mode). Oracle mode runs
    /// exactly one worker whatever this says: every request serialising
    /// through one engine is its contract.
    pub workers: usize,
    /// Bounded execution-queue capacity; also the admission-control
    /// enter threshold.
    pub queue_cap: usize,
    /// Default per-request deadline when a TXN carries none.
    pub default_deadline_ms: u32,
    /// Per-connection pipelining bound (in-flight transactions).
    pub max_inflight_per_conn: usize,
    /// Retry budget for lock conflicts, counted in elapsed time: attempt
    /// `k` lasts `backoff_after(k)` µs of waiting for a release, and the
    /// request's deadline ends the wait early.
    pub retry: RetryPolicy,
    /// Extra wall-clock microseconds the committer waits before each
    /// force, standing in for a slower log device. 0 (the default)
    /// forces a batch the moment there is one: the batch is whatever
    /// was handed off while the previous force and its acks ran.
    pub group_window_us: u64,
    /// Object-id space for concurrent-mode transactions.
    pub objects: u32,
    /// Optional address for the Prometheus text-exposition listener
    /// (`None` = no metrics endpoint).
    pub metrics_addr: Option<String>,
    /// Per-request attribution records to retain for the Chrome-trace
    /// server lane (0 = off).
    pub trace_requests: usize,
    /// How long an idle connection stays open for read-only probes
    /// (STATS/PING) once the drain begins, before the server closes it.
    /// 0 (the default) closes idle connections the moment the drain
    /// starts; a BYE always closes immediately regardless.
    pub drain_linger_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            mode: ServeMode::Concurrent,
            workers: 4,
            queue_cap: 256,
            default_deadline_ms: 1_000,
            max_inflight_per_conn: 1_024,
            retry: RetryPolicy::default(),
            group_window_us: 0,
            objects: 4_096,
            metrics_addr: None,
            trace_requests: 0,
            drain_linger_ms: 0,
        }
    }
}

/// Final server report, produced when the accept loop drains.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
    /// Peak simultaneous logical sessions.
    pub sessions_peak: u64,
    /// Transactions made durable (group-commit flushed).
    pub committed: u64,
    /// Transactions acknowledged to clients (ack strictly after the
    /// commit force).
    pub acked: u64,
    /// Requests shed with the typed overloaded error.
    pub sheds: u64,
    /// Deadline-expiry replies sent.
    pub deadline_misses: u64,
    /// Malformed-frame rejections.
    pub malformed: u64,
    /// Retry-budget exhaustions.
    pub retry_exhausted: u64,
    /// Requests rejected because the server was draining.
    pub shutdown_rejected: u64,
    /// Group-commit batches flushed.
    pub group_commits: u64,
    /// Physical log forces those batches cost.
    pub group_forces: u64,
    /// Transactions carried by those batches.
    pub group_txns: u64,
    /// Acked transactions no group force committed. Must be zero: an
    /// ack is a durability promise.
    pub acid_violations: u64,
    /// All connections drained and joined cleanly.
    pub clean_drain: bool,
    /// Final telemetry snapshot (the same shape STATS serves live),
    /// taken after every recorder thread joined, so it is exact.
    pub stats: StatsSnapshot,
    /// Retained per-request attribution records, when
    /// [`ServeConfig::trace_requests`] was nonzero.
    pub request_trace: Vec<RequestTraceRecord>,
}

impl ServeReport {
    /// Canonical JSON (stable field order).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"connections\": {},\n", self.connections));
        out.push_str(&format!("  \"sessions_peak\": {},\n", self.sessions_peak));
        out.push_str(&format!("  \"committed\": {},\n", self.committed));
        out.push_str(&format!("  \"acked\": {},\n", self.acked));
        out.push_str(&format!("  \"sheds\": {},\n", self.sheds));
        out.push_str(&format!(
            "  \"deadline_misses\": {},\n",
            self.deadline_misses
        ));
        out.push_str(&format!("  \"malformed\": {},\n", self.malformed));
        out.push_str(&format!(
            "  \"retry_exhausted\": {},\n",
            self.retry_exhausted
        ));
        out.push_str(&format!(
            "  \"shutdown_rejected\": {},\n",
            self.shutdown_rejected
        ));
        out.push_str(&format!("  \"group_commits\": {},\n", self.group_commits));
        out.push_str(&format!("  \"group_forces\": {},\n", self.group_forces));
        out.push_str(&format!("  \"group_txns\": {},\n", self.group_txns));
        out.push_str(&format!(
            "  \"acid_violations\": {},\n",
            self.acid_violations
        ));
        out.push_str(&format!("  \"clean_drain\": {}\n", self.clean_drain));
        out.push_str("}\n");
        out
    }
}

/// What every server thread shares.
pub(super) struct Shared {
    pub(super) cfg: ServeConfig,
    pub(super) stats: ServeStats,
    pub(super) shutdown: Arc<AtomicBool>,
    /// Where the acceptor listens, for [`wake`] (`None` where none runs).
    pub(super) listen_addr: Option<SocketAddr>,
    start: Instant,
    pub(super) admission: Mutex<AdmissionControl>,
    pub(super) acked_tokens: Mutex<Vec<u64>>,
    /// Producer side of the one execution queue; each connection driver
    /// clones it, and the drain takes it so the workers see the end.
    pub(super) exec: Mutex<Option<SyncSender<Job>>>,
    pub(super) backend: Backend,
    /// Stops the Prometheus endpoint. It runs until the drain has
    /// completed, so operators can watch the drain itself.
    watchers_stop: AtomicBool,
    pub(super) request_trace: Mutex<Vec<RequestTraceRecord>>,
}

impl Shared {
    pub(super) fn new(
        cfg: ServeConfig,
        shutdown: Arc<AtomicBool>,
        exec: Option<SyncSender<Job>>,
    ) -> Shared {
        Shared {
            admission: Mutex::new(AdmissionControl::new(
                cfg.queue_cap,
                ADMISSION_EXIT_PCT,
                ADMISSION_CALM_WINDOW,
            )),
            backend: Backend::new(&cfg),
            watchers_stop: AtomicBool::new(false),
            cfg,
            stats: ServeStats::new(),
            shutdown,
            listen_addr: None,
            start: Instant::now(),
            acked_tokens: Mutex::new(Vec::new()),
            exec: Mutex::new(exec),
            request_trace: Mutex::new(Vec::new()),
        }
    }

    pub(super) fn now_ms(&self) -> u64 {
        self.start.elapsed().as_millis() as u64
    }

    pub(super) fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    /// Full telemetry snapshot of the cumulative registry. The only
    /// wall-clock read is `uptime_ms`, injected here — the
    /// snapshot/render code itself stays pure.
    pub(super) fn snapshot(&self) -> StatsSnapshot {
        self.stats
            .snapshot(self.now_ms(), self.shutdown.load(Ordering::SeqCst))
    }

    pub(super) fn stats_json(&self) -> String {
        self.snapshot().to_json()
    }
}

/// Take `mutex`'s guard even if a panicking holder poisoned it: every
/// serve mutex guards plain data a panic cannot leave half-written.
pub(super) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A running server, owned by the thread that called [`Server::start`].
pub struct ServerHandle {
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    shutdown: Arc<AtomicBool>,
    join: JoinHandle<ServeReport>,
}

impl ServerHandle {
    /// The bound address (useful with `addr = "127.0.0.1:0"`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound Prometheus-exposition address, when
    /// [`ServeConfig::metrics_addr`] was set.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Begin graceful drain: stop accepting, finish in-flight
    /// transactions, reject new work, close connections.
    pub fn request_shutdown(&self) {
        wake(&self.shutdown, Some(self.addr));
    }

    /// Whether drain has been requested (by signal, client SHUTDOWN
    /// frame, or [`ServerHandle::request_shutdown`]).
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Wait for drain to finish and collect the final report (with the
    /// ACID verdict: every acked transaction was forced).
    pub fn join(self) -> Result<ServeReport, ServeError> {
        self.join
            .join()
            .map_err(|_| ServeError::Internal("server thread panicked".into()))
    }
}

/// The TCP server front-end.
pub struct Server;

impl Server {
    /// Bind `addr` and start serving in background threads. Returns
    /// once the listener is bound.
    pub fn start(cfg: ServeConfig, addr: &str) -> Result<ServerHandle, ServeError> {
        let (listener, bound) = bind(addr, "")?;
        // Bind the metrics endpoint up front so the caller learns the
        // resolved port (metrics_addr may be ":0") before any traffic.
        let metrics = match &cfg.metrics_addr {
            Some(addr) => Some(bind(addr, "metrics ")?),
            None => None,
        };
        let metrics_addr = metrics.as_ref().map(|&(_, addr)| addr);
        let shutdown = Arc::new(AtomicBool::new(false));
        let shutdown2 = Arc::clone(&shutdown);
        let join = spawn("serve-accept".into(), move || {
            accept_loop((listener, bound), metrics, cfg, shutdown2)
        })?;
        Ok(ServerHandle {
            addr: bound,
            metrics_addr,
            shutdown,
            join,
        })
    }
}

/// Bind a (blocking) listener and resolve the address it took.
fn bind(addr: &str, what: &str) -> Result<(TcpListener, SocketAddr), ServeError> {
    let net = |step: &str, e| ServeError::net(format!("{step} {what}{addr}"), &e);
    let listener = TcpListener::bind(addr).map_err(|e| net("bind", e))?;
    let bound = listener.local_addr().map_err(|e| net("local_addr", e))?;
    Ok((listener, bound))
}

/// Accept until `stop` is set, handing each connection to `on_conn`.
/// The accept blocks until a client or a [`wake`] arrives; what arrives
/// once `stop` is set is dropped unserved. Only a failed accept (out of
/// descriptors, say) backs off, for 5 ms.
fn accept_until(listener: &TcpListener, stop: &AtomicBool, mut on_conn: impl FnMut(TcpStream)) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok(_) if stop.load(Ordering::SeqCst) => break,
            Ok((stream, _peer)) => on_conn(stream),
            Err(_) => thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// Set `stop`, then end the blocking accept on `addr` (if named) with
/// one throwaway connection, which is never counted as a client.
pub(super) fn wake(stop: &AtomicBool, addr: Option<SocketAddr>) {
    stop.store(true, Ordering::SeqCst);
    if let Some(addr) = addr {
        let _ = TcpStream::connect(wake_addr(addr));
    }
}

/// An unspecified IP (`0.0.0.0`, `::`) is not connectable: it maps to
/// the loopback of its family.
fn wake_addr(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

/// Minimal read-only HTTP/1.0-style responder for Prometheus scrapes.
/// One request per connection: read whatever the scraper sends (the
/// request line and headers are ignored — every path serves the same
/// exposition), write one `200 OK` with the rendered snapshot, close.
fn metrics_conn(mut stream: TcpStream, shared: &Shared) {
    stream
        .set_read_timeout(Some(Duration::from_millis(500)))
        .ok();
    let mut buf = [0u8; 1024];
    let _ = std::io::Read::read(&mut stream, &mut buf);
    let body = shared.snapshot().to_prometheus();
    let resp = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    );
    let _ = stream.write_all(resp.as_bytes());
    let _ = stream.flush();
    let _ = stream.shutdown(SockShutdown::Both);
}

fn accept_loop(
    (listener, addr): (TcpListener, SocketAddr),
    metrics: Option<(TcpListener, SocketAddr)>,
    cfg: ServeConfig,
    shutdown: Arc<AtomicBool>,
) -> ServeReport {
    // The one execution queue: bounded, and shared by both modes.
    let (jobs, job_rx) = mpsc::sync_channel::<Job>(cfg.queue_cap.max(1));
    let shared = Arc::new(Shared {
        listen_addr: Some(addr),
        ..Shared::new(cfg, Arc::clone(&shutdown), Some(jobs))
    });
    let (mut workers, mut watcher) = (Vec::new(), None);
    let start_threads = || -> Result<(), ServeError> {
        shared
            .backend
            .spawn_workers(job_rx, &shared, &mut workers)?;
        if let Some((listener, addr)) = metrics {
            let shared2 = Arc::clone(&shared);
            let thread = spawn("serve-metrics".into(), move || {
                let serve = |stream| metrics_conn(stream, &shared2);
                accept_until(&listener, &shared2.watchers_stop, serve)
            })?;
            watcher = Some((thread, addr));
        }
        Ok(())
    };
    // A server that cannot start one of its own threads drains at once
    // and says so in its report.
    let clean_drain = start_threads().is_ok();
    if !clean_drain {
        shutdown.store(true, Ordering::SeqCst);
    }

    // Accept until drain is requested. A connection whose threads cannot
    // be started has been closed by `open_conn`; the rest are served.
    let mut conns: Vec<Conn> = Vec::new();
    accept_until(&listener, &shutdown, |stream| {
        let spawner = &mut |name, task| spawn(name, task);
        if let Ok(conn) = open_conn(stream, conns.len() as u32, &shared, spawner) {
            conns.push(conn);
        }
    });
    drain(&shared, conns, workers, watcher, clean_drain)
}

/// Drain the connections and the executor, then stop the metrics
/// listener (`watcher`: its thread and address) and take the final
/// report.
fn drain(
    shared: &Shared,
    conns: Vec<Conn>,
    workers: Vec<JoinHandle<()>>,
    watcher: Option<(JoinHandle<()>, SocketAddr)>,
    mut clean_drain: bool,
) -> ServeReport {
    for conn in &conns {
        let _ = conn.tx.send(ConnEvent::Shutdown);
    }
    for conn in conns {
        let _ = conn.driver.join();
        let _ = conn.reader.join();
    }
    lock(&shared.exec).take();
    for h in workers {
        clean_drain &= h.join().is_ok();
    }
    let acid_violations = shared.backend.drain_verdict(&lock(&shared.acked_tokens));

    // Stop watching only once the final (exact — all recorders joined)
    // snapshot is about to be taken.
    if let Some((thread, addr)) = watcher {
        wake(&shared.watchers_stop, Some(addr));
        let _ = thread.join();
    }

    let stats = shared.snapshot();
    let request_trace = std::mem::take(&mut *lock(&shared.request_trace));
    ServeReport {
        connections: stats.counter("connections"),
        sessions_peak: stats.gauge("sessions_peak"),
        committed: stats.counter("committed"),
        acked: stats.counter("acked"),
        sheds: stats.counter("err.overloaded"),
        deadline_misses: stats.counter("err.deadline"),
        malformed: stats.counter("err.malformed"),
        retry_exhausted: stats.counter("err.retry_exhausted"),
        shutdown_rejected: stats.counter("err.shutting_down"),
        group_commits: stats.counter("group_commits"),
        group_forces: stats.counter("group_forces"),
        group_txns: stats.counter("group_txns"),
        acid_violations,
        clean_drain,
        stats,
        request_trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_wake_address_of_an_unspecified_ip_is_its_loopback() {
        let wake = |bound: &str| wake_addr(bound.parse().expect("socket address")).to_string();
        assert_eq!(wake("0.0.0.0:7489"), "127.0.0.1:7489");
        assert_eq!(wake("[::]:7489"), "[::1]:7489");
        assert_eq!(wake("10.1.2.3:7489"), "10.1.2.3:7489");
        assert_eq!(wake("[fe80::1]:7489"), "[fe80::1]:7489");
    }

    #[test]
    fn a_panicked_peer_holding_the_acked_tokens_does_not_stop_the_drain() {
        let cfg = ServeConfig::default();
        let shared = Arc::new(Shared::new(cfg, Arc::new(AtomicBool::new(false)), None));
        let peer = Arc::clone(&shared);
        let panicked = thread::spawn(move || {
            let _acked = peer.acked_tokens.lock();
            panic!("a connection driver panics holding the acked tokens");
        })
        .join();
        assert!(panicked.is_err());
        assert!(shared.acked_tokens.is_poisoned());

        let report = drain(&shared, Vec::new(), Vec::new(), None, true);
        assert!(report.clean_drain);
        assert_eq!(report.acid_violations, 0);
    }
}
