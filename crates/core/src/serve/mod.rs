//! Multi-client serving: wire protocol, connection FSM, admission
//! control, the threaded TCP server, and the chaos-driven load
//! generator.
//!
//! The layering keeps the deterministic parts pure and the impure
//! parts thin:
//!
//! * [`protocol`] and the connection FSM ([`ConnFsm`]) are pure —
//!   bytes/events in, actions out, time passed as an argument — so
//!   deadline/drain/malformed races are unit-tested deterministically;
//! * [`AdmissionControl`] is a pure hysteresis controller over queue
//!   depth observations;
//! * [`stats`] is the live-telemetry layer — an atomic [`ServeStats`]
//!   registry (one name table, `semcluster_obs`'s histogram cells) of
//!   cumulative counters, gauges and histograms, taking time only as
//!   injected arguments. The server keeps no window of its own: a
//!   reader differences two snapshots;
//! * the impure rest is three modules along one seam: `server`
//!   ([`Server`]: config, report, start/accept/drain, metrics endpoint),
//!   `conn` (reader, driver, and `submit` — the one admission gate into
//!   the one bounded queue) and `exec` (the worker loop and the backend
//!   behind it: the shared core with its committer, or the oracle's
//!   engine); [`run_load`] is the client side. Every thread any of them
//!   starts goes through `spawn`, which returns a typed error.
//!
//! The simulator remains the oracle: `ServeMode::Oracle` serves a
//! deterministic [`crate::Engine`] — through the same gate, queue,
//! deadline check and worker loop as concurrent traffic — whose REPORT
//! bytes must equal [`crate::run_simulation`]'s, and concurrent mode
//! must drain with zero ACID violations (every acked transaction was
//! forced by a group commit).

mod admission;
mod conn;
mod exec;
mod load;
mod protocol;
mod server;
mod session;
pub mod stats;

pub use admission::AdmissionControl;
pub use load::{run_load, LoadConfig, LoadSummary};
pub use protocol::{
    read_frame, write_frame, ErrorKind, Frame, FrameDecoder, ProtocolError, Request, Response,
    TxnOp, TxnRequest, MAX_FRAME_BYTES, MAX_TXN_OPS,
};
pub use server::{ServeConfig, ServeMode, ServeReport, Server, ServerHandle};
pub use session::{ConnFsm, ConnState, ExecResult, FsmAction, FsmInput};
pub use stats::{
    RequestCounts, RequestSpans, RequestStamps, RequestTraceRecord, ServeStats, StatsSnapshot,
    COUNTER_NAMES, SPAN_NAMES, STATS_SCHEMA,
};

/// Typed failures on the serve/load paths. Each variant maps to a
/// distinct CLI exit code so scripts can tell transport failures from
/// protocol violations from correctness violations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// Socket/bind/spawn failure (CLI exit 5: service unavailable).
    Net {
        /// What was being attempted.
        context: String,
        /// Underlying I/O error text.
        source: String,
    },
    /// The peer violated the wire protocol (CLI exit 6).
    Protocol(ProtocolError),
    /// The server shed the request under load.
    Overloaded,
    /// The per-request deadline expired.
    DeadlineExceeded,
    /// The server is draining.
    ShuttingDown,
    /// Transient conflicts exhausted the retry budget.
    RetryExhausted {
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// Acked transactions were not durable at drain (CLI exit 7).
    Acid {
        /// Number of acked transactions no group force committed.
        violations: u64,
    },
    /// Unexpected internal failure.
    Internal(String),
}

impl ServeError {
    /// A [`ServeError::Net`] for the step `context` names.
    fn net(context: impl Into<String>, source: &std::io::Error) -> ServeError {
        ServeError::Net {
            context: context.into(),
            source: source.to_string(),
        }
    }
}

/// Start a named thread. The one spawn site of the serve path: a thread
/// the OS refuses is a typed error for the caller to contain, not a
/// panic.
fn spawn<T: Send + 'static>(
    name: String,
    body: impl FnOnce() -> T + Send + 'static,
) -> Result<std::thread::JoinHandle<T>, ServeError> {
    let context = format!("spawn {name}");
    std::thread::Builder::new()
        .name(name)
        .spawn(body)
        .map_err(|e| ServeError::net(context, &e))
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Net { context, source } => {
                write!(f, "network failure ({context}): {source}")
            }
            ServeError::Protocol(e) => write!(f, "protocol violation: {e}"),
            ServeError::Overloaded => write!(f, "server overloaded"),
            ServeError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ServeError::ShuttingDown => write!(f, "server shutting down"),
            ServeError::RetryExhausted { attempts } => {
                write!(f, "retry budget exhausted after {attempts} attempts")
            }
            ServeError::Acid { violations } => {
                write!(f, "{violations} acked transaction(s) not durable at drain")
            }
            ServeError::Internal(msg) => write!(f, "internal serve failure: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ProtocolError> for ServeError {
    fn from(e: ProtocolError) -> Self {
        ServeError::Protocol(e)
    }
}
