//! # semcluster-workload
//!
//! The workload-definition layer of the simulation model (§4.1) plus the
//! Section 3 measurement study, reconstructed:
//!
//! * the seven engineering-DB query types ([`QueryKind`]),
//! * workload characterisation by structure density and read/write ratio
//!   ([`StructureDensity`], [`WorkloadSpec`]), optionally phased
//!   ([`PhaseSchedule`]), and the synthetic database a density implies
//!   ([`StructureDensity::database_spec`]),
//! * the transaction vocabulary ([`Transaction`], [`TxnOp`]) and the one
//!   way to produce it: a [`Generator`] holding each user's session of
//!   5–20 transactions and its working set, which the engine asks for
//!   the next transaction and then executes — the generator is the
//!   "users" box of Figure 4.1, the engine everything behind it,
//! * OCT tool profiles ([`oct_tools`]) encoding Figures 3.2–3.4, a
//!   synthetic trace generator ([`generate_trace`]) and the analyzer
//!   ([`analyze`]) that recovers those figures from a trace.

#![warn(missing_docs)]

mod generator;
pub mod oct;
mod phases;
mod query;
mod session;
mod spec;
pub mod trace;

pub use generator::Generator;
pub use oct::{oct_tools, ToolProfile};
pub use phases::PhaseSchedule;
pub use query::QueryKind;
pub use session::{CreateMode, Transaction, TxnOp};
pub use spec::{StructureDensity, WorkloadSpec};
pub use trace::{analyze, generate_invocation, generate_trace, Invocation, ToolStats, TraceOp};
