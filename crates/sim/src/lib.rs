//! # semcluster-sim
//!
//! A small deterministic discrete-event simulation kernel — the stand-in
//! for the proprietary PAWS modelling system the paper used.
//!
//! The kernel supplies exactly the queueing-network primitives the
//! engineering-database model of Chang & Katz needs:
//!
//! * a microsecond-resolution clock and future-event list
//!   ([`EventQueue`]) with FIFO tie-breaking for reproducibility,
//! * FIFO servers ([`FcfsServer`], [`ServerBank`]) whose completions are
//!   computable at submission time,
//! * seeded random variates ([`SimRng`]),
//! * output analysis ([`OnlineStats`], [`Histogram`]) and the mean ± CI
//!   summary of replicated runs ([`Estimate`]).
//!
//! ```
//! use semcluster_sim::{EventQueue, FcfsServer, SimDuration, SimTime};
//!
//! // One user alternates think time and a disk access.
//! enum Ev { ThinkDone, IoDone }
//! let mut q = EventQueue::new();
//! let mut disk = FcfsServer::new("disk");
//! q.schedule(SimTime::from_secs(4), Ev::ThinkDone);
//! let mut completed = 0;
//! while let Some((now, ev)) = q.pop() {
//!     match ev {
//!         Ev::ThinkDone => {
//!             let done = disk.submit(now, SimDuration::from_millis(28));
//!             q.schedule(done, Ev::IoDone);
//!         }
//!         Ev::IoDone => {
//!             completed += 1;
//!             if completed < 3 {
//!                 q.schedule(now + SimDuration::from_secs(4), Ev::ThinkDone);
//!             }
//!         }
//!     }
//! }
//! assert_eq!(completed, 3);
//! assert_eq!(disk.jobs(), 3);
//! ```

#![warn(missing_docs)]

mod event;
mod experiment;
mod rng;
mod server;
mod stats;
mod time;

pub use event::EventQueue;
pub use experiment::Estimate;
pub use rng::SimRng;
pub use server::{FcfsServer, ServerBank};
pub use stats::{Histogram, OnlineStats};
pub use time::{SimDuration, SimTime};
