//! # semcluster-cli
//!
//! Library backing the `semclusterctl` binary: flag parsing ([`Args`]),
//! the subcommand table ([`commands::COMMANDS`], [`dispatch`]) and one
//! module per subcommand family, kept in a library so they are
//! unit-testable.

#![warn(missing_docs)]

pub mod args;
pub mod commands;
pub mod error;
pub mod golden;
pub mod servecmd;
pub mod simulate;
pub mod tools;
pub mod topcmd;
pub mod usage;

pub use args::Args;
pub use commands::dispatch;
pub use error::{
    CliError, EXIT_ACID, EXIT_BAD_SCHEMA, EXIT_FAILURE, EXIT_PROTOCOL, EXIT_UNAVAILABLE, EXIT_USAGE,
};
pub use usage::USAGE;
