//! Typed CLI errors carrying a distinct process exit code, so CI can
//! tell a rejected flag, a schema mismatch or an unreachable server
//! from an ordinary failure without parsing stderr.

use std::fmt;
use std::ops::Deref;

/// Ordinary failure.
pub const EXIT_FAILURE: i32 = 1;
/// Bad command line: an unknown subcommand or flag, a stray argument,
/// or a flag value outside its domain. Nothing ran.
pub const EXIT_USAGE: i32 = 2;
/// A peer's snapshot carries a schema version this build cannot read.
pub const EXIT_BAD_SCHEMA: i32 = 4;
/// A network operation (bind, connect, send) failed: the service is
/// unavailable.
pub const EXIT_UNAVAILABLE: i32 = 5;
/// A peer violated the wire protocol.
pub const EXIT_PROTOCOL: i32 = 6;
/// The server acknowledged transactions that recovery does not count
/// as winners — a broken durability promise.
pub const EXIT_ACID: i32 = 7;

/// A CLI error: the message `main` prints to stderr plus the process
/// exit code it exits with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// Human-readable message.
    pub message: String,
    /// Process exit code (one of the `EXIT_*` constants).
    pub code: i32,
}

impl CliError {
    fn new(code: i32, message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            code,
        }
    }

    /// An ordinary failure (exit code 1).
    pub fn general(message: impl Into<String>) -> Self {
        Self::new(EXIT_FAILURE, message)
    }

    /// The command line is unusable (exit code 2).
    pub fn usage(message: impl Into<String>) -> Self {
        Self::new(EXIT_USAGE, message)
    }

    /// A snapshot has an unknown schema version (exit code 4).
    pub fn bad_schema(message: impl Into<String>) -> Self {
        Self::new(EXIT_BAD_SCHEMA, message)
    }

    /// A network operation failed (exit code 5).
    pub fn unavailable(message: impl Into<String>) -> Self {
        Self::new(EXIT_UNAVAILABLE, message)
    }

    /// A peer violated the wire protocol (exit code 6).
    pub fn protocol(message: impl Into<String>) -> Self {
        Self::new(EXIT_PROTOCOL, message)
    }

    /// Acked transactions were not durable at drain (exit code 7).
    pub fn acid(message: impl Into<String>) -> Self {
        Self::new(EXIT_ACID, message)
    }

    /// Map a serve-path error onto the CLI's typed exit codes.
    pub fn from_serve(e: &semcluster::serve::ServeError) -> Self {
        use semcluster::serve::ServeError;
        match e {
            ServeError::Net { .. } => CliError::unavailable(e.to_string()),
            ServeError::Protocol(_) => CliError::protocol(e.to_string()),
            ServeError::Acid { .. } => CliError::acid(e.to_string()),
            _ => CliError::general(e.to_string()),
        }
    }
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::general(message)
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

/// Lets call sites (and the test suite) treat the error as its message:
/// `err.contains("...")`, `err.starts_with("...")`.
impl Deref for CliError {
    type Target = str;

    fn deref(&self) -> &str {
        &self.message
    }
}
