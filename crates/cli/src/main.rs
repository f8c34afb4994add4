//! `semclusterctl` — command-line interface to the semcluster simulator.
//!
//! ```sh
//! semclusterctl simulate --workload hi10-100 --clustering nolimit --replacement ctx
//! semclusterctl trace --invocations 100
//! semclusterctl inspect --workload med5-10 --mbytes 16
//! semclusterctl reorg --modules 30
//! ```

use semcluster_cli::{dispatch, Args};

/// Thread-local allocation accounting for `simulate --profile` and the
/// profile golden suite. The wrapper forwards straight to the system
/// allocator, so binaries that register it pay two thread-local
/// increments per allocation and nothing else; binaries that don't
/// simply report zero allocation counts.
#[global_allocator]
static ALLOC: semcluster_obs::CountingAlloc = semcluster_obs::CountingAlloc;

fn main() {
    match Args::parse(std::env::args().skip(1)).and_then(|args| dispatch(&args)) {
        Ok(output) => print!("{output}"),
        Err(e) => {
            // The exit codes are listed once, on `dispatch`.
            eprintln!("error: {e}");
            std::process::exit(e.code);
        }
    }
}
