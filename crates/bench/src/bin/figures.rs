//! The one exhibit runner.
//!
//! ```text
//! figures list                              print the registry
//! figures <name>… [--jobs N] [--verbose]    run the named exhibits
//! figures all     [--jobs N] [--verbose]    run the paper set in order
//! ```
//!
//! Everything runs in this process, exhibits in sequence, so stdout
//! order is fixed; `--jobs N` fans each exhibit's sweep out over N
//! worker threads, and stdout is byte-identical at any thread count
//! because every sweep assembles its results in submission order and
//! all wall-clock facts go to stderr. Honours `SEMCLUSTER_FAST` /
//! `SEMCLUSTER_REPS`.

use semcluster_bench::exhibits::{self, Exhibit, EXTRAS, PAPER_SET};
use semcluster_bench::FigureOpts;
use std::process::ExitCode;

const USAGE: &str = "usage: figures list | all | <name>… [--jobs N] [--verbose]";

fn main() -> ExitCode {
    match run(std::env::args().skip(1)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("figures: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn run(mut argv: impl Iterator<Item = String>) -> Result<(), String> {
    let mut opts = FigureOpts::from_env();
    let mut names = Vec::new();
    while let Some(arg) = argv.next() {
        if arg == "--verbose" {
            opts.verbose = true;
        } else if arg == "--jobs" || arg.starts_with("--jobs=") {
            let value = match arg.strip_prefix("--jobs=") {
                Some(v) => v.to_string(),
                None => argv.next().ok_or("--jobs needs a value")?,
            };
            opts.jobs = value
                .parse()
                .map_err(|_| format!("--jobs {value}: not a thread count"))?;
        } else if arg.starts_with("--") {
            return Err(format!("unknown flag {arg}"));
        } else {
            names.push(arg);
        }
    }
    let all = names == ["all"];
    let selected: Vec<&Exhibit> = match names.as_slice() {
        [] => return Err("no exhibit named".into()),
        [only] if only == "list" => {
            for (set, exhibits) in [("paper", PAPER_SET), ("extra", EXTRAS)] {
                for e in exhibits {
                    println!("{:<20}{set:<7}{} — {}", e.name, e.title, e.caption);
                }
            }
            return Ok(());
        }
        _ if all => PAPER_SET.iter().collect(),
        _ => names
            .iter()
            .map(|n| exhibits::find(n).ok_or(format!("unknown exhibit {n:?} (see `figures list`)")))
            .collect::<Result<_, _>>()?,
    };
    for (i, exhibit) in selected.iter().enumerate() {
        if i > 0 {
            println!();
        }
        exhibit.print(&opts);
    }
    if all {
        println!("\nall exhibits regenerated.");
    }
    Ok(())
}
