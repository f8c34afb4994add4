//! Minimal dependency-free flag parsing.

use crate::error::CliError;
use std::collections::BTreeMap;

/// Parsed command line: a subcommand, positional arguments and
/// `--key value` / `--flag` options.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The subcommand (first non-flag argument).
    pub command: Option<String>,
    /// Remaining positional arguments.
    pub positional: Vec<String>,
    options: BTreeMap<String, String>,
}

impl Args {
    /// Parse an argument list (without the program name).
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, CliError> {
        let mut args = Args::default();
        let mut iter = argv.into_iter().peekable();
        while let Some(arg) = iter.next() {
            if let Some(key) = arg.strip_prefix("--") {
                if key.is_empty() {
                    return Err(CliError::usage("stray `--`"));
                }
                let value = match iter.peek() {
                    Some(v) if !v.starts_with("--") => iter.next().expect("peeked"),
                    _ => "true".to_string(),
                };
                args.options.insert(key.to_string(), value);
            } else if args.command.is_none() {
                args.command = Some(arg);
            } else {
                args.positional.push(arg);
            }
        }
        Ok(args)
    }

    /// String option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// Typed option with default; an unparsable value is a usage error.
    pub fn get_parsed<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::usage(format!("--{key}: cannot parse {v:?}"))),
        }
    }

    /// Every `--key` given, in name order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.options.keys().map(String::as_str)
    }

    /// Boolean flag (present means true).
    pub fn flag(&self, key: &str) -> bool {
        self.options.contains_key(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn command_options_positionals() {
        let a = parse("simulate --workload hi10-100 --reps 3 extra");
        assert_eq!(a.command.as_deref(), Some("simulate"));
        assert_eq!(a.get("workload"), Some("hi10-100"));
        assert_eq!(a.get_parsed("reps", 1u32).unwrap(), 3);
        assert_eq!(a.positional, vec!["extra"]);
    }

    #[test]
    fn flags_without_values() {
        let a = parse("simulate --json --seed 9");
        assert!(a.flag("json"));
        assert!(!a.flag("quiet"));
        assert_eq!(a.get_parsed("seed", 0u64).unwrap(), 9);
    }

    #[test]
    fn defaults_and_errors() {
        let a = parse("trace");
        assert_eq!(a.get_parsed("invocations", 10usize).unwrap(), 10);
        let a = parse("simulate --reps nope");
        assert!(a.get_parsed("reps", 1u32).is_err());
    }
}
