//! # golf-bench
//!
//! Experiment drivers. `run_all` regenerates every table and figure of the
//! paper into `results/`, one file per renderer in [`artifacts`] (see
//! DESIGN.md §4 for the index). `golf_tester` mirrors the paper artifact's
//! tester and `golf_explorer` runs schedule-exploration campaigns.
//! Wall-clock performance is measured by the separate `golfbench` benchmark.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifacts;

/// Parses `--key value` style arguments from `std::env::args`.
///
/// # Example
///
/// ```
/// let args = vec!["prog".to_string(), "--repeats".to_string(), "5".to_string()];
/// assert_eq!(golf_bench::arg_value(&args, "--repeats"), Some("5".to_string()));
/// assert_eq!(golf_bench::arg_value(&args, "--procs"), None);
/// ```
pub fn arg_value(args: &[String], key: &str) -> Option<String> {
    args.iter().position(|a| a == key).and_then(|i| args.get(i + 1).cloned())
}

/// Parses a comma-separated list of integers (e.g. `--procs 1,2,4,10`).
///
/// # Example
///
/// ```
/// assert_eq!(golf_bench::parse_list("1,2,4"), vec![1, 2, 4]);
/// ```
pub fn parse_list(s: &str) -> Vec<usize> {
    s.split(',').filter_map(|x| x.trim().parse().ok()).collect()
}
