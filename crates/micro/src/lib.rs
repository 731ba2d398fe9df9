//! # golf-micro
//!
//! The microbenchmark corpus and experiment harnesses for the paper's
//! RQ1(a) (Table 1) and RQ2 (Figure 4) evaluations.
//!
//! The corpus distills the same defect taxonomy as the 73 microbenchmarks
//! the paper takes from GoBench ("goker", Yuan et al.) and the CGO'24
//! goroutine-leak study (Saioc et al.): 121 `go` statements that may create
//! partially deadlocked goroutines — double sends, missed closes, abandoned
//! timeouts, `WaitGroup` miscounts, lock-ordering cycles, condition
//! variables without signalers, nil channels, and the paper's
//! false-negative patterns (global channels, runaway-live keepers). Each
//! benchmark carries a *flakiness score* (1 = deterministic, larger =
//! schedule-dependent), and the harness amplifies flaky benchmarks by
//! running multiple concurrent instances, exactly as the paper's testing
//! methodology (§6.1).
//!
//! ## Example
//!
//! ```
//! use golf_micro::{corpus, run_benchmark, RunSettings};
//!
//! let all = corpus();
//! assert_eq!(all.len(), 73);
//! assert_eq!(all.iter().map(|b| b.sites.len()).sum::<usize>(), 121);
//!
//! let listing7 = all.iter().find(|b| b.name == "cgo/unused-done").unwrap();
//! let result = run_benchmark(listing7, &RunSettings { procs: 1, seed: 7, ..Default::default() });
//! assert!(result.detected_sites.contains(&"cgo/unused-done:104".to_string()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
mod harness;
mod par;
mod perf;
pub mod table1;

pub use corpus::extra::extra_corpus;
pub use corpus::{corpus, Microbenchmark, Source};
pub use harness::{instances_for, run_benchmark, BenchRunResult, RunSettings};
pub use par::par_map;
pub use perf::{run_perf_comparison, summarize_groups, PerfGroupSummary, PerfRow, PerfSettings};
pub use table1::{run_table1, run_table1_on, SiteRow, Table1, Table1Config};
