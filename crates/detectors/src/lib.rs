//! # golf-detectors
//!
//! The dynamic baseline the paper compares GOLF against (§1, §7):
//! [`goleak`], like Uber's GOLEAK, inspects the runtime state when a test
//! finishes and reports every lingering goroutine. Complete for tests
//! (every leaked goroutine is unterminated at test end) but unusable in
//! production, and it cannot reclaim anything.
//!
//! It operates on the same `golf-runtime` VM that GOLF collects, so the
//! RQ1(b) comparison (paper Figure 3) runs both detectors over the *same*
//! execution.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod goleak;

pub use goleak::{find_leaks, find_leaks_with_retry, GoleakOptions, LeakEntry};
