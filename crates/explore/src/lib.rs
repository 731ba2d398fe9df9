//! # golf-explore
//!
//! Systematic schedule exploration, record/replay, and shrinking for
//! interleaving-dependent goroutine leaks.
//!
//! The GOLF detector (crates `golf-core` + `golf-runtime`) is a dynamic
//! oracle: it only reports a partial deadlock once an execution actually
//! blocks the goroutine. Most corpus bugs are interleaving-dependent, so
//! *which* executions the oracle gets to see is the whole game. This crate
//! drives the deterministic VM through many schedules on purpose:
//!
//! * [`StrategyKind`] — seeded random walk, PCT-style
//!   randomized priorities, and delay-bounded round-robin, all plugged in
//!   through the runtime's [`SchedPolicy`](golf_runtime::SchedPolicy) hook;
//! * [`Schedule`] — a compact decision-trace file that replays
//!   byte-identically ([`record_run`] / [`replay_run`]);
//! * [`shrink`] — delta debugging over decision traces, preserving the
//!   deadlock-report verdict;
//! * [`run_campaign`] — a budgeted, parallel, deterministic campaign over
//!   the microbenchmark corpus and the service workload.
//!
//! ```
//! use golf_explore::{record_run, replay_run, StrategyKind, Target};
//!
//! let corpus = golf_micro::corpus();
//! let mb = corpus.iter().find(|m| m.name == "cgo/double-send").unwrap();
//! let target = Target::from_micro(mb, 24);
//! let strategy = StrategyKind::Random;
//! let run = record_run(&target, 7, &strategy, 42, false);
//! let again = replay_run(&target, &run.schedule, false);
//! assert_eq!(run.reports, again.reports);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod campaign;
mod policy;
mod runner;
mod schedule;
mod shrink;
mod strategy;
mod target;

pub use campaign::{run_campaign, CampaignConfig, CampaignResult, TargetOutcome};
pub use policy::{DecisionLog, RecordingPolicy, ReplayPolicy};
pub use runner::{expected_slots, record_run, replay_run, RunOutput};
pub use schedule::{Decision, Schedule};
pub use shrink::{shrink, ShrinkResult};
pub use strategy::StrategyKind;
pub use target::{targets, CorpusSelect, Target, DEFAULT_PROCS, DEFAULT_TICK_BUDGET};
