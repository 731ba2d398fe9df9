//! # golf
//!
//! A from-scratch Rust reproduction of **GOLF** — *"Dynamic Partial
//! Deadlock Detection and Recovery via Garbage Collection"* (Saioc, Lee,
//! Møller, Chabbi; ASPLOS 2025) — including the Go-like managed runtime it
//! needs as a substrate.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`heap`] — handle-based managed heap (mark bits, finalizers, stats).
//! * [`runtime`] — the GoVM: goroutines, channels, `select`, `sync`
//!   primitives, a semaphore treap, timers, and a deterministic scheduler
//!   with `GOMAXPROCS`-style virtual cores.
//! * [`core`] — the collector: baseline tricolor mark-sweep plus the GOLF
//!   extension (reachable-liveness fixed point, deadlock detection,
//!   finalizer-preserving recovery).
//! * [`detectors`] — the GOLEAK baseline.
//! * [`explore`] — systematic schedule exploration, record/replay, and
//!   shrinking for interleaving-dependent leaks (random walk, PCT,
//!   delay-bounded strategies over the scheduler-policy hook).
//! * [`metrics`] — percentiles, box plots, time series, tables.
//! * [`micro`] — the 73-benchmark corpus and RQ1(a)/RQ2 harnesses.
//! * [`service`] — the simulated production service and synthetic
//!   test-suite corpus for RQ1(b)-(c) and RQ2.
//! * [`trace`] — structured execution tracer (Go `runtime/trace`
//!   analogue): event vocabulary, JSONL buffer sink and bounded flight
//!   recorder.
//!
//! ## Quickstart
//!
//! Detect and reclaim the paper's Listing 7 leak:
//!
//! ```
//! use golf::core::Session;
//! use golf::runtime::{FuncBuilder, ProgramSet, Vm, VmConfig};
//!
//! let mut p = ProgramSet::new();
//! let site = p.site("SendEmail:104");
//!
//! // go func() { done <- struct{}{} }()   // nobody ever receives
//! let mut b = FuncBuilder::new("task", 1);
//! let done = b.param(0);
//! let v = b.int(1);
//! b.send(done, v);
//! let task = p.define(b);
//!
//! let mut b = FuncBuilder::new("main", 0);
//! let done = b.var("done");
//! b.make_chan(done, 0);
//! b.go(task, &[done], site);
//! b.clear(done);
//! b.sleep(10);
//! b.gc();
//! b.ret(None);
//! p.define(b);
//!
//! let mut session = Session::golf(Vm::boot(p, VmConfig::default()));
//! session.run(10_000);
//! assert_eq!(session.reports().len(), 1);
//! assert_eq!(session.vm().live_count(), 0, "goroutine reclaimed");
//! ```
//!
//! See `examples/` for runnable programs and `crates/bench/src/bin/` for
//! the binaries that regenerate every table and figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use golf_core as core;
pub use golf_detectors as detectors;
pub use golf_explore as explore;
pub use golf_heap as heap;
pub use golf_metrics as metrics;
pub use golf_micro as micro;
pub use golf_runtime as runtime;
pub use golf_service as service;
pub use golf_trace as trace;
