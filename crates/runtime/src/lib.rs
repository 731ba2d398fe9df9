//! # golf-runtime
//!
//! A deterministic, Go-like managed runtime ("GoVM") — the substrate on
//! which this repository reproduces *"Dynamic Partial Deadlock Detection
//! and Recovery via Garbage Collection"* (ASPLOS'25).
//!
//! The crate provides everything the paper's technique observes and
//! manipulates in the real Go runtime:
//!
//! * **goroutines** with Go's scheduling states and wait reasons, spawn
//!   sites, stack scanning, slot reuse and special deadlock cleanup;
//! * **channels** with full Go semantics (unbuffered rendezvous, buffered
//!   FIFO, close, nil channels, `range`, blocking/`default`/zero-case
//!   `select`);
//! * **`sync` primitives** (`Mutex`, `RWMutex`, `WaitGroup`, `Cond`) that
//!   park on runtime semaphores registered in a global [`SemaTreap`]
//!   (Go's `semaRoot`), with GOLF-style *masked* handles;
//! * a **cooperative scheduler** with `GOMAXPROCS` virtual cores and
//!   seeded nondeterminism (every run is reproducible from its seed);
//! * **timers** (`time.Sleep`, `time.After`) and **finalizers**
//!   (`runtime.SetFinalizer`).
//!
//! Programs are authored against a small bytecode via [`FuncBuilder`] — see
//! `golf-micro` for 70+ distilled real-world deadlock patterns written this
//! way. Garbage collection is deliberately *not* here: the collector (both
//! the baseline and the GOLF extension) lives in `golf-core` and drives a
//! `Vm` from outside.
//!
//! ## Example: the paper's Listing 7 leak
//!
//! ```
//! use golf_runtime::{ProgramSet, FuncBuilder, Vm, VmConfig, RunStatus, Value, GStatus};
//!
//! let mut p = ProgramSet::new();
//! let site = p.site("SendEmail:104");
//!
//! // func task(done chan) { done <- 1 }     // blocks forever: nobody receives
//! let mut b = FuncBuilder::new("task", 1);
//! let done = b.param(0);
//! let one = b.int(1);
//! b.send(done, one);
//! b.ret(None);
//! let task = p.define(b);
//!
//! // func main() { done := make(chan); go task(done); time.Sleep(...) }
//! let mut b = FuncBuilder::new("main", 0);
//! let done = b.var("done");
//! b.make_chan(done, 0);
//! b.go(task, &[done], site);   // `done` is dropped: nobody ever receives
//! b.sleep(10);                 // give the task time to park
//! b.ret(None);
//! p.define(b);
//!
//! let mut vm = Vm::boot(p, VmConfig::default());
//! let out = vm.run(10_000);
//! assert_eq!(out.status, RunStatus::MainDone);
//! // The task goroutine leaked: still parked on `chan send`.
//! assert_eq!(vm.blocked_count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod chan;
mod disasm;
mod dump;
mod func;
mod goroutine;
mod instr;
mod interp;
mod object;
mod sched;
mod seed;
mod sema;
pub mod stdlib;
mod sync_ops;
mod value;
mod vm;

pub use builder::{FuncBuilder, Label, SelectSpec};
pub use func::{FuncId, Function, GlobalId, ProgramSet, SiteId, SiteInfo, StructType};
pub use goroutine::{Blocked, Frame, GStatus, Gid, Goroutine, WaitReason};
pub use instr::{BinOp, Instr, SelOp, SelectCase};
pub use object::{
    ChanState, CondState, MutexState, Object, RwLockState, TypeId, WaitKind, Waiter, WgState,
};
pub use sched::SchedPolicy;
pub use seed::seed_for;
pub use sema::{SemaTreap, SemaWaiter};
pub use value::{Value, Var};
pub use vm::{
    AssistConfig, Finalizer, PanicInfo, PanicPolicy, RunOutcome, RunStatus, TickStatus, Vm,
    VmConfig, VmCounters,
};

/// Constructs a [`Gid`] for documentation examples and tests outside this
/// crate. Real gids are only produced by spawning goroutines.
#[doc(hidden)]
pub fn test_gid(index: u32) -> Gid {
    Gid::new(index, 0)
}
