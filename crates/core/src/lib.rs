//! # golf-core
//!
//! The collector of this repository's GOLF reproduction: a tricolor
//! mark-and-sweep garbage collector for the `golf-runtime` VM, extended —
//! exactly as in *"Dynamic Partial Deadlock Detection and Recovery via
//! Garbage Collection"* (ASPLOS'25) — to compute **reachable liveness** and
//! thereby detect and reclaim partially deadlocked goroutines.
//!
//! ## The algorithm (paper §4.2)
//!
//! 1. **Restricted roots**: start the root set from runnable goroutines
//!    only (`R'₀ = {g | B(g) = ∅}`), plus globals and runtime-held objects.
//!    Goroutines blocked at sleeps/IO/runtime-internal waits count as
//!    runnable; goroutines blocked at channel or `sync` operations do not.
//! 2. **Mark iteration**: ordinary tricolor marking from the current roots.
//! 3. **Root expansion**: any blocked goroutine with a *marked* object in
//!    its blocking set `B(g)` is reachably live; add its stack to the roots
//!    and mark again. Repeat to the fixed point.
//! 4. Every goroutine not in the final root set is **deadlocked** —
//!    soundly, because memory reachability over-approximates liveness.
//! 5. **Recovery**: deadlocked goroutines are reported, then forcefully
//!    shut down (unlinked from channel queues and the semaphore table,
//!    their slots recycled) so the sweep reclaims their memory — *unless*
//!    their subgraph carries finalizers, in which case they are preserved
//!    forever to keep Go's observable semantics (§5.5).
//!
//! ## Example
//!
//! ```
//! use golf_core::{Session, GcMode};
//! use golf_runtime::{ProgramSet, FuncBuilder, Vm, VmConfig};
//!
//! // Build the paper's Listing 7: SendEmail spawns a goroutine that sends
//! // on a channel HandleRequest never reads.
//! let mut p = ProgramSet::new();
//! let site = p.site("SendEmail:104");
//! let mut b = FuncBuilder::new("task", 1);
//! let done = b.param(0);
//! let one = b.int(1);
//! b.send(done, one);
//! let task = p.define(b);
//! let mut b = FuncBuilder::new("main", 0);
//! let done = b.var("done");
//! b.make_chan(done, 0);
//! b.go(task, &[done], site);
//! b.clear(done); // `done` goes out of scope: last use was the spawn
//! b.sleep(10);
//! b.gc();
//! b.ret(None);
//! p.define(b);
//!
//! let mut session = Session::golf(Vm::boot(p, VmConfig::default()));
//! session.run(10_000);
//! let reports = session.reports();
//! assert_eq!(reports.len(), 1);
//! assert_eq!(reports[0].spawn_site.as_deref(), Some("SendEmail:104"));
//! // Recovery reclaimed the goroutine and its memory.
//! assert_eq!(session.vm().live_count(), 0);
//! assert_eq!(session.vm().heap().len(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod cycle;
pub mod forensics;
mod mark;
pub mod oracle;
mod report;
mod session;
mod stats;

pub use config::{ExpansionStrategy, GcMode, GolfConfig, Pacer, PacerConfig};
pub use cycle::{preserved_goroutines, GcEngine};
pub use mark::Marker;
pub use report::{dedup_counts, DeadlockReport};
pub use session::Session;
pub use stats::{GcCycleStats, GcTotals, PhaseEvent};
