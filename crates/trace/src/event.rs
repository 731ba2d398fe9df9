//! Trace event vocabulary, modeled on Go's `runtime/trace` event set.

use golf_heap::Handle;
use std::fmt;

/// Goroutine identity as it appears in traces: slot index plus generation,
/// displayed in the runtime's `g{index}.{generation}` notation.
///
/// `golf-trace` sits below `golf-runtime` in the crate graph, so it carries
/// its own copy of the id pair rather than depending on the runtime's `Gid`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GoId {
    /// Goroutine slot index.
    pub index: u32,
    /// Slot reuse generation.
    pub generation: u32,
}

impl GoId {
    /// Builds a goroutine id.
    pub fn new(index: u32, generation: u32) -> Self {
        GoId { index, generation }
    }
}

impl fmt::Display for GoId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}.{}", self.index, self.generation)
    }
}

/// One structured event in the execution trace.
///
/// Events carry the *cause-side* detail (which channel, which wait reason,
/// which GC phase); the scheduler tick and global sequence number are stamped
/// by the [`Tracer`](crate::Tracer) into the enclosing
/// [`TraceRecord`](crate::TraceRecord).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A goroutine was created (`go f(..)` or runtime-internal spawn).
    GoCreate {
        /// The new goroutine.
        gid: GoId,
        /// The goroutine executing the `go` statement, if any.
        parent: Option<GoId>,
        /// Entry function name.
        func: String,
        /// Source site of the `go` statement, when recorded.
        spawn_site: Option<String>,
    },
    /// A goroutine parked.
    GoBlock {
        /// The parked goroutine.
        gid: GoId,
        /// Go wait reason string (e.g. `"chan send"`).
        reason: &'static str,
        /// The B(g) set: heap objects this goroutine is blocked on.
        objects: Vec<Handle>,
    },
    /// A parked goroutine became runnable again.
    GoUnblock {
        /// The woken goroutine.
        gid: GoId,
    },
    /// A goroutine returned from its entry function.
    GoEnd {
        /// The finished goroutine.
        gid: GoId,
    },
    /// A scheduling-policy decision: which runnable goroutine was picked
    /// for a scheduling slot, out of how many candidates, and for what
    /// instruction quantum. Only emitted while a `SchedPolicy` is installed
    /// (schedule exploration / replay), so default-scheduler traces are
    /// unchanged.
    SchedPick {
        /// The goroutine picked to run.
        gid: GoId,
        /// Number of runnable candidates at this slot.
        of: u32,
        /// Instruction quantum granted.
        quantum: u32,
    },
    /// A channel was allocated.
    ChanMake {
        /// The goroutine executing `make(chan, cap)`.
        gid: GoId,
        /// The new channel object.
        chan: Handle,
        /// Buffer capacity.
        cap: usize,
    },
    /// A channel send completed (value transferred or buffered).
    ChanSend {
        /// The sending goroutine.
        gid: GoId,
        /// The channel.
        chan: Handle,
    },
    /// A channel receive completed.
    ChanRecv {
        /// The receiving goroutine.
        gid: GoId,
        /// The channel.
        chan: Handle,
    },
    /// A channel was closed.
    ChanClose {
        /// The closing goroutine.
        gid: GoId,
        /// The channel.
        chan: Handle,
    },
    /// A goroutine enqueued itself on a runtime semaphore (`sync` primitives
    /// park here).
    SemaEnqueue {
        /// The waiting goroutine.
        gid: GoId,
        /// The semaphore object's handle, unmasked (the global semaphore
        /// table keys it masked).
        sema: Handle,
    },
    /// A goroutine was dequeued from a runtime semaphore and handed the lock
    /// / permit.
    SemaDequeue {
        /// The dequeued goroutine.
        gid: GoId,
        /// The semaphore object's handle, unmasked.
        sema: Handle,
    },
    /// A garbage-collection phase began.
    GcPhaseBegin {
        /// GC cycle number.
        cycle: u64,
        /// Phase name (e.g. `"mark"`, `"sweep"`).
        phase: &'static str,
    },
    /// A garbage-collection phase finished.
    GcPhaseEnd {
        /// GC cycle number.
        cycle: u64,
        /// Phase name.
        phase: &'static str,
        /// Phase-specific magnitude (objects marked, roots added, bytes
        /// swept, ...); `0` when the phase has no natural count.
        count: u64,
    },
    /// The collector proved a goroutine deadlocked (unreachable while
    /// blocked at a deadlock-eligible operation).
    DeadlockDetected {
        /// The deadlocked goroutine.
        gid: GoId,
        /// Its wait reason.
        reason: &'static str,
        /// Blocking source location.
        location: String,
    },
    /// A deadlocked goroutine (and its subgraph) was reclaimed by the
    /// collector.
    Reclaimed {
        /// The reclaimed goroutine.
        gid: GoId,
    },
}

impl TraceEvent {
    /// The goroutine this event is about, if it concerns one.
    pub fn gid(&self) -> Option<GoId> {
        match self {
            TraceEvent::GoCreate { gid, .. }
            | TraceEvent::GoBlock { gid, .. }
            | TraceEvent::GoUnblock { gid }
            | TraceEvent::GoEnd { gid }
            | TraceEvent::ChanMake { gid, .. }
            | TraceEvent::ChanSend { gid, .. }
            | TraceEvent::ChanRecv { gid, .. }
            | TraceEvent::ChanClose { gid, .. }
            | TraceEvent::SchedPick { gid, .. }
            | TraceEvent::SemaEnqueue { gid, .. }
            | TraceEvent::SemaDequeue { gid, .. }
            | TraceEvent::DeadlockDetected { gid, .. }
            | TraceEvent::Reclaimed { gid } => Some(*gid),
            TraceEvent::GcPhaseBegin { .. } | TraceEvent::GcPhaseEnd { .. } => None,
        }
    }

    /// The snake_case event-type tag used in the JSONL encoding.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::GoCreate { .. } => "go_create",
            TraceEvent::GoBlock { .. } => "go_block",
            TraceEvent::GoUnblock { .. } => "go_unblock",
            TraceEvent::GoEnd { .. } => "go_end",
            TraceEvent::SchedPick { .. } => "sched_pick",
            TraceEvent::ChanMake { .. } => "chan_make",
            TraceEvent::ChanSend { .. } => "chan_send",
            TraceEvent::ChanRecv { .. } => "chan_recv",
            TraceEvent::ChanClose { .. } => "chan_close",
            TraceEvent::SemaEnqueue { .. } => "sema_enqueue",
            TraceEvent::SemaDequeue { .. } => "sema_dequeue",
            TraceEvent::GcPhaseBegin { .. } => "gc_phase_begin",
            TraceEvent::GcPhaseEnd { .. } => "gc_phase_end",
            TraceEvent::DeadlockDetected { .. } => "deadlock_detected",
            TraceEvent::Reclaimed { .. } => "reclaimed",
        }
    }
}

/// A trace event stamped with its scheduler tick and a global sequence
/// number.
///
/// The pair `(tick, seq)` totally orders records: `tick` is the
/// deterministic scheduler clock, `seq` breaks ties within a tick in
/// emission order. No wall-clock time is recorded, so traces from the same
/// program and seed are byte-identical run to run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Scheduler tick at emission time.
    pub tick: u64,
    /// Global emission sequence number (starts at 0).
    pub seq: u64,
    /// The event payload.
    pub event: TraceEvent,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::GoCreate { gid, parent, func, spawn_site } => {
                write!(f, "GoCreate {gid} func={func}")?;
                if let Some(p) = parent {
                    write!(f, " parent={p}")?;
                }
                if let Some(s) = spawn_site {
                    write!(f, " at {s}")?;
                }
                Ok(())
            }
            TraceEvent::GoBlock { gid, reason, objects } => {
                write!(f, "GoBlock {gid} [{reason}] on")?;
                if objects.is_empty() {
                    write!(f, " <nothing>")?;
                }
                for o in objects {
                    write!(f, " {:#x}", o.raw())?;
                }
                Ok(())
            }
            TraceEvent::GoUnblock { gid } => write!(f, "GoUnblock {gid}"),
            TraceEvent::GoEnd { gid } => write!(f, "GoEnd {gid}"),
            TraceEvent::SchedPick { gid, of, quantum } => {
                write!(f, "SchedPick {gid} of={of} quantum={quantum}")
            }
            TraceEvent::ChanMake { gid, chan, cap } => {
                write!(f, "ChanMake {gid} chan={:#x} cap={cap}", chan.raw())
            }
            TraceEvent::ChanSend { gid, chan } => {
                write!(f, "ChanSend {gid} chan={:#x}", chan.raw())
            }
            TraceEvent::ChanRecv { gid, chan } => {
                write!(f, "ChanRecv {gid} chan={:#x}", chan.raw())
            }
            TraceEvent::ChanClose { gid, chan } => {
                write!(f, "ChanClose {gid} chan={:#x}", chan.raw())
            }
            TraceEvent::SemaEnqueue { gid, sema } => {
                write!(f, "SemaEnqueue {gid} sema={:#x}", sema.raw())
            }
            TraceEvent::SemaDequeue { gid, sema } => {
                write!(f, "SemaDequeue {gid} sema={:#x}", sema.raw())
            }
            TraceEvent::GcPhaseBegin { cycle, phase } => {
                write!(f, "GcPhaseBegin cycle={cycle} phase={phase}")
            }
            TraceEvent::GcPhaseEnd { cycle, phase, count } => {
                write!(f, "GcPhaseEnd cycle={cycle} phase={phase} count={count}")
            }
            TraceEvent::DeadlockDetected { gid, reason, location } => {
                write!(f, "DeadlockDetected {gid} [{reason}] at {location}")
            }
            TraceEvent::Reclaimed { gid } => write!(f, "Reclaimed {gid}"),
        }
    }
}

impl fmt::Display for TraceRecord {
    // Human-oriented one-line rendering; the machine encoding is
    // `TraceRecord::to_jsonl`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[tick {} #{}] {}", self.tick, self.seq, self.event)
    }
}
