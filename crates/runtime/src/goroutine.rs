//! Goroutines: lightweight threads managed by the VM scheduler.

use crate::func::{FuncId, SiteId};
use crate::value::Value;
use golf_heap::Handle;
use golf_trace::GoId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A goroutine identifier: slot index plus generation (slots are recycled,
/// reproducing the Go runtime's `*g` object reuse — paper §5.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Gid {
    index: u32,
    generation: u32,
}

impl Gid {
    pub(crate) fn new(index: u32, generation: u32) -> Self {
        Gid { index, generation }
    }

    /// The slot index in the goroutine registry.
    pub fn index(self) -> u32 {
        self.index
    }

    /// The reuse generation of that slot.
    pub fn generation(self) -> u32 {
        self.generation
    }
}

impl fmt::Display for Gid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}.{}", self.index, self.generation)
    }
}

/// The trace crate's name for the same goroutine.
impl From<Gid> for GoId {
    fn from(gid: Gid) -> Self {
        GoId::new(gid.index, gid.generation)
    }
}

/// Why a goroutine is parked — mirrors Go's `waitReason` strings.
///
/// GOLF only treats goroutines blocked at *user-level concurrency
/// operations* as deadlock candidates; sleeps, IO and runtime-internal waits
/// are conservatively live (paper §5.4, "Inspecting Goroutine States").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WaitReason {
    /// `chan send` — blocked sending on a channel.
    ChanSend,
    /// `chan receive` — blocked receiving from a channel.
    ChanReceive,
    /// `select` — blocked in a select with no ready case.
    Select,
    /// `select (no cases)` — `select {}` blocks forever.
    SelectNoCases,
    /// `chan send (nil chan)` — sends on nil channels block forever.
    ChanSendNilChan,
    /// `chan receive (nil chan)` — receives on nil channels block forever.
    ChanReceiveNilChan,
    /// `sync.Mutex.Lock`.
    SyncMutexLock,
    /// `sync.RWMutex.RLock`.
    SyncRwMutexRLock,
    /// `sync.RWMutex.Lock`.
    SyncRwMutexLock,
    /// `sync.WaitGroup.Wait`.
    SyncWaitGroupWait,
    /// `sync.Cond.Wait`.
    SyncCondWait,
    /// `time.Sleep` — always considered live.
    Sleep,
    /// Network/file IO — always considered live (GOLF targets concurrency
    /// operations, not system calls).
    IoWait,
    /// Runtime-internal waits (idle mark workers, finalizer goroutine, …) —
    /// always considered live.
    RuntimeInternal,
}

impl WaitReason {
    /// Whether a goroutine parked for this reason can be a partial-deadlock
    /// candidate. Only channel and `sync` package operations qualify.
    pub fn deadlock_eligible(self) -> bool {
        !matches!(self, WaitReason::Sleep | WaitReason::IoWait | WaitReason::RuntimeInternal)
    }

    /// The Go runtime's human-readable wait reason string.
    pub fn as_str(self) -> &'static str {
        match self {
            WaitReason::ChanSend => "chan send",
            WaitReason::ChanReceive => "chan receive",
            WaitReason::Select => "select",
            WaitReason::SelectNoCases => "select (no cases)",
            WaitReason::ChanSendNilChan => "chan send (nil chan)",
            WaitReason::ChanReceiveNilChan => "chan receive (nil chan)",
            WaitReason::SyncMutexLock => "sync.Mutex.Lock",
            WaitReason::SyncRwMutexRLock => "sync.RWMutex.RLock",
            WaitReason::SyncRwMutexLock => "sync.RWMutex.Lock",
            WaitReason::SyncWaitGroupWait => "sync.WaitGroup.Wait",
            WaitReason::SyncCondWait => "sync.Cond.Wait",
            WaitReason::Sleep => "sleep",
            WaitReason::IoWait => "IO wait",
            WaitReason::RuntimeInternal => "runtime internal",
        }
    }
}

impl fmt::Display for WaitReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The concurrency objects a parked goroutine is blocked on — the paper's
/// `B(g)` (§4.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Blocked {
    /// Not blocked: `B(g) = ∅`.
    None,
    /// Blocked on channel operations (one channel for send/recv, several for
    /// a select).
    Chans(Vec<Handle>),
    /// Blocked on a runtime semaphore (all `sync` primitives park here).
    Sema(Handle),
    /// `B(g) = {ε}`: blocked on something *intrinsically unreachable* — a
    /// nil channel or a zero-case select. Such goroutines can never be
    /// reachably live.
    Epsilon,
}

impl Blocked {
    /// The handles in `B(g)` that the liveness fixed point must test for
    /// reachability. Empty for `None` (runnable) and `Epsilon` (nothing can
    /// ever mark ε).
    pub fn handles(&self) -> &[Handle] {
        match self {
            Blocked::Chans(hs) => hs,
            Blocked::Sema(h) => std::slice::from_ref(h),
            Blocked::None | Blocked::Epsilon => &[],
        }
    }
}

/// The scheduling state of a goroutine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GStatus {
    /// Ready to run (or running).
    Runnable,
    /// Parked with a [`WaitReason`].
    Waiting(WaitReason),
    /// Finished (slot available for reuse).
    Dead,
    /// Reported as deadlocked by GOLF and kept alive forever because its
    /// subgraph contains finalizers (paper §5.5). Never scheduled again.
    Deadlocked,
}

impl GStatus {
    /// Whether the goroutine is parked.
    pub fn is_waiting(self) -> bool {
        matches!(self, GStatus::Waiting(_))
    }
}

/// One call frame on a goroutine stack.
#[derive(Debug, Clone)]
pub struct Frame {
    /// The executing function.
    pub func: FuncId,
    /// The next instruction to execute.
    pub pc: usize,
    /// Local variable slots.
    pub locals: Vec<Value>,
    /// Where the caller wants the return value, if anywhere.
    pub ret_dst: Option<crate::value::Var>,
}

/// A goroutine: stack, status, blocking info and bookkeeping.
///
/// The struct mirrors the fields of Go's `runtime.g` that GOLF cares about:
/// status, wait reason, the sudog list (`blocked`), the semaphore back
/// pointer, and the select state that the special deadlock-cleanup must
/// reset before the slot can be reused (paper §5.4, "Goroutine Reuse").
#[derive(Debug)]
pub struct Goroutine {
    /// This goroutine's identity (slot + generation).
    pub id: Gid,
    /// Scheduling status.
    pub status: GStatus,
    /// Call stack; empty iff dead.
    pub frames: Vec<Frame>,
    /// `B(g)` — what the goroutine is blocked on.
    pub blocked: Blocked,
    /// Monotonic token bumped on every park/unpark; used to lazily invalidate
    /// stale channel-queue and semaphore-table entries (Go removes sudogs eagerly; lazy
    /// invalidation is equivalent and simpler).
    pub wait_token: u64,
    /// The `go` statement that created this goroutine (for reports and
    /// deduplication, paper §6.1 RQ1(b)).
    pub spawn_site: Option<SiteId>,
    /// Set when a `sync.Cond.Wait` wake must re-acquire the mutex before the
    /// goroutine resumes.
    pub pending_lock: Option<Handle>,
    /// Whether GOLF already reported this goroutine as deadlocked (avoids
    /// duplicate reports across GC cycles).
    pub reported_deadlocked: bool,
    /// True for runtime-internal goroutines (finalizer runner, timer
    /// goroutines); they are never deadlock candidates.
    pub internal: bool,
}

impl Goroutine {
    pub(crate) fn new(id: Gid) -> Self {
        Goroutine {
            id,
            status: GStatus::Runnable,
            frames: Vec::new(),
            blocked: Blocked::None,
            wait_token: 0,
            spawn_site: None,
            pending_lock: None,
            reported_deadlocked: false,
            internal: false,
        }
    }

    /// The wait reason, if parked.
    pub fn wait_reason(&self) -> Option<WaitReason> {
        match self.status {
            GStatus::Waiting(r) => Some(r),
            _ => None,
        }
    }

    /// Whether this goroutine is currently a partial-deadlock candidate:
    /// parked at a deadlock-eligible concurrency operation.
    pub fn deadlock_candidate(&self) -> bool {
        !self.internal && self.wait_reason().is_some_and(WaitReason::deadlock_eligible)
    }

    /// Handles referenced by this goroutine's stack — the GC scans these
    /// when the goroutine is in the root set.
    pub fn stack_roots(&self) -> impl Iterator<Item = Handle> + '_ {
        self.frames
            .iter()
            .flat_map(|f| f.locals.iter())
            .filter_map(|v| v.as_ref_handle())
            .chain(self.pending_lock)
    }

    /// An estimate of the stack footprint in bytes (Go starts goroutines at
    /// 2 KiB plus frame data) — feeds the `StackInuse` metric.
    pub fn stack_bytes(&self) -> usize {
        2048 + self.frames.iter().map(|f| 64 + f.locals.len() * 16).sum::<usize>()
    }

    /// A compact FNV-1a fingerprint of every per-goroutine fact a GOLF cycle
    /// reads: identity, deadlock candidacy, reporting state, the stack root
    /// handles, and — for candidates — the wait reason and `B(g)`.
    ///
    /// If every live goroutine's fingerprint is unchanged since the previous
    /// cycle (and the heap mutation epoch and runtime-roots epoch are too),
    /// a new cycle would observe exactly the state the previous one did and
    /// therefore compute the same root set, liveness fixed point, and
    /// deadlock verdicts — the quiescence proof behind incremental cycle
    /// replay in `golf-core`.
    ///
    /// Deliberately *excludes* program counters and non-reference locals:
    /// pure-local execution between cycles (loop counters, the idle
    /// `sleep; GC()` pattern) cannot change a cycle's outcome, so it must
    /// not defeat replay.
    pub fn liveness_fingerprint(&self) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |v: u64| {
            hash ^= v;
            hash = hash.wrapping_mul(PRIME);
        };
        mix(u64::from(self.id.index()));
        mix(u64::from(self.id.generation()));
        let candidate = self.deadlock_candidate();
        mix(u64::from(candidate));
        mix(u64::from(self.reported_deadlocked));
        mix(u64::from(self.internal));
        let mut roots = 0u64;
        for h in self.stack_roots() {
            roots += 1;
            mix(h.raw());
        }
        mix(roots);
        if candidate {
            // Safe unwrap: candidacy implies a wait reason.
            mix(self.wait_reason().map_or(u64::MAX, |r| r as u64));
            mix(matches!(self.blocked, Blocked::Epsilon) as u64);
            for h in self.blocked.handles() {
                mix(h.raw());
            }
        }
        hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Var;

    fn mk(status: GStatus) -> Goroutine {
        let mut g = Goroutine::new(Gid::new(1, 0));
        g.status = status;
        g
    }

    #[test]
    fn eligibility_follows_wait_reason() {
        assert!(mk(GStatus::Waiting(WaitReason::ChanSend)).deadlock_candidate());
        assert!(mk(GStatus::Waiting(WaitReason::SyncWaitGroupWait)).deadlock_candidate());
        assert!(!mk(GStatus::Waiting(WaitReason::Sleep)).deadlock_candidate());
        assert!(!mk(GStatus::Waiting(WaitReason::IoWait)).deadlock_candidate());
        assert!(!mk(GStatus::Runnable).deadlock_candidate());
        assert!(!mk(GStatus::Dead).deadlock_candidate());
    }

    #[test]
    fn internal_goroutines_never_candidates() {
        let mut g = mk(GStatus::Waiting(WaitReason::ChanReceive));
        g.internal = true;
        assert!(!g.deadlock_candidate());
    }

    #[test]
    fn stack_roots_cover_all_frames_and_pending_lock() {
        let mut g = mk(GStatus::Runnable);
        let h1 = {
            let mut heap: golf_heap::Heap<crate::object::Object> = golf_heap::Heap::new();
            heap.alloc(crate::object::Object::Sema)
        };
        g.frames.push(Frame {
            func: FuncId(0),
            pc: 0,
            locals: vec![Value::Int(1), Value::Ref(h1)],
            ret_dst: None,
        });
        g.frames.push(Frame {
            func: FuncId(1),
            pc: 0,
            locals: vec![Value::Nil],
            ret_dst: Some(Var(0)),
        });
        g.pending_lock = Some(h1);
        let roots: Vec<_> = g.stack_roots().collect();
        assert_eq!(roots, vec![h1, h1]);
    }

    #[test]
    fn blocked_handles() {
        assert!(Blocked::None.handles().is_empty());
        assert!(Blocked::Epsilon.handles().is_empty());
        let mut heap: golf_heap::Heap<crate::object::Object> = golf_heap::Heap::new();
        let h = heap.alloc(crate::object::Object::Sema);
        assert_eq!(Blocked::Sema(h).handles(), &[h]);
        assert_eq!(Blocked::Chans(vec![h, h]).handles().len(), 2);
    }

    #[test]
    fn wait_reason_strings_match_go() {
        assert_eq!(WaitReason::ChanSend.as_str(), "chan send");
        assert_eq!(WaitReason::SyncWaitGroupWait.to_string(), "sync.WaitGroup.Wait");
    }

    #[test]
    fn gid_display() {
        assert_eq!(Gid::new(3, 2).to_string(), "g3.2");
    }

    #[test]
    fn fingerprint_ignores_pure_local_execution() {
        let mut heap: golf_heap::Heap<crate::object::Object> = golf_heap::Heap::new();
        let h = heap.alloc(crate::object::Object::Sema);
        let mut g = mk(GStatus::Runnable);
        g.frames.push(Frame {
            func: FuncId(0),
            pc: 0,
            locals: vec![Value::Int(1), Value::Ref(h)],
            ret_dst: None,
        });
        let before = g.liveness_fingerprint();
        // Advancing the pc and bumping a non-reference local models pure
        // computation between cycles: the GC outcome cannot change.
        g.frames[0].pc = 17;
        g.frames[0].locals[0] = Value::Int(99);
        assert_eq!(g.liveness_fingerprint(), before);
        // A reference local changing is a root change.
        g.frames[0].locals[1] = Value::Nil;
        assert_ne!(g.liveness_fingerprint(), before);
    }

    #[test]
    fn fingerprint_tracks_candidacy_and_blocked_set() {
        let mut heap: golf_heap::Heap<crate::object::Object> = golf_heap::Heap::new();
        let ch = heap.alloc(crate::object::Object::Sema);
        let runnable = mk(GStatus::Runnable).liveness_fingerprint();
        let sleeping = mk(GStatus::Waiting(WaitReason::Sleep)).liveness_fingerprint();
        assert_eq!(runnable, sleeping, "non-candidate states with equal roots coincide");
        let mut parked = mk(GStatus::Waiting(WaitReason::ChanSend));
        parked.blocked = Blocked::Chans(vec![ch]);
        let parked_fp = parked.liveness_fingerprint();
        assert_ne!(parked_fp, runnable, "candidacy is observable");
        parked.blocked = Blocked::Epsilon;
        assert_ne!(parked.liveness_fingerprint(), parked_fp, "B(g) is observable");
        parked.reported_deadlocked = true;
        let reported = parked.liveness_fingerprint();
        parked.reported_deadlocked = false;
        assert_ne!(parked.liveness_fingerprint(), reported);
    }
}
