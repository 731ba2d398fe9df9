//! The virtual machine: goroutine table, scheduler state, heap, globals,
//! timers and the public embedding API.

use crate::func::{FuncId, ProgramSet, SiteId};
use crate::goroutine::{Blocked, GStatus, Gid, Goroutine, WaitReason};
use crate::object::{Object, RecvSlots, Waiter};
use crate::sema::SemaTable;
use crate::value::{Value, Var};
use golf_heap::{Handle, Heap, Trace};
use golf_trace::{BufferSink, GoId, TraceEvent, Tracer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// Finalizer payload attached to heap objects: the function to invoke with
/// the object as its argument (`runtime.SetFinalizer`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Finalizer {
    /// The finalizer function.
    pub func: FuncId,
}

/// What happens when a goroutine panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PanicPolicy {
    /// Go semantics: an unrecovered panic crashes the whole program.
    #[default]
    CrashProgram,
    /// Kill only the panicking goroutine (useful for harnesses that want to
    /// keep counting detections after a benchmark-inherent panic).
    KillGoroutine,
}

/// Models Go's allocation assists: when the live heap exceeds the
/// threshold, allocations stall the allocating goroutine proportionally to
/// the allocation size times the heap size — the memory-pressure penalty a
/// leaking service pays in production.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AssistConfig {
    /// Heap size (bytes) beyond which allocations start stalling.
    pub threshold_bytes: u64,
    /// Stall ticks = `alloc_bytes * heap_bytes / scale` (capped at 200).
    pub scale: u64,
}

impl Default for AssistConfig {
    fn default() -> Self {
        AssistConfig { threshold_bytes: 64 * 1024 * 1024, scale: 100_000_000_000_000 }
    }
}

/// VM construction parameters.
#[derive(Debug, Clone)]
pub struct VmConfig {
    /// Number of virtual cores — how many goroutines advance per scheduler
    /// round (Go's `GOMAXPROCS`).
    pub gomaxprocs: usize,
    /// Seed for all runtime nondeterminism (scheduling, select choice,
    /// `RandInt`).
    pub seed: u64,
    /// Maximum instructions a goroutine executes per scheduling slot; the
    /// actual quantum is drawn uniformly from `1..=max_quantum`, modeling
    /// preemption jitter.
    pub max_quantum: u32,
    /// Panic handling policy.
    pub panic_policy: PanicPolicy,
    /// Allocation-assist (memory pressure) modeling; `None` disables it.
    pub assist: Option<AssistConfig>,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            gomaxprocs: 1,
            seed: 0,
            max_quantum: 8,
            panic_policy: PanicPolicy::default(),
            assist: None,
        }
    }
}

/// A recorded panic.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PanicInfo {
    /// The goroutine that panicked.
    pub gid: Gid,
    /// The panic message.
    pub message: String,
    /// Location (`func:pc`) of the panicking instruction.
    pub location: String,
}

/// Terminal state of a [`Vm::run`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RunStatus {
    /// The main goroutine returned (Go exits the process here).
    MainDone,
    /// Every goroutine is blocked and no timer is pending — Go's
    /// `fatal error: all goroutines are asleep - deadlock!`.
    GlobalDeadlock,
    /// A goroutine panicked under [`PanicPolicy::CrashProgram`].
    Panicked,
    /// The tick budget was exhausted first.
    TickLimit,
}

/// Result of a completed run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunOutcome {
    /// Why the run stopped.
    pub status: RunStatus,
    /// Scheduler rounds executed.
    pub ticks: u64,
    /// Instructions executed.
    pub instrs: u64,
}

/// Result of a single scheduler round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TickStatus {
    /// Work was done (or time advanced towards a timer/sleeper).
    Progress,
    /// The main goroutine has returned.
    MainDone,
    /// All goroutines are parked forever.
    GlobalDeadlock,
    /// The program crashed.
    Panicked,
}

/// Execution counters, useful for assertions and benchmarks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct VmCounters {
    /// Goroutines ever spawned (including main and internal goroutines).
    pub spawned: u64,
    /// Goroutine slots recycled from the free list.
    pub reused: u64,
    /// Park operations.
    pub parks: u64,
    /// Wake operations.
    pub wakes: u64,
    /// Goroutines forcefully shut down by the collector.
    pub forced_shutdowns: u64,
}

/// What the runtime does when a deadline falls due. The derived order —
/// timers by creation, then sleepers by slot ([`Gid`] orders by slot
/// first) — is the order in which one tick runs its due alarms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Alarm {
    /// A `time.After` timer fires: the runtime sends on `ch` and releases
    /// the channel, which it kept alive until now.
    Fire { seq: u64, ch: Handle },
    /// A `time.Sleep` ends: wake `gid` if `token` is still current.
    Wake { gid: Gid, token: u64 },
}

pub(crate) enum Exec {
    /// Keep running this goroutine.
    Continue,
    /// The goroutine parked; schedule something else.
    Parked,
    /// The goroutine finished (or was killed by a policy decision).
    Finished,
    /// The goroutine yielded voluntarily.
    Yielded,
}

/// An operation that takes a heap object, as its panics name it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    /// A language operation (`send`, `field access`, ...): nil is a plain
    /// nil dereference.
    Builtin(&'static str),
    /// A `sync` method (`Mutex.Lock`, ...): nil names the method.
    Method(&'static str),
}

/// Why the executing goroutine panics.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Panic {
    /// A Go runtime error, with Go's message.
    Go(&'static str),
    /// A nil operand.
    Nil(Op),
    /// An operand that is an object of another kind (its [`Trace::kind`]).
    Kind(Op, &'static str),
}

impl fmt::Display for Panic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Panic::Go(msg) => f.write_str(msg),
            Panic::Nil(Op::Builtin(_)) => f.write_str("nil pointer dereference"),
            Panic::Nil(Op::Method(m)) => write!(f, "nil pointer dereference ({m})"),
            Panic::Kind(Op::Builtin(o) | Op::Method(o), kind) => write!(f, "{o} on {kind} value"),
        }
    }
}

/// Resolves `v`, an operand of `op`, to its handle and the part of its
/// object that `part` picks, looking the handle up once with `lookup`:
/// [`Heap::get`] where the operation only reads, [`Heap::get_mut`] (the
/// write barrier) where it writes. This is the only place a nil or
/// wrong-kind operand becomes a panic; the success path allocates and
/// formats nothing.
pub(crate) fn operand<O: Deref<Target = Object>, T>(
    op: Op,
    v: Value,
    lookup: impl FnOnce(Handle) -> Option<O>,
    part: impl FnOnce(O) -> Option<T>,
) -> Result<(Handle, T), Panic> {
    let Value::Ref(h) = v else { return Err(Panic::Nil(op)) };
    let obj = lookup(h).ok_or(Panic::Kind(op, "freed"))?;
    let kind = obj.kind();
    Ok((h, part(obj).ok_or(Panic::Kind(op, kind))?))
}

/// Whether the waiter entry `(gid, token)` still refers to a parked
/// goroutine (stale channel and semaphore entries are skipped lazily).
pub(crate) fn waiter_valid(goroutines: &[Goroutine], gid: Gid, token: u64) -> bool {
    let g = goroutines.get(gid.index() as usize);
    g.is_some_and(|g| g.id == gid && g.status.is_waiting() && g.wait_token == token)
}

/// The GoVM: a deterministic, single-threaded simulation of the Go runtime
/// — goroutines, channels, `sync` primitives, timers and a managed heap.
///
/// Garbage collection is *driven from outside* (see `golf-core`): the VM
/// exposes its roots, goroutine states and blocking sets, and honors
/// forced shutdowns, but never collects on its own. `runtime.GC()` in
/// guest code merely raises a flag the embedder polls with
/// [`Vm::take_gc_request`].
///
/// # Example
///
/// ```
/// use golf_runtime::{ProgramSet, FuncBuilder, Vm, VmConfig, RunStatus, Value};
///
/// let mut p = ProgramSet::new();
/// let mut b = FuncBuilder::new("main", 0);
/// let x = b.var("x");
/// b.konst(x, Value::Int(1));
/// b.ret(None);
/// p.define(b);
///
/// let mut vm = Vm::boot(p, VmConfig::default());
/// let out = vm.run(1_000);
/// assert_eq!(out.status, RunStatus::MainDone);
/// ```
pub struct Vm {
    pub(crate) program: Arc<ProgramSet>,
    pub(crate) heap: Heap<Object, Finalizer>,
    pub(crate) goroutines: Vec<Goroutine>,
    pub(crate) gfree: Vec<u32>,
    pub(crate) globals: Vec<Value>,
    pub(crate) semas: SemaTable,
    pub(crate) run_queue: VecDeque<Gid>,
    pub(crate) queued: Vec<bool>,
    /// Pending timers and sleepers, keyed by the tick they fall due.
    pub(crate) alarms: BinaryHeap<Reverse<(u64, Alarm)>>,
    /// Creation counter of `time.After` timers ([`Alarm::Fire`]'s `seq`).
    pub(crate) timer_seq: u64,
    /// The alarms due this tick; kept across ticks to reuse its buffer.
    pub(crate) due: Vec<Alarm>,
    /// A `select`'s ready cases; kept across selects to reuse its buffer.
    pub(crate) select_ready: Vec<usize>,
    /// A scheduling policy's candidates; kept across picks to reuse its
    /// buffer.
    pub(crate) candidates: Vec<Gid>,
    pub(crate) rng: StdRng,
    pub(crate) config: VmConfig,
    pub(crate) tick: u64,
    pub(crate) instrs: u64,
    pub(crate) main: Gid,
    pub(crate) main_done: bool,
    pub(crate) fatal: Option<PanicInfo>,
    pub(crate) panics: Vec<PanicInfo>,
    pub(crate) gc_requested: bool,
    pub(crate) roots_epoch: u64,
    pub(crate) counters: VmCounters,
    pub(crate) tracer: Tracer,
    pub(crate) sched_policy: Option<Box<dyn crate::sched::SchedPolicy>>,
}

impl Vm {
    /// Boots a VM running the program's `"main"` function.
    ///
    /// # Panics
    ///
    /// Panics if the program has no `main` function.
    pub fn boot(program: ProgramSet, config: VmConfig) -> Self {
        let main_fn = program.func_named("main").expect("program has no main function");
        Self::boot_with_entry(program, config, main_fn, &[])
    }

    /// Boots a VM with an explicit entry function and arguments.
    pub fn boot_with_entry(
        program: ProgramSet,
        config: VmConfig,
        entry: FuncId,
        args: &[Value],
    ) -> Self {
        let globals = vec![Value::Nil; program.global_count()];
        let mut vm = Vm {
            program: Arc::new(program),
            heap: Heap::new(),
            goroutines: Vec::new(),
            gfree: Vec::new(),
            globals,
            semas: SemaTable::default(),
            run_queue: VecDeque::new(),
            queued: Vec::new(),
            alarms: BinaryHeap::new(),
            timer_seq: 0,
            due: Vec::new(),
            select_ready: Vec::new(),
            candidates: Vec::new(),
            rng: StdRng::seed_from_u64(config.seed),
            config,
            tick: 0,
            instrs: 0,
            main: Gid::new(0, 0),
            main_done: false,
            fatal: None,
            panics: Vec::new(),
            gc_requested: false,
            roots_epoch: 0,
            counters: VmCounters::default(),
            tracer: Tracer::new(),
            sched_policy: None,
        };
        let main = vm.spawn(entry, args.len(), |_, i| args[i], None, false, None);
        vm.main = main;
        vm
    }

    /// The immutable program being executed.
    pub fn program(&self) -> &ProgramSet {
        &self.program
    }

    /// The managed heap.
    pub fn heap(&self) -> &Heap<Object, Finalizer> {
        &self.heap
    }

    /// Mutable heap access (used by the collector).
    pub fn heap_mut(&mut self) -> &mut Heap<Object, Finalizer> {
        &mut self.heap
    }

    /// Current scheduler tick (simulated time).
    pub fn now(&self) -> u64 {
        self.tick
    }

    /// Instructions executed so far.
    pub fn instrs_executed(&self) -> u64 {
        self.instrs
    }

    /// Execution counters.
    pub fn counters(&self) -> VmCounters {
        self.counters
    }

    /// The VM configuration.
    pub fn config(&self) -> &VmConfig {
        &self.config
    }

    /// The main goroutine's id.
    pub fn main_gid(&self) -> Gid {
        self.main
    }

    /// Whether the main goroutine has returned.
    pub fn main_done(&self) -> bool {
        self.main_done
    }

    /// All panics recorded so far (both policies record here).
    pub fn panics(&self) -> &[PanicInfo] {
        &self.panics
    }

    /// Consumes a pending `runtime.GC()` request, if any.
    pub fn take_gc_request(&mut self) -> bool {
        std::mem::take(&mut self.gc_requested)
    }

    /// Advances simulated time without executing anything — how the
    /// embedding session charges stop-the-world GC pauses to the clock.
    pub fn advance_ticks(&mut self, dt: u64) {
        self.tick += dt;
    }

    // ---- scheduling policy ----

    /// Installs (or removes) a [`SchedPolicy`](crate::SchedPolicy).
    ///
    /// While a policy is installed, every scheduling decision (which
    /// runnable goroutine runs at each slot, and its instruction quantum)
    /// is delegated to the policy and the scheduler consumes no VM RNG —
    /// see the trait docs for the determinism contract. Removing the policy
    /// restores the default seeded-jitter scheduler.
    pub fn set_sched_policy(&mut self, policy: Option<Box<dyn crate::sched::SchedPolicy>>) {
        self.sched_policy = policy;
    }

    // ---- tracing ----

    /// Installs (or removes) the execution-trace sink. The flight recorder
    /// records while a sink is installed, so deadlock reports produced
    /// while tracing carry event forensics.
    pub fn set_trace_sink(&mut self, sink: Option<BufferSink>) {
        self.tracer.set_sink(sink);
    }

    /// Whether a trace sink is installed.
    #[inline(always)]
    pub fn trace_enabled(&self) -> bool {
        self.tracer.enabled()
    }

    /// Read access to this VM's tracer (flight recorder queries).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Stamps `event` with the current tick and routes it to the attached
    /// consumers. Callers must check [`Vm::trace_enabled`] first so the
    /// disabled path does no event construction.
    #[inline]
    pub fn trace_emit(&mut self, event: TraceEvent) {
        let tick = self.tick;
        self.tracer.emit(tick, event);
    }

    // ---- goroutine management ----

    /// Spawns a goroutine running `func` on `n_args` arguments, `arg(vm, i)`
    /// being the `i`th, recycling a dead slot and its buffers when one is
    /// free (Go's `*g` reuse, paper §5.4).
    pub(crate) fn spawn(
        &mut self,
        func: FuncId,
        n_args: usize,
        arg: impl Fn(&Self, usize) -> Value,
        site: Option<SiteId>,
        internal: bool,
        parent: Option<Gid>,
    ) -> Gid {
        let f = self.program.func(func);
        assert_eq!(n_args, f.n_params, "arity mismatch calling {}", f.name);
        let n_locals = f.n_locals;

        let gid = if let Some(idx) = self.gfree.pop() {
            let g = &mut self.goroutines[idx as usize];
            debug_assert_eq!(g.status, GStatus::Dead);
            let gid = Gid::new(idx, g.id.generation() + 1);
            g.recycle(gid);
            self.counters.reused += 1;
            gid
        } else {
            let idx = self.goroutines.len() as u32;
            let gid = Gid::new(idx, 0);
            self.goroutines.push(Goroutine::new(gid));
            self.queued.push(false);
            gid
        };

        let idx = gid.index() as usize;
        let base = self.goroutines[idx].push_frame(func, n_locals, None);
        for i in 0..n_args {
            let v = arg(self, i);
            self.goroutines[idx].stack[base + i] = v;
        }
        let g = &mut self.goroutines[idx];
        g.spawn_site = site;
        g.internal = internal;
        self.counters.spawned += 1;
        self.ready(gid);
        if self.tracer.enabled() {
            let event = TraceEvent::GoCreate {
                gid: gid.into(),
                parent: parent.map(GoId::from),
                func: self.program.func(func).name.clone(),
                spawn_site: site.map(|s| self.program.site_info(s).label.to_string()),
            };
            self.trace_emit(event);
        }
        gid
    }

    /// Spawns a runtime-internal goroutine (finalizer runner etc.). Internal
    /// goroutines are never deadlock candidates.
    pub fn spawn_internal(&mut self, func: FuncId, args: &[Value]) -> Gid {
        self.spawn(func, args.len(), |_, i| args[i], None, true, None)
    }

    /// Looks up a goroutine. Returns `None` for stale gids (recycled slots).
    pub fn goroutine(&self, gid: Gid) -> Option<&Goroutine> {
        let g = self.goroutines.get(gid.index() as usize)?;
        (g.id == gid).then_some(g)
    }

    pub(crate) fn g_mut(&mut self, gid: Gid) -> Option<&mut Goroutine> {
        let g = self.goroutines.get_mut(gid.index() as usize)?;
        (g.id == gid).then_some(g)
    }

    /// Iterates over every non-dead goroutine.
    pub fn live_goroutines(&self) -> impl Iterator<Item = &Goroutine> {
        self.goroutines.iter().filter(|g| g.status != GStatus::Dead)
    }

    /// Number of user goroutines currently blocked at deadlock-eligible
    /// operations (the y-axis of the paper's Figure 1).
    pub fn blocked_count(&self) -> usize {
        self.live_goroutines().filter(|g| g.deadlock_candidate()).count()
    }

    /// Number of non-dead goroutines.
    pub fn live_count(&self) -> usize {
        self.live_goroutines().count()
    }

    /// Total stack bytes of non-dead goroutines (`StackInuse`).
    pub fn stack_bytes(&self) -> usize {
        self.live_goroutines().map(Goroutine::stack_bytes).sum()
    }

    /// Marks a goroutine runnable and enqueues it.
    pub(crate) fn ready(&mut self, gid: Gid) {
        let idx = gid.index() as usize;
        if self.goroutines[idx].id != gid {
            return;
        }
        self.goroutines[idx].status = GStatus::Runnable;
        if !self.queued[idx] {
            self.queued[idx] = true;
            self.run_queue.push_back(gid);
        }
    }

    /// Parks the current goroutine. The caller has already advanced the pc
    /// past the blocking instruction, so waking resumes *after* it.
    pub(crate) fn park(&mut self, gid: Gid, reason: WaitReason, blocked: Blocked) -> u64 {
        self.counters.parks += 1;
        let traced = self.tracer.enabled();
        let objects = if traced { blocked.handles().to_vec() } else { Vec::new() };
        let g = self.g_mut(gid).expect("parking a stale goroutine");
        g.wait_token += 1;
        g.status = GStatus::Waiting(reason);
        g.blocked = blocked;
        let token = g.wait_token;
        if traced {
            self.trace_emit(TraceEvent::GoBlock {
                gid: gid.into(),
                reason: reason.as_str(),
                objects,
            });
        }
        token
    }

    /// Parks `gid` in `time.Sleep` (or an allocation-assist stall) until
    /// tick `at`.
    pub(crate) fn sleep_until(&mut self, gid: Gid, at: u64) -> Exec {
        let token = self.park(gid, WaitReason::Sleep, Blocked::None);
        self.alarms.push(Reverse((at, Alarm::Wake { gid, token })));
        Exec::Parked
    }

    /// Wakes a parked goroutine if `token` is still current. Returns whether
    /// the wake happened (stale tokens mean the goroutine was already woken
    /// through another channel of a select, or killed).
    pub(crate) fn wake(&mut self, gid: Gid, token: u64) -> bool {
        let Some(g) = self.g_mut(gid) else { return false };
        if g.wait_token != token || !g.status.is_waiting() {
            return false;
        }
        g.wait_token += 1; // Invalidate all other queue entries.
        g.blocked = Blocked::None;
        self.counters.wakes += 1;
        self.ready(gid);
        if self.tracer.enabled() {
            self.trace_emit(TraceEvent::GoUnblock { gid: gid.into() });
        }
        true
    }

    /// Normal goroutine termination: clean the slot and put it on the free
    /// list for reuse.
    pub(crate) fn finish_goroutine(&mut self, gid: Gid) {
        let is_main = gid == self.main;
        let g = self.g_mut(gid).expect("finishing a stale goroutine");
        g.status = GStatus::Dead;
        g.clear_stack();
        g.blocked = Blocked::None;
        g.pending_lock = None;
        g.wait_token += 1;
        let idx = gid.index();
        self.gfree.push(idx);
        if is_main {
            self.main_done = true;
        }
        if self.tracer.enabled() {
            self.trace_emit(TraceEvent::GoEnd { gid: gid.into() });
        }
    }

    /// GOLF's forced shutdown of a deadlocked goroutine (paper §5.4,
    /// "Goroutine Reuse" + "Semaphores"): unlink it from every channel wait
    /// queue, which is the special cleanup a blocked select's sudogs need,
    /// and from the semaphore table, invalidate its wait token, and recycle
    /// the slot.
    pub fn force_shutdown(&mut self, gid: Gid) {
        let Some(g) = self.g_mut(gid) else { return };
        match std::mem::replace(&mut g.blocked, Blocked::None) {
            Blocked::Chans(chans) => {
                for ch in chans {
                    if let Some(Object::Chan(c)) = self.heap.get_mut(ch) {
                        c.sendq.retain(|w| w.gid != gid);
                        c.recvq.retain(|w| w.gid != gid);
                    }
                }
            }
            Blocked::Sema(sema) => {
                self.semas.remove_goroutine(sema, gid);
            }
            Blocked::None | Blocked::Epsilon => {}
        }
        let g = self.g_mut(gid).expect("validated above");
        g.pending_lock = None;
        g.status = GStatus::Dead;
        g.clear_stack();
        g.wait_token += 1;
        self.gfree.push(gid.index());
        self.counters.forced_shutdowns += 1;
        if self.tracer.enabled() {
            self.trace_emit(TraceEvent::Reclaimed { gid: gid.into() });
        }
    }

    /// Transitions a goroutine to the permanent `Deadlocked` state (kept
    /// alive because its subgraph contains finalizers — paper §5.5).
    pub fn set_deadlocked(&mut self, gid: Gid) {
        if let Some(g) = self.g_mut(gid) {
            g.status = GStatus::Deadlocked;
            g.reported_deadlocked = true;
        }
    }

    /// Marks a goroutine as having been reported (report-only mode).
    pub fn set_reported(&mut self, gid: Gid) {
        if let Some(g) = self.g_mut(gid) {
            g.reported_deadlocked = true;
        }
    }

    // ---- roots ----

    /// Monotone counter bumped whenever the *runtime root set* changes —
    /// a global is written, or a timer (whose channel is a runtime root) is
    /// added or fires. Together with the heap's mutation epoch and the
    /// per-goroutine liveness fingerprints, an unchanged value proves the
    /// next GC cycle would observe exactly the state the previous one did;
    /// the incremental collector replays the cached cycle in that case.
    pub fn roots_epoch(&self) -> u64 {
        self.roots_epoch
    }

    /// Handles intrinsically reachable from the runtime itself: globals and
    /// channels held by pending timers. These are marked in *every* GC mode.
    pub fn runtime_root_handles(&self) -> Vec<Handle> {
        let mut roots: Vec<Handle> =
            self.globals.iter().filter_map(|v| v.as_ref_handle()).collect();
        roots.extend(self.alarms.iter().filter_map(|Reverse((_, alarm))| match *alarm {
            Alarm::Fire { ch, .. } => Some(ch),
            Alarm::Wake { .. } => None,
        }));
        roots
    }

    /// Reads a global by id (tests/examples).
    pub fn global(&self, id: crate::func::GlobalId) -> Value {
        self.globals[id.index()]
    }

    /// The goroutines currently parked on a concurrency object — the wait
    /// queues of a channel, or the semaphore table entries of a `sync`
    /// primitive's semaphore. Stale entries are filtered. This is the
    /// "blocking channel always stores references to the goroutines
    /// blocked by it" observation the paper's §5.3 optimization builds on.
    pub fn waiters_on(&self, h: Handle) -> Vec<Gid> {
        let valid = |&(gid, token): &(Gid, u64)| waiter_valid(&self.goroutines, gid, token);
        match self.heap.get(h) {
            Some(Object::Chan(c)) => {
                let sends = c.sendq.iter().map(|w| (w.gid, w.token));
                let recvs = c.recvq.iter().map(|w| (w.gid, w.token));
                sends.chain(recvs).filter(valid).map(|(gid, _)| gid).collect()
            }
            Some(Object::Sema) => {
                let entries = self.semas.waiters(h).map(|w| (w.gid, w.token));
                entries.filter(valid).map(|(gid, _)| gid).collect()
            }
            _ => Vec::new(),
        }
    }

    // ---- panics ----

    pub(crate) fn goroutine_panic(&mut self, gid: Gid, message: impl fmt::Display) -> Exec {
        let location = self
            .goroutine(gid)
            .and_then(|g| g.frames.last())
            .map(|f| self.program.describe_loc(f.func, f.pc))
            .unwrap_or_else(|| "<unknown>".to_string());
        let info = PanicInfo { gid, message: message.to_string(), location };
        self.panics.push(info.clone());
        match self.config.panic_policy {
            PanicPolicy::CrashProgram => {
                self.fatal = Some(info);
                Exec::Finished
            }
            PanicPolicy::KillGoroutine => {
                self.finish_goroutine(gid);
                Exec::Finished
            }
        }
    }

    // ---- frame access helpers ----

    pub(crate) fn read_var(&self, gid: Gid, var: Var) -> Value {
        let g = &self.goroutines[gid.index() as usize];
        g.stack[g.base + var.index()]
    }

    pub(crate) fn write_var(&mut self, gid: Gid, var: Var, val: Value) {
        let g = &mut self.goroutines[gid.index() as usize];
        g.stack[g.base + var.index()] = val;
    }

    /// Moves `gid`'s top frame to `pc`.
    pub(crate) fn set_pc(&mut self, gid: Gid, pc: usize) {
        let g = &mut self.goroutines[gid.index() as usize];
        g.frames.last_mut().expect("no frame").pc = pc;
    }

    /// Resumes a goroutine popped from a channel wait queue: a select case
    /// first moves its pc to the case's arm, then the goroutine wakes.
    pub(crate) fn resume<T>(&mut self, w: &Waiter<T>) {
        if let Some(t) = w.select_target {
            self.set_pc(w.gid, t);
        }
        self.wake(w.gid, w.token);
    }

    /// Resumes a parked receiver, writing `val` and the comma-ok flag `ok`
    /// into its top frame first.
    pub(crate) fn resume_receiver(&mut self, w: &Waiter<RecvSlots>, val: Value, ok: bool) {
        if let Some(d) = w.op.dst {
            self.write_var(w.gid, d, val);
        }
        if let Some(o) = w.op.ok_dst {
            self.write_var(w.gid, o, Value::Bool(ok));
        }
        self.resume(w);
    }
}

impl fmt::Debug for Vm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Vm")
            .field("tick", &self.tick)
            .field("goroutines", &self.live_count())
            .field("heap_objects", &self.heap.len())
            .field("main_done", &self.main_done)
            .finish()
    }
}
