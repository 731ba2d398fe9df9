//! The virtual machine: goroutine table, scheduler state, heap, globals,
//! timers and the public embedding API.

use crate::func::{FuncId, ProgramSet, SiteId};
use crate::goroutine::{Blocked, GStatus, Gid, Goroutine, WaitReason};
use crate::object::Object;
use crate::sema::SemaTreap;
use crate::value::{Value, Var};
use golf_heap::{Handle, Heap};
use golf_trace::{BufferSink, GoId, TraceEvent, Tracer};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::Arc;

/// Converts a runtime [`Gid`] into the trace crate's [`GoId`].
pub(crate) fn go_id(gid: Gid) -> GoId {
    GoId::new(gid.index(), gid.generation())
}

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
    /// treap priorities, `RandInt`).
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

/// A pending runtime timer (`time.After`): the runtime keeps the channel
/// alive until the timer fires, then releases it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Timer {
    pub fire_tick: u64,
    pub ch: Handle,
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
    pub(crate) treap: SemaTreap,
    pub(crate) run_queue: VecDeque<Gid>,
    pub(crate) queued: Vec<bool>,
    pub(crate) timers: Vec<Timer>,
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
            treap: SemaTreap::new(config.seed ^ 0x5E3A_7EAF),
            run_queue: VecDeque::new(),
            queued: Vec::new(),
            timers: Vec::new(),
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
        let main = vm.spawn(entry, args, None, false, None);
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

    /// Spawns a goroutine, recycling a dead slot when available (Go's `*g`
    /// reuse, paper §5.4).
    pub(crate) fn spawn(
        &mut self,
        func: FuncId,
        args: &[Value],
        site: Option<SiteId>,
        internal: bool,
        parent: Option<Gid>,
    ) -> Gid {
        let f = self.program.func(func);
        assert_eq!(args.len(), f.n_params, "arity mismatch calling {}", f.name);
        let mut locals = vec![Value::Nil; f.n_locals];
        locals[..args.len()].copy_from_slice(args);
        let frame = crate::goroutine::Frame { func, pc: 0, locals, ret_dst: None };

        let gid = if let Some(idx) = self.gfree.pop() {
            let old = &self.goroutines[idx as usize];
            debug_assert_eq!(old.status, GStatus::Dead);
            debug_assert!(
                !old.dirty_select_state,
                "recycled a goroutine whose select state was not cleaned"
            );
            let gen = old.id.generation() + 1;
            let reuse = old.reuse_count + 1;
            let gid = Gid::new(idx, gen);
            let mut g = Goroutine::new(gid, self.tick);
            g.reuse_count = reuse;
            self.goroutines[idx as usize] = g;
            self.counters.reused += 1;
            gid
        } else {
            let idx = self.goroutines.len() as u32;
            let gid = Gid::new(idx, 0);
            self.goroutines.push(Goroutine::new(gid, self.tick));
            self.queued.push(false);
            gid
        };

        let g = &mut self.goroutines[gid.index() as usize];
        g.frames.push(frame);
        g.spawn_site = site;
        g.internal = internal;
        self.counters.spawned += 1;
        self.ready(gid);
        if self.tracer.enabled() {
            let event = TraceEvent::GoCreate {
                gid: go_id(gid),
                parent: parent.map(go_id),
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
        self.spawn(func, args, None, true, None)
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
                gid: go_id(gid),
                reason: reason.as_str(),
                objects,
            });
        }
        token
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
        g.wake_tick = None;
        self.counters.wakes += 1;
        self.ready(gid);
        if self.tracer.enabled() {
            self.trace_emit(TraceEvent::GoUnblock { gid: go_id(gid) });
        }
        true
    }

    /// Whether a waiter entry `(gid, token)` still refers to a parked
    /// goroutine (used to lazily skip stale channel/treap entries).
    pub(crate) fn waiter_valid(&self, gid: Gid, token: u64) -> bool {
        self.goroutine(gid).is_some_and(|g| g.status.is_waiting() && g.wait_token == token)
    }

    /// Normal goroutine termination: clean the slot and put it on the free
    /// list for reuse.
    pub(crate) fn finish_goroutine(&mut self, gid: Gid) {
        let is_main = gid == self.main;
        let g = self.g_mut(gid).expect("finishing a stale goroutine");
        g.status = GStatus::Dead;
        g.frames.clear();
        g.blocked = Blocked::None;
        g.pending_lock = None;
        g.dirty_select_state = false;
        g.wait_token += 1;
        let idx = gid.index();
        self.gfree.push(idx);
        if is_main {
            self.main_done = true;
        }
        if self.tracer.enabled() {
            self.trace_emit(TraceEvent::GoEnd { gid: go_id(gid) });
        }
    }

    /// GOLF's forced shutdown of a deadlocked goroutine (paper §5.4,
    /// "Goroutine Reuse" + "Semaphores"): unlink it from every channel wait
    /// queue and from the semaphore treap, run the special cleanup that
    /// resets select state, and recycle the slot.
    pub fn force_shutdown(&mut self, gid: Gid) {
        let Some(g) = self.goroutine(gid) else { return };
        let blocked = g.blocked.clone();
        match &blocked {
            Blocked::Chans(chans) => {
                for &ch in chans {
                    if let Some(Object::Chan(c)) = self.heap.get_mut(ch) {
                        c.sendq.retain(|w| w.gid != gid);
                        c.recvq.retain(|w| w.gid != gid);
                    }
                }
            }
            Blocked::Sema(sema) => {
                self.treap.remove_goroutine(*sema, gid);
            }
            Blocked::None | Blocked::Epsilon => {}
        }
        let g = self.g_mut(gid).expect("validated above");
        // The special cleanup: a deadlocked select leaves sudog state that
        // the regular exit path would have cleared (paper §5.4).
        g.dirty_select_state = false;
        g.pending_lock = None;
        g.status = GStatus::Dead;
        g.frames.clear();
        g.blocked = Blocked::None;
        g.wait_token += 1;
        self.gfree.push(gid.index());
        self.counters.forced_shutdowns += 1;
        if self.tracer.enabled() {
            self.trace_emit(TraceEvent::Reclaimed { gid: go_id(gid) });
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
        roots.extend(self.timers.iter().map(|t| t.ch));
        roots
    }

    /// Reads a global by id (tests/examples).
    pub fn global(&self, id: crate::func::GlobalId) -> Value {
        self.globals[id.index()]
    }

    /// The goroutines currently parked on a concurrency object — the wait
    /// queues of a channel, or the semaphore treap entries of a `sync`
    /// primitive's semaphore. Stale entries are filtered. This is the
    /// "blocking channel always stores references to the goroutines
    /// blocked by it" observation the paper's §5.3 optimization builds on.
    pub fn waiters_on(&self, h: Handle) -> Vec<Gid> {
        let mut out = Vec::new();
        match self.heap.get(h) {
            Some(Object::Chan(c)) => {
                for w in c.sendq.iter().chain(c.recvq.iter()) {
                    if self.waiter_valid(w.gid, w.token) {
                        out.push(w.gid);
                    }
                }
            }
            Some(Object::Sema) => {
                for w in self.treap.waiters(h) {
                    if self.waiter_valid(w.gid, w.token) {
                        out.push(w.gid);
                    }
                }
            }
            _ => {}
        }
        out
    }

    // ---- panics ----

    pub(crate) fn goroutine_panic(&mut self, gid: Gid, message: &str) -> Exec {
        let location = self
            .goroutine(gid)
            .and_then(|g| g.frames.last())
            .map(|f| self.program.describe_loc(f.func, f.pc.saturating_sub(1)))
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
        let frame = g.frames.last().expect("no frame");
        frame.locals[var.index()]
    }

    pub(crate) fn write_var(&mut self, gid: Gid, var: Var, val: Value) {
        let g = &mut self.goroutines[gid.index() as usize];
        let frame = g.frames.last_mut().expect("no frame");
        frame.locals[var.index()] = val;
    }

    /// Writes into the *top frame* of a parked goroutine (delivery by a
    /// waker) and optionally redirects its pc (select case resume).
    pub(crate) fn deliver(
        &mut self,
        gid: Gid,
        dst: Option<Var>,
        ok_dst: Option<Var>,
        val: Value,
        ok: bool,
        select_target: Option<usize>,
    ) {
        let g = self.goroutines.get_mut(gid.index() as usize).expect("deliver to missing g");
        let frame = g.frames.last_mut().expect("deliver to frameless g");
        if let Some(d) = dst {
            frame.locals[d.index()] = val;
        }
        if let Some(o) = ok_dst {
            frame.locals[o.index()] = Value::Bool(ok);
        }
        if let Some(t) = select_target {
            frame.pc = t;
            g.dirty_select_state = false;
        }
    }
}

impl std::fmt::Debug for Vm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vm")
            .field("tick", &self.tick)
            .field("goroutines", &self.live_count())
            .field("heap_objects", &self.heap.len())
            .field("main_done", &self.main_done)
            .finish()
    }
}
