//! A `Session` pairs a VM with a collector and a pacer — the equivalent of
//! running a Go program under a runtime whose GC triggers automatically.

use crate::config::{GcMode, GolfConfig, Pacer, PacerConfig};
use crate::cycle::GcEngine;
use crate::report::DeadlockReport;
use crate::stats::{GcCycleStats, GcTotals};
use golf_runtime::{RunOutcome, RunStatus, TickStatus, Vm};
use golf_trace::BufferSink;

/// A VM driven with automatic garbage collection.
///
/// The session polls two triggers between scheduler rounds: explicit
/// `runtime.GC()` requests raised by guest code, and the heap-growth pacer.
/// Collections run stop-the-world, as in the paper's implementation (the
/// STW portion is where GOLF reports and shuts down deadlocked goroutines).
///
/// # Example
///
/// ```
/// use golf_core::{Session, GcMode, GolfConfig};
/// use golf_runtime::{ProgramSet, FuncBuilder, Vm, VmConfig, RunStatus};
///
/// let mut p = ProgramSet::new();
/// let site = p.site("main:go");
/// let mut b = FuncBuilder::new("leaky", 1);
/// let ch = b.param(0);
/// let v = b.int(1);
/// b.send(ch, v);
/// let leaky = p.define(b);
/// let mut b = FuncBuilder::new("main", 0);
/// let ch = b.var("ch");
/// b.make_chan(ch, 0);
/// b.go(leaky, &[ch], site);
/// b.clear(ch); // `ch` goes out of scope: last use was the spawn
/// b.sleep(10);
/// b.gc();      // runtime.GC()
/// b.ret(None);
/// p.define(b);
///
/// let vm = Vm::boot(p, VmConfig::default());
/// let mut session = Session::golf(vm);
/// let out = session.run(100_000);
/// assert_eq!(out.status, RunStatus::MainDone);
/// assert_eq!(session.reports().len(), 1);
/// ```
#[derive(Debug)]
pub struct Session {
    vm: Vm,
    engine: GcEngine,
    pacer: Pacer,
    /// When set, STW pause time is charged to the simulated clock at this
    /// many (modeled) nanoseconds per tick.
    pause_ns_per_tick: Option<u64>,
    pause_ns_accum: u64,
}

impl Session {
    /// A session with explicit collector mode and configurations.
    pub fn new(vm: Vm, mode: GcMode, golf: GolfConfig, pacer: PacerConfig) -> Self {
        Session {
            vm,
            engine: GcEngine::new(mode, golf),
            pacer: Pacer::new(pacer),
            pause_ns_per_tick: None,
            pause_ns_accum: 0,
        }
    }

    /// A session under the ordinary (baseline) collector.
    pub fn baseline(vm: Vm) -> Self {
        Self::new(vm, GcMode::Baseline, GolfConfig::default(), PacerConfig::default())
    }

    /// A session under GOLF with default options.
    pub fn golf(vm: Vm) -> Self {
        Self::new(vm, GcMode::Golf, GolfConfig::default(), PacerConfig::default())
    }

    /// A GOLF session in report-only mode (no reclamation) — the paper's
    /// RQ1(b) configuration.
    pub fn golf_report_only(vm: Vm) -> Self {
        Self::new(
            vm,
            GcMode::Golf,
            GolfConfig { reclaim: false, ..GolfConfig::default() },
            PacerConfig::default(),
        )
    }

    /// The underlying VM.
    pub fn vm(&self) -> &Vm {
        &self.vm
    }

    /// Mutable access to the underlying VM.
    pub fn vm_mut(&mut self) -> &mut Vm {
        &mut self.vm
    }

    /// The collector.
    pub fn engine(&self) -> &GcEngine {
        &self.engine
    }

    /// Mutable access to the collector.
    pub fn engine_mut(&mut self) -> &mut GcEngine {
        &mut self.engine
    }

    /// Consumes the session, returning its parts.
    pub fn into_parts(self) -> (Vm, GcEngine) {
        (self.vm, self.engine)
    }

    /// Deadlock reports accumulated so far.
    pub fn reports(&self) -> &[DeadlockReport] {
        self.engine.reports()
    }

    /// Cumulative GC statistics.
    pub fn gc_totals(&self) -> &GcTotals {
        self.engine.totals()
    }

    /// Runs one scheduler round, then collects if guest code requested a GC
    /// or the pacer fired. Returns the VM's tick status.
    pub fn step(&mut self) -> TickStatus {
        let status = self.vm.step_tick();
        let requested = self.vm.take_gc_request();
        if requested || self.pacer.should_collect(self.vm.heap().stats().heap_alloc_bytes) {
            self.collect();
        }
        status
    }

    /// Makes stop-the-world pauses consume simulated time: each cycle's
    /// modeled pause (a fixed STW cost plus per-object marking and
    /// per-liveness-check work) is converted to ticks at `ns_per_tick`.
    /// Service experiments enable this so GC cost shows up in latency.
    pub fn charge_pauses(&mut self, ns_per_tick: u64) {
        self.pause_ns_per_tick = Some(ns_per_tick.max(1));
    }

    /// Installs (or removes) a structured trace sink on the underlying VM.
    ///
    /// While a sink is installed, scheduler and GC events stream to it and
    /// the flight recorder retains recent history for deadlock forensics.
    pub fn set_trace_sink(&mut self, sink: Option<BufferSink>) {
        self.vm.set_trace_sink(sink);
    }

    /// Forces a collection now, returning its statistics.
    pub fn collect(&mut self) -> GcCycleStats {
        let stats = self.engine.collect(&mut self.vm);
        self.pacer.on_cycle_end(stats.live_bytes_after);
        if let Some(ns_per_tick) = self.pause_ns_per_tick {
            self.pause_ns_accum += stats.modeled_stw_ns;
            let ticks = self.pause_ns_accum / ns_per_tick;
            if ticks > 0 {
                self.pause_ns_accum -= ticks * ns_per_tick;
                self.vm.advance_ticks(ticks);
            }
        }
        stats
    }

    /// Runs until main returns, global deadlock, panic, or `max_ticks`.
    pub fn run(&mut self, max_ticks: u64) -> RunOutcome {
        let start = self.vm.now();
        let status = loop {
            match self.step() {
                TickStatus::Progress => {
                    if self.vm.now() - start >= max_ticks {
                        break RunStatus::TickLimit;
                    }
                }
                TickStatus::MainDone => break RunStatus::MainDone,
                TickStatus::GlobalDeadlock => break RunStatus::GlobalDeadlock,
                TickStatus::Panicked => break RunStatus::Panicked,
            }
        };
        self.outcome(status)
    }

    fn outcome(&self, status: RunStatus) -> RunOutcome {
        RunOutcome { status, ticks: self.vm.now(), instrs: self.vm.instrs_executed() }
    }
}
