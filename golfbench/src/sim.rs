//! The tick loop and the measurements taken around it.
//!
//! [`Sim`] drives a session the way `Session::step` does — `Vm::step_tick`,
//! then `Vm::take_gc_request`, the pacer and any forced interval — but
//! calls `Session::collect` itself, so every collection is timed around its
//! call whatever triggered it. [`Meter`] holds what a workload run
//! measures: collection pauses, the wall time between collections,
//! correctness checks (kept out of every timed interval) and, in a traced
//! run, spans and per-layer counts.

use crate::trace::Tracer;
use golf_core::oracle::compute_liveness;
use golf_core::{DeadlockReport, GcCycleStats, Pacer, PacerConfig, Session};
use golf_heap::HeapStats;
use golf_runtime::{TickStatus, VmCounters};
use std::collections::HashSet;
use std::time::Instant;

/// Traced ticks are timed in batches of at most this many consecutive
/// ticks (a batch also ends before each collection). Live goroutines are
/// counted once per batch: counting walks the goroutine table, which would
/// otherwise dominate cheap ticks.
const TICK_BATCH: u64 = 64;

/// Per-layer counts accumulated over traced episodes.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCounts {
    /// Instructions executed.
    pub instrs: u64,
    /// Goroutine parks.
    pub parks: u64,
    /// Goroutine wakes.
    pub wakes: u64,
    /// Goroutines spawned.
    pub spawned: u64,
    /// Heap allocations.
    pub allocs: u64,
    /// Heap frees.
    pub frees: u64,
    /// Sum of the sampled live-goroutine counts.
    pub goroutine_sum: u64,
    /// Number of live-goroutine samples.
    pub goroutine_samples: u64,
}

/// One collection of a traced episode.
#[derive(Debug, Clone, Copy)]
pub struct CycleRec {
    /// Wall ns of the `Session::collect` call.
    pub ns: u64,
    /// Whether the cycle was replayed from the incremental cache.
    pub replayed: bool,
    /// Program-reported mark time.
    pub mark_ns: u64,
    /// Objects marked.
    pub objects_marked: u64,
    /// Edges followed while marking.
    pub pointer_traversals: u64,
    /// Mark iterations to the fixed point.
    pub mark_iterations: u64,
    /// GOLF liveness checks.
    pub liveness_checks: u64,
    /// Deadlocks reported.
    pub reports: u64,
    /// Deadlocked goroutines reclaimed.
    pub reclaimed: u64,
    /// Objects swept.
    pub swept: u64,
    /// Heap objects left after the sweep.
    pub live_objects: u64,
}

/// Measurements of one workload run.
#[derive(Debug)]
pub struct Meter {
    tracer: Option<Tracer>,
    tracing: bool,
    measuring: bool,
    /// Pause of every collection in the current untraced measured phase,
    /// in µs.
    pub pauses_us: Vec<f64>,
    /// Wall ns of each segment of the current untraced measured phase,
    /// checks excluded. A segment ends with each collection and with the
    /// phase, so the segments of a phase add up to its timed wall.
    pub segments_ns: Vec<f64>,
    /// Every collection in traced measured phases.
    pub cycles: Vec<CycleRec>,
    /// Per-layer counts over traced measured phases.
    pub layer: LayerCounts,
    /// Correctness checks made.
    pub checks: u64,
    /// Correctness checks failed.
    pub failed: u64,
    /// Wall ns spent in checks; subtracted from every timed interval.
    pub check_ns: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// Collections in measured phases (traced or not).
    pub collections: u64,
    /// Start and length of the open batch of timed ticks.
    batch: Option<(Instant, u64)>,
    /// Start of the open segment, and `check_ns` then.
    segment: Option<(Instant, u64)>,
}

/// A check in progress: its start time and span.
#[must_use]
pub struct CheckTimer(Instant, Option<usize>);

impl Meter {
    /// A meter; `tracer` is `Some` in a traced run.
    pub fn new(tracer: Option<Tracer>) -> Self {
        Meter {
            tracer,
            tracing: false,
            measuring: false,
            pauses_us: Vec::new(),
            segments_ns: Vec::new(),
            cycles: Vec::new(),
            layer: LayerCounts::default(),
            checks: 0,
            failed: 0,
            check_ns: 0,
            failures: Vec::new(),
            collections: 0,
            batch: None,
            segment: None,
        }
    }

    /// Sets whether the following work is a measured phase and whether it
    /// is traced (tracing needs a tracer). Ends the open segment, and opens
    /// one when an untraced measured phase begins.
    pub fn set_phase(&mut self, measuring: bool, traced: bool) {
        self.cut_segment(Instant::now());
        self.measuring = measuring;
        self.tracing = traced && self.tracer.is_some();
        self.segment = (measuring && !self.tracing).then(|| (Instant::now(), self.check_ns));
    }

    /// Ends the open segment at `at`, if any, and opens the next one there.
    fn cut_segment(&mut self, at: Instant) {
        if let Some((start, checks)) = self.segment {
            let ns = at.duration_since(start).as_nanos() as u64;
            self.segments_ns.push(ns.saturating_sub(self.check_ns - checks) as f64);
            self.segment = Some((at, self.check_ns));
        }
    }

    /// The tracer, in a traced run.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Opens a span when tracing.
    pub fn begin(&mut self, name: &'static str) -> Option<usize> {
        if self.tracing {
            self.tracer.as_mut().map(|t| t.begin(name))
        } else {
            None
        }
    }

    /// Closes a span opened by [`Meter::begin`].
    pub fn end(&mut self, span: Option<usize>) {
        if let (Some(t), Some(id)) = (self.tracer.as_mut(), span) {
            t.end(id);
        }
    }

    /// Closes the open batch of timed ticks, if any.
    fn close_batch(&mut self) {
        if let (Some((start, ticks)), Some(t)) = (self.batch.take(), self.tracer.as_mut()) {
            t.ticks_done(ticks, start.elapsed().as_nanos() as u64);
        }
    }

    /// Starts a correctness check; its time is excluded from timed work.
    pub fn check_begin(&mut self) -> CheckTimer {
        self.close_batch();
        let span = self.begin("check");
        CheckTimer(Instant::now(), span)
    }

    /// Ends a correctness check started by [`Meter::check_begin`].
    pub fn check_end(&mut self, timer: CheckTimer) {
        self.check_ns += timer.0.elapsed().as_nanos() as u64;
        self.end(timer.1);
    }

    /// Records one correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }
}

/// The outcome of one collection.
pub struct Collected {
    /// The cycle's statistics.
    pub stats: GcCycleStats,
    /// Reports made by this cycle.
    pub reports: Vec<DeadlockReport>,
    /// Heap objects after the cycle.
    pub live_objects: u64,
}

#[derive(Debug, Clone, Copy)]
struct Snapshot {
    instrs: u64,
    counters: VmCounters,
    heap: HeapStats,
}

/// A session driven tick by tick.
pub struct Sim {
    /// The session under measurement.
    pub session: Session,
    pacer: Pacer,
    /// Collect whenever the tick count is a multiple of this.
    pub force_every: Option<u64>,
    /// Check every this-many collections against the oracle, starting with
    /// the first (0: none by period).
    pub oracle_every: u64,
    /// Check the next collection against the oracle.
    pub check_next: bool,
    collections: u64,
    start: Option<Snapshot>,
}

impl Sim {
    /// Wraps `session`, with its own pacer mirroring the session's.
    pub fn new(session: Session, pacer: PacerConfig) -> Self {
        Sim {
            session,
            pacer: Pacer::new(pacer),
            force_every: None,
            oracle_every: 0,
            check_next: false,
            collections: 0,
            start: None,
        }
    }

    /// Starts counting per-layer work (see [`Sim::end_measure`]).
    pub fn begin_measure(&mut self) {
        self.start = Some(self.snapshot());
    }

    /// Adds the work done since [`Sim::begin_measure`] to the meter's
    /// per-layer counts when the phase is traced.
    pub fn end_measure(&mut self, m: &mut Meter) {
        m.close_batch();
        let Some(s) = self.start.take() else { return };
        if !m.tracing {
            return;
        }
        let e = self.snapshot();
        let l = &mut m.layer;
        l.instrs += e.instrs - s.instrs;
        l.parks += e.counters.parks - s.counters.parks;
        l.wakes += e.counters.wakes - s.counters.wakes;
        l.spawned += e.counters.spawned - s.counters.spawned;
        l.allocs += e.heap.total_allocs - s.heap.total_allocs;
        l.frees += e.heap.total_frees - s.heap.total_frees;
    }

    fn snapshot(&self) -> Snapshot {
        let vm = self.session.vm();
        Snapshot { instrs: vm.instrs_executed(), counters: vm.counters(), heap: *vm.heap().stats() }
    }

    /// One scheduler round, then a collection if guest code asked for one,
    /// the pacer fired or the forced interval came up.
    ///
    /// In a traced measured phase, a tick batch's time covers the rounds
    /// and the polling of the three triggers.
    pub fn tick(&mut self, m: &mut Meter) -> (TickStatus, Option<Collected>) {
        let timed = m.measuring && m.tracing;
        if timed && m.batch.is_none() {
            m.batch = Some((Instant::now(), 0));
        }
        let vm = self.session.vm_mut();
        let status = vm.step_tick();
        let requested = vm.take_gc_request();
        let forced = self.force_every.is_some_and(|n| vm.now().is_multiple_of(n));
        let collect =
            requested || forced || self.pacer.should_collect(vm.heap().stats().heap_alloc_bytes);
        if let Some((_, ticks)) = m.batch.as_mut().filter(|_| timed) {
            *ticks += 1;
            if *ticks == TICK_BATCH || collect {
                m.close_batch();
                m.layer.goroutine_sum += self.session.vm().live_count() as u64;
                m.layer.goroutine_samples += 1;
            }
        }
        if collect {
            return (status, Some(self.collect(m)));
        }
        (status, None)
    }

    /// Runs one timed `Session::collect`, checked against the oracle when
    /// this collection is in the checked subset.
    pub fn collect(&mut self, m: &mut Meter) -> Collected {
        m.close_batch();
        let checked = std::mem::take(&mut self.check_next)
            || (self.oracle_every > 0 && self.collections.is_multiple_of(self.oracle_every));
        self.collections += 1;
        let oracle = checked.then(|| {
            let timer = m.check_begin();
            let verdict = compute_liveness(self.session.vm());
            m.check_end(timer);
            verdict
        });

        let span = m.begin("collect");
        let t0 = Instant::now();
        let stats = self.session.collect();
        let t1 = Instant::now();
        let ns = t1.duration_since(t0).as_nanos() as u64;
        m.end(span);
        m.cut_segment(t1);
        self.pacer.on_cycle_end(stats.live_bytes_after);
        let reports = self.session.engine_mut().take_reports();
        let live_objects = self.session.vm().heap().stats().heap_objects;

        if m.measuring {
            m.collections += 1;
            if m.tracing {
                m.cycles.push(CycleRec {
                    ns,
                    replayed: stats.incremental_replayed,
                    mark_ns: stats.mark_ns,
                    objects_marked: stats.objects_marked,
                    pointer_traversals: stats.pointer_traversals,
                    mark_iterations: u64::from(stats.mark_iterations),
                    liveness_checks: stats.liveness_checks,
                    reports: stats.deadlocks_detected as u64,
                    reclaimed: stats.deadlocks_reclaimed as u64,
                    swept: stats.swept_objects,
                    live_objects,
                });
            } else {
                m.pauses_us.push(ns as f64 / 1_000.0);
            }
        }

        if let Some(oracle) = oracle {
            let timer = m.check_begin();
            let reported: HashSet<_> = reports.iter().map(|r| r.gid).collect();
            let cycle = stats.cycle;
            m.check(reported == oracle.deadlocked, || {
                format!(
                    "cycle {cycle}: {} reports vs {} oracle-deadlocked goroutines",
                    reported.len(),
                    oracle.deadlocked.len()
                )
            });
            let heap = self.session.vm().heap();
            let swept_live =
                oracle.reachable_objects.iter().filter(|h| !heap.contains(**h)).count();
            m.check(swept_live == 0, || {
                format!("cycle {cycle}: swept {swept_live} oracle-reachable objects")
            });
            m.check_end(timer);
        }
        Collected { stats, reports, live_objects }
    }
}
