//! The garbage-collection cycle: baseline marking, the GOLF reachable-
//! liveness fixed point, deadlock reporting, finalizer-preserving recovery,
//! and sweeping. This module is the reproduction of the paper's §4.2/§5.

use crate::config::{ExpansionStrategy, GcMode, GolfConfig};
use crate::forensics;
use crate::mark::Marker;
use crate::report::DeadlockReport;
use crate::stats::{GcCycleStats, GcTotals, PhaseEvent};
use golf_heap::MarkBits;
use golf_runtime::{GStatus, Gid, Goroutine, Value, Vm};
use golf_trace::TraceEvent;
use std::sync::Arc;
use std::time::Instant;

/// Reusable per-cycle working state, hoisted out of [`GcEngine::collect`] so
/// steady-state cycles clear containers instead of reallocating them.
#[derive(Debug, Default)]
struct CycleScratch {
    /// Goroutines in the root set: not deadlock candidates, or reachably
    /// live so far.
    /// Keyed by goroutine slot, which is exact because no slot is reused
    /// inside [`GcEngine::collect`] up to the sweep: finalizer goroutines
    /// spawn after it, and a slot freed by [`Vm::force_shutdown`] is reused
    /// only by a spawn.
    in_roots: MarkBits,
    added: Vec<Gid>,
    /// Unmarked objects the reclaim loop's finalizer checks have visited,
    /// keyed by heap slot. Exact because the collector allocates no heap
    /// object before the sweep, so no slot is reused while it is read.
    finalizer_seen: MarkBits,
    finalizer_work: Vec<golf_heap::Handle>,
}

impl CycleScratch {
    fn reset(&mut self) {
        self.in_roots.clear_all();
        self.added.clear();
        self.finalizer_seen.clear_all();
    }
}

/// The outcome of the last side-effect-free cycle, kept per detection
/// parity (`detect_every > 1` alternates detection and plain cycles).
///
/// A cached cycle is *replayable* exactly when the world it observed is
/// provably unchanged: same heap mutation epoch, same runtime-roots epoch,
/// and the same liveness fingerprint for every live goroutine. A cycle is
/// cached only if it was *steady* — it detected, reclaimed, preserved,
/// swept, and resurrected nothing — so replaying its outcome is
/// byte-identical to re-running it. Partial bitmap reuse under mutation is
/// deliberately NOT attempted: a mutated object dropping its last
/// reference to an unmutated one would leave a stale mark (over-live), and
/// a new object reachable only through unmutated marked objects would
/// never be re-discovered (under-marked). Full quiescence is the only
/// condition under which carrying the bitmap is exact; see DESIGN.md §10.
#[derive(Debug, Clone)]
struct CycleCache {
    heap_epoch: u64,
    roots_epoch: u64,
    fingerprints: Vec<u64>,
    /// `objects_marked` at mark-phase end, *before* the pre-sweep drain —
    /// the count the default `gc_phase_end` trace event carries. In
    /// report-only mode the drain re-marks the stacks of goroutines already
    /// reported, so a steady cycle's final stat can exceed it.
    mark_phase_count: u64,
    stats: GcCycleStats,
}

/// The collector: owns mode, configuration, cumulative statistics, cycle
/// history and the accumulated deadlock reports.
///
/// One engine drives one [`Vm`] across its lifetime (pair them with
/// [`Session`](crate::Session) for pacer-driven collection).
///
/// # Example
///
/// ```
/// use golf_core::{GcEngine, GcMode, GolfConfig};
/// use golf_runtime::{ProgramSet, FuncBuilder, Vm, VmConfig};
///
/// let mut p = ProgramSet::new();
/// let site = p.site("main:go");
/// let mut b = FuncBuilder::new("leaky", 1);
/// let ch = b.param(0);
/// let v = b.int(1);
/// b.send(ch, v); // blocks forever: the channel is dropped by main
/// let leaky = p.define(b);
/// let mut b = FuncBuilder::new("main", 0);
/// let ch = b.var("ch");
/// b.make_chan(ch, 0);
/// b.go(leaky, &[ch], site);
/// b.sleep(10);
/// b.ret(None);
/// p.define(b);
///
/// let mut vm = Vm::boot(p, VmConfig::default());
/// vm.run(1_000);
/// let mut gc = GcEngine::new(GcMode::Golf, GolfConfig::default());
/// gc.collect(&mut vm);
/// assert_eq!(gc.reports().len(), 1);
/// assert!(gc.reports()[0].block_location.starts_with("leaky:"));
/// ```
#[derive(Debug)]
pub struct GcEngine {
    mode: GcMode,
    golf: GolfConfig,
    totals: GcTotals,
    history: Vec<GcCycleStats>,
    reports: Vec<DeadlockReport>,
    keep_history: bool,
    scratch: CycleScratch,
    /// Replay caches indexed by detection parity (`detection as usize`), so
    /// `detect_every > 1` workloads can replay both flavors of cycle.
    caches: [Option<CycleCache>; 2],
    cycles_replayed: u64,
}

impl GcEngine {
    /// A collector in the given mode.
    pub fn new(mode: GcMode, golf: GolfConfig) -> Self {
        assert!(golf.detect_every >= 1, "detect_every must be >= 1");
        GcEngine {
            mode,
            golf,
            totals: GcTotals::default(),
            history: Vec::new(),
            reports: Vec::new(),
            keep_history: true,
            scratch: CycleScratch::default(),
            caches: [None, None],
            cycles_replayed: 0,
        }
    }

    /// Replaces the GOLF configuration (e.g. `--full-gc` turning
    /// `incremental` off). Invalidates the incremental replay cache.
    pub fn set_golf_config(&mut self, golf: GolfConfig) {
        assert!(golf.detect_every >= 1, "detect_every must be >= 1");
        self.golf = golf;
        self.caches = [None, None];
    }

    /// The current GOLF configuration.
    pub fn golf_config(&self) -> GolfConfig {
        self.golf
    }

    /// Number of cycles answered from the incremental replay cache instead
    /// of being executed.
    pub fn cycles_replayed(&self) -> u64 {
        self.cycles_replayed
    }

    /// A baseline collector (ordinary Go GC).
    pub fn baseline() -> Self {
        Self::new(GcMode::Baseline, GolfConfig::default())
    }

    /// A GOLF collector with default options (detect every cycle, reclaim).
    pub fn golf() -> Self {
        Self::new(GcMode::Golf, GolfConfig::default())
    }

    /// Disables per-cycle history retention (long-running services).
    pub fn set_keep_history(&mut self, keep: bool) {
        self.keep_history = keep;
    }

    /// Cumulative statistics.
    pub fn totals(&self) -> &GcTotals {
        &self.totals
    }

    /// Per-cycle statistics (empty if history retention is disabled).
    pub fn history(&self) -> &[GcCycleStats] {
        &self.history
    }

    /// All deadlock reports so far, in detection order.
    pub fn reports(&self) -> &[DeadlockReport] {
        &self.reports
    }

    /// Removes and returns the accumulated reports.
    pub fn take_reports(&mut self) -> Vec<DeadlockReport> {
        std::mem::take(&mut self.reports)
    }

    /// Attempts to answer this cycle from the replay cache. Succeeds only
    /// under proven full quiescence: unchanged heap mutation epoch,
    /// unchanged runtime-roots epoch, and an unchanged liveness fingerprint
    /// for every live goroutine (in slot order). Checks run cheapest-first.
    fn try_replay(
        &mut self,
        vm: &mut Vm,
        cycle_no: u64,
        detection: bool,
        pause_start: Instant,
    ) -> Option<GcCycleStats> {
        let (mut stats, mark_phase_count) = {
            let cache = self.caches[usize::from(detection)].as_ref()?;
            if vm.heap().mutation_epoch() != cache.heap_epoch
                || vm.roots_epoch() != cache.roots_epoch
            {
                return None;
            }
            let mut n = 0usize;
            for g in vm.live_goroutines() {
                if cache.fingerprints.get(n).copied() != Some(g.liveness_fingerprint()) {
                    return None;
                }
                n += 1;
            }
            if n != cache.fingerprints.len() {
                return None;
            }
            (cache.stats.clone(), cache.mark_phase_count)
        };

        // Quiescence proven: the cached (side-effect-free) cycle would be
        // reproduced byte-for-byte, so replay its outcome. The mark bitmap
        // from the cached cycle is still exact and is reused wholesale.
        stats.cycle = cycle_no;
        stats.incremental_replayed = true;
        if vm.trace_enabled() {
            // The default trace events a steady full cycle would emit.
            vm.trace_emit(TraceEvent::GcPhaseBegin { cycle: cycle_no, phase: "mark" });
            vm.trace_emit(TraceEvent::GcPhaseEnd {
                cycle: cycle_no,
                phase: "mark",
                count: mark_phase_count,
            });
            if detection {
                vm.trace_emit(TraceEvent::GcPhaseBegin { cycle: cycle_no, phase: "detect" });
                vm.trace_emit(TraceEvent::GcPhaseEnd {
                    cycle: cycle_no,
                    phase: "detect",
                    count: 0,
                });
            }
            vm.trace_emit(TraceEvent::GcPhaseBegin { cycle: cycle_no, phase: "sweep" });
            vm.trace_emit(TraceEvent::GcPhaseEnd { cycle: cycle_no, phase: "sweep", count: 0 });
        }
        stats.mark_ns = 0;
        stats.pause_ns = pause_start.elapsed().as_nanos() as u64;
        self.totals.absorb(&stats);
        self.cycles_replayed += 1;
        if self.keep_history {
            self.history.push(stats.clone());
        }
        Some(stats)
    }

    /// Runs one full garbage-collection cycle on `vm`.
    ///
    /// Phases (paper Figure 2): initialization, (restricted) root
    /// preparation, iterative marking with GOLF root expansion to the
    /// reachable-liveness fixed point, deadlock detection, recovery (forced
    /// shutdown or finalizer preservation), sweep.
    pub fn collect(&mut self, vm: &mut Vm) -> GcCycleStats {
        let pause_start = Instant::now();
        let cycle_no = self.totals.num_gc + 1;
        let detection = self.mode == GcMode::Golf
            && (cycle_no - 1).is_multiple_of(u64::from(self.golf.detect_every));

        let incremental = self.mode == GcMode::Golf && self.golf.incremental;
        if incremental {
            if let Some(stats) = self.try_replay(vm, cycle_no, detection, pause_start) {
                return stats;
            }
        }

        let mut stats =
            GcCycleStats { cycle: cycle_no, golf_detection: detection, ..Default::default() };
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.reset();

        // ---- Initialization ----
        // A full clear: partial bitmap reuse under mutation is unsound (see
        // [`CycleCache`]); the bitmap is only ever carried over whole, by
        // the replay path above.
        vm.heap_mut().clear_marks();
        stats.phases.push(PhaseEvent::Init);

        let mut marker = Marker::new();
        for h in vm.runtime_root_handles() {
            marker.push_root(h);
        }

        // Root preparation: GOLF withholds goroutines blocked at
        // deadlock-eligible concurrency operations (paper §4.2 step 1); the
        // baseline includes everything (§5.1).
        let mut goroutine_roots = 0usize;
        for g in vm.live_goroutines() {
            let include = !detection || !g.deadlock_candidate();
            if include {
                for h in g.stack_roots() {
                    marker.push_root(h);
                }
                scratch.in_roots.try_set(g.id.index() as usize);
                goroutine_roots += 1;
            }
        }
        stats.phases.push(PhaseEvent::RootsPrepared { goroutine_roots, restricted: detection });

        // ---- Iterative marking to the reachable-liveness fixed point ----
        // Root expansion (paper §4.2 step 3): a blocked goroutine whose B(g)
        // intersects the marked heap is reachably live. The §5.3 strategies
        // differ only in when such a goroutine is found and when its stack
        // joins the worklist: `Rescan` re-scans every blocked goroutine after
        // each iteration; `FromMarked` tests the waiters of each object as it
        // is blackened and pushes the stacks after the iteration;
        // `Incremental` pushes them at once, so marking finishes in one pass.
        if vm.trace_enabled() {
            vm.trace_emit(TraceEvent::GcPhaseBegin { cycle: cycle_no, phase: "mark" });
        }
        let mark_start = Instant::now();
        let strategy = self.golf.expansion;
        let check_waiters = detection && strategy != ExpansionStrategy::Rescan;
        loop {
            stats.mark_iterations += 1;
            let before = marker.marked;
            scratch.added.clear();
            while let Some(h) = marker.step(vm.heap_mut()) {
                if !check_waiters {
                    continue;
                }
                for gid in vm.waiters_on(h) {
                    stats.liveness_checks += 1;
                    // Joining the root set at once dedups a goroutine
                    // waiting on several marked objects.
                    if scratch.in_roots.is_set(gid.index() as usize)
                        || !vm.goroutine(gid).is_some_and(|g| g.deadlock_candidate())
                    {
                        continue;
                    }
                    scratch.in_roots.try_set(gid.index() as usize);
                    if strategy == ExpansionStrategy::Incremental {
                        push_stack(&mut marker, vm, gid);
                    } else {
                        scratch.added.push(gid);
                    }
                }
            }
            stats.phases.push(PhaseEvent::MarkIteration {
                iteration: stats.mark_iterations,
                newly_marked: marker.marked - before,
            });
            if detection && strategy == ExpansionStrategy::Rescan {
                for g in vm.live_goroutines() {
                    if scratch.in_roots.is_set(g.id.index() as usize) || !g.deadlock_candidate() {
                        continue;
                    }
                    let mut live = false;
                    for &o in g.blocked.handles() {
                        stats.liveness_checks += 1;
                        // `is_marked` is false for stale handles too; all
                        // our concurrency objects are heap-tracked, so
                        // there is no "not on the heap ⇒ conservatively
                        // reachable" case (globals are heap objects
                        // reached via the root scan).
                        if vm.heap().is_marked(o) {
                            live = true;
                            break;
                        }
                    }
                    if live {
                        scratch.in_roots.try_set(g.id.index() as usize);
                        scratch.added.push(g.id);
                    }
                }
            }
            if scratch.added.is_empty() {
                break;
            }
            for &gid in &scratch.added {
                push_stack(&mut marker, vm, gid);
            }
            stats.phases.push(PhaseEvent::RootExpansion { goroutines_added: scratch.added.len() });
        }
        stats.mark_ns = mark_start.elapsed().as_nanos() as u64;
        stats.phases.push(PhaseEvent::MarkDone);
        // The marked count *before* the report-only drain below — what the
        // `gc_phase_end` mark event reports, cached for replay.
        let mark_phase_count = marker.marked;
        if vm.trace_enabled() {
            vm.trace_emit(TraceEvent::GcPhaseEnd {
                cycle: cycle_no,
                phase: "mark",
                count: mark_phase_count,
            });
        }

        // ---- Deadlock detection & recovery ----
        if detection {
            if vm.trace_enabled() {
                vm.trace_emit(TraceEvent::GcPhaseBegin { cycle: cycle_no, phase: "detect" });
            }
            let is_deadlocked = |g: &Goroutine| {
                g.deadlock_candidate() && !scratch.in_roots.is_set(g.id.index() as usize)
            };
            let deadlocked: Vec<Gid> =
                vm.live_goroutines().filter(|g| is_deadlocked(g)).map(|g| g.id).collect();

            // Forensics snapshot, shared by this cycle's new reports: capture
            // the wait-for graph while the mark bits are still valid
            // (pre-sweep), and only if some report will carry it.
            let any_new = deadlocked
                .iter()
                .any(|&gid| vm.goroutine(gid).is_some_and(|g| !g.reported_deadlocked));
            let wait_for =
                any_new.then(|| Arc::new(forensics::WaitForGraph::capture(vm, is_deadlocked)));

            let mut new_reports = 0usize;
            for &gid in &deadlocked {
                let already = vm.goroutine(gid).is_some_and(|g| g.reported_deadlocked);
                if already {
                    continue;
                }
                let mut report = self.build_report(vm, gid, cycle_no);
                report.recent_events =
                    forensics::flight_tail(vm, gid, forensics::DEFAULT_FORENSIC_TAIL);
                report.wait_for = wait_for.clone();
                if vm.trace_enabled() {
                    vm.trace_emit(TraceEvent::DeadlockDetected {
                        gid: gid.into(),
                        reason: report.wait_reason.as_str(),
                        location: report.block_location.clone(),
                    });
                }
                self.reports.push(report);
                vm.set_reported(gid);
                new_reports += 1;
            }
            stats.deadlocks_detected = new_reports;
            stats.phases.push(PhaseEvent::DeadlocksDetected { count: new_reports });
            if vm.trace_enabled() {
                vm.trace_emit(TraceEvent::GcPhaseEnd {
                    cycle: cycle_no,
                    phase: "detect",
                    count: new_reports as u64,
                });
            }

            if self.golf.reclaim {
                let mut reclaimed = 0usize;
                let mut preserved = 0usize;
                for &gid in &deadlocked {
                    // Paper §5.5: while marking resources reachable only
                    // from deadlocked goroutines, check for finalizers. Any
                    // finalizer ⇒ keep the goroutine (and its memory) alive
                    // forever so Go's observable semantics are preserved.
                    // Its subgraph is marked at once, before the next
                    // goroutine's finalizer check looks for unmarked objects.
                    if subgraph_has_finalizer(
                        vm,
                        gid,
                        &mut scratch.finalizer_seen,
                        &mut scratch.finalizer_work,
                    ) {
                        vm.set_deadlocked(gid);
                        push_stack(&mut marker, vm, gid);
                        marker.drain(vm.heap_mut());
                        preserved += 1;
                    } else {
                        vm.force_shutdown(gid);
                        reclaimed += 1;
                    }
                }
                stats.deadlocks_reclaimed = reclaimed;
                stats.preserved_for_finalizers = preserved;
                if reclaimed > 0 {
                    stats.phases.push(PhaseEvent::Reclaimed { count: reclaimed });
                }
                if preserved > 0 {
                    stats.phases.push(PhaseEvent::PreservedForFinalizers { count: preserved });
                }
            } else {
                // Report-only mode: the goroutines stay parked, so their
                // memory must survive the sweep (only the *report* is
                // withheld from re-emission).
                for &gid in &deadlocked {
                    push_stack(&mut marker, vm, gid);
                }
            }
        }
        marker.drain(vm.heap_mut());
        stats.objects_marked = marker.marked;
        stats.pointer_traversals = marker.traversals;

        // ---- Sweep ----
        if vm.trace_enabled() {
            vm.trace_emit(TraceEvent::GcPhaseBegin { cycle: cycle_no, phase: "sweep" });
        }
        let outcome = vm.heap_mut().sweep_unmarked();
        stats.swept_objects = outcome.reclaimed_objects;
        stats.swept_bytes = outcome.reclaimed_bytes;
        // Unreachable objects with finalizers were resurrected; run their
        // finalizers on a runtime-internal goroutine, whose stack keeps the
        // object alive until the finalizer has observed it.
        let mut finalizer_spawns = 0usize;
        for (h, fin) in outcome.finalizable {
            vm.spawn_internal(fin.func, &[Value::Ref(h)]);
            finalizer_spawns += 1;
        }
        stats
            .phases
            .push(PhaseEvent::Sweep { objects: stats.swept_objects, bytes: stats.swept_bytes });
        if vm.trace_enabled() {
            vm.trace_emit(TraceEvent::GcPhaseEnd {
                cycle: cycle_no,
                phase: "sweep",
                count: stats.swept_objects,
            });
        }

        stats.live_bytes_after = vm.heap().stats().heap_alloc_bytes;
        stats.pause_ns = pause_start.elapsed().as_nanos() as u64;
        // Modeled STW (Go's marking is concurrent; only root setup, the
        // marking-done handshake — one per marking *iteration*, which is
        // where the paper locates GOLF's primary penalty (§6.2: "the STW
        // phase required to complete the marking phase") — plus GOLF's
        // liveness checks and forced shutdowns stop the world).
        stats.modeled_stw_ns = 150_000 * u64::from(stats.mark_iterations.max(1))
            + stats.liveness_checks * 150
            + stats.deadlocks_reclaimed as u64 * 3_000
            + stats.deadlocks_detected as u64 * 2_000;

        // Cache this cycle for replay if it was *steady* — side-effect
        // free, so reproducing its outcome under quiescence is exact.
        if incremental {
            let steady = stats.deadlocks_detected == 0
                && stats.deadlocks_reclaimed == 0
                && stats.preserved_for_finalizers == 0
                && stats.swept_objects == 0
                && finalizer_spawns == 0;
            self.caches[usize::from(detection)] = steady.then(|| CycleCache {
                heap_epoch: vm.heap().mutation_epoch(),
                roots_epoch: vm.roots_epoch(),
                fingerprints: vm.live_goroutines().map(Goroutine::liveness_fingerprint).collect(),
                mark_phase_count,
                stats: stats.clone(),
            });
        }
        self.totals.absorb(&stats);
        if self.keep_history {
            self.history.push(stats.clone());
        }
        self.scratch = scratch;
        stats
    }

    fn build_report(&self, vm: &Vm, gid: Gid, cycle: u64) -> DeadlockReport {
        let g = vm.goroutine(gid).expect("reporting a stale goroutine");
        let program = vm.program();
        let stack: Vec<String> =
            g.frames.iter().rev().map(|f| program.describe_loc(f.func, f.pc)).collect();
        let block_location = stack.first().cloned().unwrap_or_else(|| "<unknown>".into());
        DeadlockReport {
            gid,
            wait_reason: g.wait_reason().expect("deadlocked goroutine is parked"),
            block_location,
            spawn_site: g.spawn_site.map(|s| program.site_info(s).label.clone()),
            stack,
            cycle,
            tick: vm.now(),
            recent_events: Vec::new(),
            wait_for: None,
        }
    }
}

/// Walks the *unmarked* subgraph reachable from `gid`'s stack, checking for
/// finalizers (paper §5.5). Marked objects are reachable from live goroutines
/// and their finalizers behave normally.
///
/// `seen` is shared by every check of one reclaim loop, so an object is
/// walked at most once per cycle. Skipping a seen object is exact: if the
/// walk that saw it found no finalizer, its whole unmarked subgraph is
/// finalizer-free (a forced shutdown only removes edges); if that walk found
/// one, the caller has marked everything the walk saw.
fn subgraph_has_finalizer(
    vm: &Vm,
    gid: Gid,
    seen: &mut MarkBits,
    work: &mut Vec<golf_heap::Handle>,
) -> bool {
    use golf_heap::Trace;
    let Some(g) = vm.goroutine(gid) else { return false };
    let heap = vm.heap();
    work.clear();
    work.extend(g.stack_roots());
    while let Some(h) = work.pop() {
        if h.is_masked() || heap.is_marked(h) {
            continue;
        }
        // A stale handle resolves to nothing and must not claim its slot.
        let Some(obj) = heap.get(h) else { continue };
        if !seen.try_set(h.index() as usize) {
            continue;
        }
        if heap.has_finalizer(h) {
            return true;
        }
        obj.trace(&mut |child| work.push(child));
    }
    false
}

/// Pushes the stack roots of `gid`, if it still exists, onto `marker`.
fn push_stack(marker: &mut Marker, vm: &Vm, gid: Gid) {
    if let Some(g) = vm.goroutine(gid) {
        for h in g.stack_roots() {
            marker.push_root(h);
        }
    }
}

/// Returns the goroutines currently in the permanent `Deadlocked` state
/// (preserved for finalizer semantics).
pub fn preserved_goroutines(vm: &Vm) -> Vec<Gid> {
    vm.live_goroutines().filter(|g| g.status == GStatus::Deadlocked).map(|g| g.id).collect()
}
