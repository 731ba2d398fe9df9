//! Differential test for incremental GOLF cycles: for every deterministic
//! goker benchmark, the incremental collector (write-barrier epoch +
//! quiescence replay, the default) must produce *exactly* the outcome of
//! `--full-gc` — the same deadlock reports, the same byte-identical default
//! trace, the same mode-invariant cycle statistics, the same final
//! live-heap handle set, and the same modeled totals — across seeds.
//!
//! Only the explicitly mode-dependent fields (`incremental_replayed` and
//! the wall-clock `*_ns` timings) may differ; everything else differing is
//! a soundness bug in the replay path.

use golf_core::{DeadlockReport, GolfConfig, PhaseEvent, Session};
use golf_micro::{corpus, instances_for, Source};
use golf_runtime::{PanicPolicy, Vm, VmConfig};
use golf_trace::BufferSink;

/// The mode-invariant slice of one cycle's statistics.
#[derive(Debug, Clone, PartialEq)]
struct CycleKey {
    cycle: u64,
    golf_detection: bool,
    mark_iterations: u32,
    objects_marked: u64,
    pointer_traversals: u64,
    liveness_checks: u64,
    deadlocks_detected: usize,
    deadlocks_reclaimed: usize,
    preserved_for_finalizers: usize,
    swept_objects: u64,
    swept_bytes: u64,
    live_bytes_after: u64,
    modeled_stw_ns: u64,
    phases: Vec<PhaseEvent>,
}

/// Everything about a run that must not depend on incremental vs full.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    reports: Vec<DeadlockReport>,
    cycles: Vec<CycleKey>,
    live_handles: Vec<u64>,
    trace: String,
    ticks: u64,
    modeled_stw_total_ns: u64,
    swept_objects_total: u64,
    deadlocks_detected_total: u64,
    deadlocks_reclaimed_total: u64,
    pointer_traversals_total: u64,
}

fn cycle_key(c: &golf_core::GcCycleStats) -> CycleKey {
    CycleKey {
        cycle: c.cycle,
        golf_detection: c.golf_detection,
        mark_iterations: c.mark_iterations,
        objects_marked: c.objects_marked,
        pointer_traversals: c.pointer_traversals,
        liveness_checks: c.liveness_checks,
        deadlocks_detected: c.deadlocks_detected,
        deadlocks_reclaimed: c.deadlocks_reclaimed,
        preserved_for_finalizers: c.preserved_for_finalizers,
        swept_objects: c.swept_objects,
        swept_bytes: c.swept_bytes,
        live_bytes_after: c.live_bytes_after,
        modeled_stw_ns: c.modeled_stw_ns,
        phases: c.phases.clone(),
    }
}

fn run_one(mb: &golf_micro::Microbenchmark, seed: u64, incremental: bool) -> (Outcome, u64) {
    let n = instances_for(mb.flakiness, 24);
    let program = (mb.build)(n);
    let config = VmConfig {
        gomaxprocs: 2,
        seed,
        panic_policy: PanicPolicy::KillGoroutine,
        ..VmConfig::default()
    };
    let vm = Vm::boot(program, config);
    let mut session = Session::golf(vm);
    let golf = session.engine().golf_config();
    session.engine_mut().set_golf_config(GolfConfig { incremental, ..golf });
    let buffer = BufferSink::new();
    session.set_trace_sink(Some(buffer.clone()));
    let outcome = session.run(3_000);
    session.collect();
    // A few extra quiescent collections so the steady-state replay path is
    // actually exercised (the workload has gone idle by now).
    session.collect();
    session.collect();

    let cycles = session.engine().history().iter().map(cycle_key).collect();
    let mut live_handles: Vec<u64> = session.vm().heap().handles().map(|h| h.raw()).collect();
    live_handles.sort_unstable();
    let totals = session.engine().totals();
    let replayed = session.engine().cycles_replayed();
    (
        Outcome {
            reports: session.reports().to_vec(),
            cycles,
            live_handles,
            trace: buffer.contents(),
            ticks: outcome.ticks,
            modeled_stw_total_ns: totals.modeled_stw_total_ns,
            swept_objects_total: totals.swept_objects,
            deadlocks_detected_total: totals.deadlocks_detected,
            deadlocks_reclaimed_total: totals.deadlocks_reclaimed,
            pointer_traversals_total: totals.pointer_traversals,
        },
        replayed,
    )
}

#[test]
fn incremental_matches_full_on_deterministic_corpus() {
    let det: Vec<_> =
        corpus().into_iter().filter(|b| b.source == Source::GoBench && b.flakiness == 1).collect();
    assert!(!det.is_empty(), "deterministic goker subset must not be empty");

    let mut total_replayed = 0u64;
    for mb in &det {
        for seed in [0xD1FF_u64, 0x5EED] {
            let (full, _) = run_one(mb, seed, false);
            let (inc, replayed) = run_one(mb, seed, true);
            assert!(!full.trace.is_empty(), "{}: trace must be recorded", mb.name);
            assert_eq!(
                inc, full,
                "{}: incremental outcome diverged from full (seed {seed:#x})",
                mb.name
            );
            total_replayed += replayed;
        }
    }
    assert!(
        total_replayed > 0,
        "the quiescent tail collections must exercise the replay path at least once"
    );
}

/// Property test: random interleavings of execution bursts and collections
/// must leave incremental and full collectors in identical states. Bursts
/// are drawn from a seeded xorshift generator, so failures reproduce.
#[test]
fn random_interleavings_match() {
    let det: Vec<_> =
        corpus().into_iter().filter(|b| b.source == Source::GoBench && b.flakiness == 1).collect();
    let mb = &det[0];

    for case in 0..24u64 {
        let mut rng = 0x9E37_79B9_7F4A_7C15u64 ^ (case + 1);
        let mut next = || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        // A schedule of (ticks-to-run, collects-after) steps.
        let schedule: Vec<(u64, u32)> =
            (0..8).map(|_| (next() % 400, (next() % 3) as u32)).collect();

        let run = |incremental: bool| {
            let n = instances_for(mb.flakiness, 24);
            let vm = Vm::boot(
                (mb.build)(n),
                VmConfig {
                    gomaxprocs: 2,
                    seed: case,
                    panic_policy: PanicPolicy::KillGoroutine,
                    ..VmConfig::default()
                },
            );
            let mut session = Session::golf(vm);
            let golf = session.engine().golf_config();
            session.engine_mut().set_golf_config(GolfConfig { incremental, ..golf });
            let buffer = BufferSink::new();
            session.set_trace_sink(Some(buffer.clone()));
            for &(ticks, collects) in &schedule {
                session.run(ticks);
                for _ in 0..collects {
                    session.collect();
                }
            }
            let cycles: Vec<CycleKey> = session.engine().history().iter().map(cycle_key).collect();
            let mut live: Vec<u64> = session.vm().heap().handles().map(|h| h.raw()).collect();
            live.sort_unstable();
            (session.reports().to_vec(), cycles, live, buffer.contents())
        };
        let full = run(false);
        let inc = run(true);
        assert_eq!(inc, full, "case {case}: random interleaving diverged (schedule {schedule:?})");
    }
}
