//! Incremental cycle replay: steady cycles under proven quiescence are
//! answered from the cache, any observable change invalidates it, and the
//! replayed outcome is identical to what a full cycle computes.

use golf_core::{GcEngine, GcMode, GcTotals, GolfConfig, LivenessHint};
use golf_runtime::{FuncBuilder, ProgramSet, Vm, VmConfig};

/// A service-like program: main parks on a long sleep while one goroutine
/// leaks (blocked send on a dropped channel).
fn leaky_service() -> ProgramSet {
    let mut p = ProgramSet::new();
    let site = p.site("main:go");
    let mut b = FuncBuilder::new("leaky", 1);
    let ch = b.param(0);
    let v = b.int(1);
    b.send(ch, v);
    let leaky = p.define(b);
    let mut b = FuncBuilder::new("main", 0);
    let ch = b.var("ch");
    b.make_chan(ch, 0);
    b.go(leaky, &[ch], site);
    b.clear(ch);
    b.sleep(1_000_000);
    p.define(b);
    p
}

/// An idle program: main allocates a little, then sleeps forever.
fn idle_service() -> ProgramSet {
    let mut p = ProgramSet::new();
    let mut b = FuncBuilder::new("main", 0);
    let ch = b.var("ch");
    b.make_chan(ch, 4);
    b.sleep(1_000_000);
    p.define(b);
    p
}

/// Project out the fields of a cycle that are deterministic and
/// mode-independent (everything except wall-clock durations and the
/// incremental bookkeeping fields).
fn projection(s: &golf_core::GcCycleStats) -> impl PartialEq + std::fmt::Debug {
    (
        (s.cycle, s.golf_detection, s.mark_iterations, s.objects_marked, s.pointer_traversals),
        (s.liveness_checks, s.deadlocks_detected, s.deadlocks_reclaimed),
        (s.preserved_for_finalizers, s.swept_objects, s.swept_bytes),
        (s.live_bytes_after, s.modeled_stw_ns, s.phases.clone()),
    )
}

fn totals_projection(t: &GcTotals) -> impl PartialEq + std::fmt::Debug {
    (
        t.num_gc,
        t.modeled_stw_total_ns,
        t.swept_objects,
        t.swept_bytes,
        t.deadlocks_detected,
        t.deadlocks_reclaimed,
        t.pointer_traversals,
    )
}

#[test]
fn quiescent_cycles_are_replayed() {
    let mut vm = Vm::boot(idle_service(), VmConfig::default());
    vm.run(100);
    let mut gc = GcEngine::golf();
    let full = gc.collect(&mut vm); // steady: primes the cache
    assert!(!full.incremental_replayed, "nothing cached yet");
    assert_eq!(full.swept_objects, 0, "idle service must be steady");
    let replayed = gc.collect(&mut vm);
    assert!(replayed.incremental_replayed, "second idle cycle replays the first");
    assert_eq!(gc.cycles_replayed(), 1);
    assert_eq!(replayed.marks_reused, full.objects_marked);
    assert!(replayed.liveness_cache_hits > 0);
    // The replayed cycle equals the full cycle in every deterministic
    // field except the cycle number.
    let mut expect = full.clone();
    expect.cycle = replayed.cycle;
    assert_eq!(projection(&replayed), projection(&expect));
}

/// A program whose worker mutates a heap struct forever: every run burst
/// performs heap writes, so no two consecutive cycles are quiescent.
fn mutating_service() -> ProgramSet {
    let mut p = ProgramSet::new();
    let ty = p.struct_type("counter", &["n"]);
    let site = p.site("main:spin");
    let mut b = FuncBuilder::new("spin", 1);
    let c = b.param(0);
    let t = b.var("t");
    let one = b.int(1);
    b.forever(|b| {
        b.sleep(5);
        b.get_field(t, c, 0);
        b.bin(golf_runtime::BinOp::Add, t, t, one);
        b.set_field(c, 0, t);
    });
    let spin = p.define(b);
    let mut b = FuncBuilder::new("main", 0);
    let zero = b.int(0);
    let c = b.var("c");
    b.new_struct(ty, &[zero], c);
    b.go(spin, &[c], site);
    b.sleep(1_000_000);
    p.define(b);
    p
}

#[test]
fn mutation_invalidates_the_cache() {
    let mut vm = Vm::boot(mutating_service(), VmConfig::default());
    vm.run(100);
    let mut gc = GcEngine::golf();
    gc.collect(&mut vm);
    // Consecutive collects with no execution in between replay...
    assert!(gc.collect(&mut vm).incremental_replayed);
    // ...but a burst of the spinning mutator dirties the heap, so the next
    // cycle must prove liveness from scratch.
    let epoch = vm.heap().mutation_epoch();
    vm.run(100);
    assert!(vm.heap().mutation_epoch() > epoch, "the write barrier recorded the mutations");
    let after = gc.collect(&mut vm);
    assert!(!after.incremental_replayed, "heap mutation invalidates the replay cache");
}

#[test]
fn full_gc_mode_never_replays() {
    let mut vm = Vm::boot(idle_service(), VmConfig::default());
    vm.run(100);
    let mut gc = GcEngine::golf();
    gc.set_golf_config(GolfConfig { incremental: false, ..GolfConfig::default() });
    for _ in 0..4 {
        let s = gc.collect(&mut vm);
        assert!(!s.incremental_replayed);
    }
    assert_eq!(gc.cycles_replayed(), 0);
}

#[test]
fn disabled_barrier_disables_replay() {
    let mut vm = Vm::boot(idle_service(), VmConfig::default());
    vm.run(100);
    vm.heap_mut().set_dirty_tracking(false);
    let epoch = vm.heap().mutation_epoch();
    let mut gc = GcEngine::golf();
    for _ in 0..4 {
        let s = gc.collect(&mut vm);
        assert!(!s.incremental_replayed, "no barrier ⇒ quiescence unprovable ⇒ full cycles");
    }
    assert_eq!(vm.heap().mutation_epoch(), epoch, "a disabled barrier records nothing");
    assert_eq!(gc.cycles_replayed(), 0);
}

#[test]
fn incremental_and_full_runs_are_equivalent() {
    // The tentpole invariant in miniature: same program, same seed, same
    // collect points — identical reports, live sets and modeled totals.
    let run = |incremental: bool| {
        let mut vm = Vm::boot(leaky_service(), VmConfig::default());
        let mut gc = GcEngine::new(GcMode::Golf, GolfConfig { incremental, ..Default::default() });
        let mut cycles = Vec::new();
        for burst in [50u64, 0, 0, 0, 2_000, 0, 0] {
            vm.run(burst);
            cycles.push(gc.collect(&mut vm));
        }
        let mut live: Vec<u64> = vm.heap().handles().map(|h| h.raw()).collect();
        live.sort_unstable();
        let reports: Vec<String> = gc.reports().iter().map(|r| format!("{r:?}")).collect();
        (cycles, live, reports, *gc.totals())
    };
    let (inc_cycles, inc_live, inc_reports, inc_totals) = run(true);
    let (full_cycles, full_live, full_reports, full_totals) = run(false);
    assert_eq!(inc_live, full_live, "live sets diverge");
    assert_eq!(inc_reports, full_reports, "reports diverge");
    assert_eq!(totals_projection(&inc_totals), totals_projection(&full_totals));
    assert_eq!(inc_cycles.len(), full_cycles.len());
    for (a, b) in inc_cycles.iter().zip(&full_cycles) {
        assert_eq!(projection(a), projection(b), "cycle {} diverges", a.cycle);
    }
    assert!(
        inc_cycles.iter().any(|c| c.incremental_replayed),
        "the idle bursts must exercise the replay path"
    );
}

#[test]
fn new_hint_invalidates_the_cache() {
    let mut vm = Vm::boot(idle_service(), VmConfig::default());
    vm.run(100);
    let mut gc = GcEngine::golf();
    gc.collect(&mut vm);
    gc.collect(&mut vm);
    assert!(gc.collect(&mut vm).incremental_replayed);
    gc.add_liveness_hint(LivenessHint::InertSpawnSite("nowhere:1".into()));
    assert!(!gc.collect(&mut vm).incremental_replayed, "hints change the fixed point");
}

#[test]
fn forensic_trace_events_are_opt_in() {
    use golf_core::Session;
    use golf_trace::VecSink;

    let run = |trace_incremental: bool| {
        let vm = Vm::boot(mutating_service(), VmConfig::default());
        let mut session = Session::golf(vm);
        let golf = session.engine().golf_config();
        session.engine_mut().set_golf_config(GolfConfig { trace_incremental, ..golf });
        let sink = VecSink::new();
        session.set_trace_sink(Some(Box::new(sink.clone())));
        session.run(100);
        session.collect(); // full cycle over the mutated heap
        session.collect(); // quiescent: replayed
        sink.records().iter().map(|r| r.to_jsonl() + "\n").collect::<String>()
    };

    let quiet = run(false);
    assert!(
        !quiet.contains("gc_incremental_skip"),
        "forensic events must stay out of the default trace"
    );
    let forensic = run(true);
    assert!(forensic.contains("\"type\":\"gc_incremental_skip\""), "opt-in replay event missing");
    // Stripping the opt-in lines recovers the default trace, modulo the
    // sequence numbers the extra events consumed.
    let strip_seq = |s: &str| {
        s.lines()
            .filter(|l| !l.contains("gc_incremental_skip"))
            .map(|l| {
                let start = l.find(",\"seq\":").unwrap();
                let end = start + 7 + l[start + 7..].find(',').unwrap();
                format!("{}{}\n", &l[..start], &l[end..])
            })
            .collect::<String>()
    };
    assert_eq!(strip_seq(&forensic), strip_seq(&quiet), "opt-in events must be purely additive");
}
