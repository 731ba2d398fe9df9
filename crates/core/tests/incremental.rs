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
    // The whole bitmap is carried over: every mark is reused, none redone.
    assert_eq!(vm.heap().marked_count() as u64, replayed.objects_marked);
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

/// A retained-heap service: `main` keeps a `nodes`-long linked chain on its
/// stack and parks; `churn` wakes every 500 ticks to rewrite one field of
/// the chain head (a sparse mutation); two `idler`s wake on long timers but
/// never touch the heap.
fn retained_chain(nodes: usize) -> ProgramSet {
    let mut p = ProgramSet::new();
    let node_ty = p.struct_type("node", &["next"]);
    let churn_site = p.site("service:churn");
    let idle_site = p.site("service:idle");

    let mut b = FuncBuilder::new("churn", 1);
    let head = b.param(0);
    let t = b.var("t");
    b.forever(|b| {
        b.sleep(500);
        b.get_field(t, head, 0);
        b.set_field(head, 0, t);
    });
    let churn = p.define(b);

    let mut b = FuncBuilder::new("idler", 0);
    b.forever(|b| {
        b.sleep(2_000);
    });
    let idler = p.define(b);

    let mut b = FuncBuilder::new("main", 0);
    let zero = b.int(0);
    let a = b.var("a");
    let c = b.var("c");
    b.new_struct(node_ty, &[zero], a);
    // Straight-line chain construction: a -> c -> a -> ...
    for i in 1..nodes {
        if i % 2 == 1 {
            b.new_struct(node_ty, &[a], c);
        } else {
            b.new_struct(node_ty, &[c], a);
        }
    }
    let head = if nodes % 2 == 1 { a } else { c };
    b.go(churn, &[head], churn_site);
    b.go(idler, &[], idle_site);
    b.go(idler, &[], idle_site);
    b.sleep(10_000_000);
    p.define(b);
    p
}

/// Runs `program` twice, incremental and full, with the same seed and the
/// same collect points: `boot` ticks (none if 0), then one collection after
/// each burst. Asserts identical reports, live sets, totals and per-cycle
/// projections, and returns how many incremental cycles replayed.
fn assert_modes_equivalent(
    program: impl Fn() -> ProgramSet,
    config: VmConfig,
    boot: u64,
    bursts: &[u64],
) -> usize {
    let run = |incremental: bool| {
        let mut vm = Vm::boot(program(), config.clone());
        let mut gc = GcEngine::new(GcMode::Golf, GolfConfig { incremental, ..Default::default() });
        if boot > 0 {
            vm.run(boot);
        }
        let mut cycles = Vec::new();
        for &burst in bursts {
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
    inc_cycles.iter().filter(|c| c.incremental_replayed).count()
}

#[test]
fn incremental_and_full_runs_are_equivalent() {
    // The replay invariant in miniature: same program, same seed, same
    // collect points — identical reports, live sets and modeled totals.
    let replayed =
        assert_modes_equivalent(leaky_service, VmConfig::default(), 0, &[50, 0, 0, 0, 2_000, 0, 0]);
    assert!(replayed > 0, "the idle bursts must exercise the replay path");

    // A large retained heap under a sparse mutator: 40-tick bursts are far
    // shorter than the churn period, so most cycles are quiescent.
    let config = VmConfig { seed: 0x601F, ..VmConfig::default() };
    let replayed = assert_modes_equivalent(|| retained_chain(2_000), config, 3_000, &[40; 200]);
    assert_eq!(replayed, 183, "replayed cycles of 200 on the retained chain");
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
