//! The §5.3 optimization (`FromMarked` root expansion) must be
//! observationally equivalent to the paper's `Rescan` implementation while
//! doing strictly less liveness-check work when many goroutines block on
//! few objects.

use golf_core::{ExpansionStrategy, GcEngine, GcMode, GolfConfig, Session};
use golf_runtime::{FuncBuilder, PanicPolicy, ProgramSet, SelectSpec, Vm, VmConfig};
use proptest::prelude::*;

fn engine(expansion: ExpansionStrategy) -> GcEngine {
    GcEngine::new(GcMode::Golf, GolfConfig { expansion, ..GolfConfig::default() })
}

/// A mixed program: a live daisy chain, a group of live selectors on shared
/// channels, and a batch of orphaned (deadlocked) goroutines.
fn mixed_program(chain: i64, selectors: i64, orphans: i64) -> ProgramSet {
    let mut p = ProgramSet::new();
    let s_link = p.site("main:link");
    let s_sel = p.site("main:sel");
    let s_orphan = p.site("main:orphan");

    let mut b = FuncBuilder::new("link", 2);
    let mine = b.param(0);
    b.recv(mine, None);
    b.ret(None);
    let link = p.define(b);

    let mut b = FuncBuilder::new("selector", 2);
    let ch1 = b.param(0);
    let ch2 = b.param(1);
    let l1 = b.label();
    let l2 = b.label();
    b.select(SelectSpec::new().recv(ch1, None, l1).recv(ch2, None, l2));
    b.bind(l1);
    b.bind(l2);
    b.ret(None);
    let selector = p.define(b);

    let mut b = FuncBuilder::new("orphan", 1);
    let ch = b.param(0);
    let v = b.int(1);
    b.send(ch, v);
    b.ret(None);
    let orphan = p.define(b);

    let mut b = FuncBuilder::new("main", 0);
    // Daisy chain rooted at main.
    let chans: Vec<_> = (0..chain.max(1)).map(|i| b.var(&format!("c{i}"))).collect();
    for &ch in &chans {
        b.make_chan(ch, 0);
    }
    for i in 0..(chain.max(1) - 1) as usize {
        b.go(link, &[chans[i], chans[i + 1]], s_link);
    }
    // Selectors share two channels main keeps alive.
    let sa = b.var("sa");
    let sb = b.var("sb");
    b.make_chan(sa, 0);
    b.make_chan(sb, 0);
    b.repeat(selectors, |b, _| {
        b.go(selector, &[sa, sb], s_sel);
    });
    // Orphans: deadlocked senders.
    let oc = b.var("oc");
    b.repeat(orphans, |b, _| {
        b.make_chan(oc, 0);
        b.go(orphan, &[oc], s_orphan);
    });
    b.clear(oc);
    for &ch in &chans[1..] {
        b.clear(ch);
    }
    b.sleep(1_000_000);
    p.define(b);
    p
}

fn collect_with(
    strategy: ExpansionStrategy,
    chain: i64,
    selectors: i64,
    orphans: i64,
    seed: u64,
) -> (Vec<(String, String)>, golf_core::GcCycleStats) {
    let mut vm = Vm::boot(
        mixed_program(chain, selectors, orphans),
        VmConfig { seed, panic_policy: PanicPolicy::KillGoroutine, ..VmConfig::default() },
    );
    vm.run(2_000);
    let mut gc = engine(strategy);
    let stats = gc.collect(&mut vm);
    let mut keys: Vec<_> = gc.reports().iter().map(|r| r.dedup_key_owned()).collect();
    keys.sort();
    (keys, stats)
}

#[test]
fn strategies_detect_identically() {
    for (chain, sel, orph) in [(4, 6, 5), (1, 0, 8), (8, 1, 0), (2, 10, 3)] {
        let (rescan_keys, rescan) = collect_with(ExpansionStrategy::Rescan, chain, sel, orph, 1);
        let (marked_keys, marked) =
            collect_with(ExpansionStrategy::FromMarked, chain, sel, orph, 1);
        let (incr_keys, incr) = collect_with(ExpansionStrategy::Incremental, chain, sel, orph, 1);
        assert_eq!(rescan_keys, marked_keys, "chain={chain} sel={sel} orph={orph}");
        assert_eq!(rescan_keys, incr_keys, "chain={chain} sel={sel} orph={orph}");
        assert_eq!(
            rescan.deadlocks_detected, marked.deadlocks_detected,
            "chain={chain} sel={sel} orph={orph}"
        );
        assert_eq!(rescan.deadlocks_detected, incr.deadlocks_detected);
        assert_eq!(rescan.objects_marked, marked.objects_marked, "same live set");
        assert_eq!(rescan.objects_marked, incr.objects_marked, "same live set");
    }
}

#[test]
fn incremental_completes_in_one_marking_pass() {
    // The §5.3 "even further" variant: a 12-link daisy chain needs 12+
    // iterations under Rescan but exactly one under Incremental, with the
    // same aggregate marking work.
    let (_, rescan) = collect_with(ExpansionStrategy::Rescan, 12, 0, 6, 2);
    let (_, incr) = collect_with(ExpansionStrategy::Incremental, 12, 0, 6, 2);
    assert!(rescan.mark_iterations >= 12);
    assert_eq!(incr.mark_iterations, 1, "no marking restarts");
    assert_eq!(incr.objects_marked, rescan.objects_marked);
    assert!(incr.liveness_checks <= rescan.liveness_checks);
}

#[test]
fn from_marked_does_less_work_on_daisy_chains() {
    // The Rescan strategy pays O(N·S) per iteration on a chain (N
    // iterations × rescanning every blocked goroutine); FromMarked pays
    // one check per waiter of each newly marked object.
    let (_, rescan) = collect_with(ExpansionStrategy::Rescan, 12, 0, 6, 2);
    let (_, marked) = collect_with(ExpansionStrategy::FromMarked, 12, 0, 6, 2);
    assert!(
        marked.liveness_checks < rescan.liveness_checks,
        "FromMarked {} vs Rescan {}",
        marked.liveness_checks,
        rescan.liveness_checks
    );
    assert!(rescan.mark_iterations >= 12, "chain forces one iteration per link");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Equivalence under arbitrary shapes and seeds — all three strategies.
    #[test]
    fn strategies_agree(chain in 1i64..6, sel in 0i64..8, orph in 0i64..8, seed in 0u64..1000) {
        let (a, sa) = collect_with(ExpansionStrategy::Rescan, chain, sel, orph, seed);
        let (b, sb) = collect_with(ExpansionStrategy::FromMarked, chain, sel, orph, seed);
        let (c, sc) = collect_with(ExpansionStrategy::Incremental, chain, sel, orph, seed);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&a, &c);
        prop_assert_eq!(sa.deadlocks_detected, sb.deadlocks_detected);
        prop_assert_eq!(sa.deadlocks_reclaimed, sb.deadlocks_reclaimed);
        prop_assert_eq!(sa.deadlocks_detected, sc.deadlocks_detected);
        prop_assert_eq!(sa.deadlocks_reclaimed, sc.deadlocks_reclaimed);
        prop_assert_eq!(sa.objects_marked, sc.objects_marked);
        // One marking loop: FromMarked and Incremental test the waiters of
        // every blackened object exactly once, and every strategy follows
        // each edge of the same live graph exactly once.
        prop_assert_eq!(sb.liveness_checks, sc.liveness_checks);
        prop_assert_eq!(sa.pointer_traversals, sb.pointer_traversals);
        prop_assert_eq!(sa.pointer_traversals, sc.pointer_traversals);
    }
}

/// §5.3's cost bound, measured: under `Rescan` the liveness-check count
/// grows quadratically with the chain length (one full rescan per
/// iteration), under `FromMarked` it grows linearly.
#[test]
fn cost_bound_shapes_match_section_5_3() {
    let checks = |strategy, n| collect_with(strategy, n, 0, 4, 3).1.liveness_checks as f64;

    let rescan_8 = checks(ExpansionStrategy::Rescan, 8);
    let rescan_16 = checks(ExpansionStrategy::Rescan, 16);
    let marked_8 = checks(ExpansionStrategy::FromMarked, 8);
    let marked_16 = checks(ExpansionStrategy::FromMarked, 16);

    // Doubling the chain should roughly quadruple Rescan's checks…
    let rescan_growth = rescan_16 / rescan_8;
    assert!(rescan_growth > 2.6, "Rescan growth {rescan_growth:.2} (expected ~4x for a 2x chain)");
    // …but only about double FromMarked's.
    let marked_growth = marked_16 / marked_8;
    assert!(
        marked_growth < 2.6,
        "FromMarked growth {marked_growth:.2} (expected ~2x for a 2x chain)"
    );
}

/// End-to-end: a full session under FromMarked behaves like the default.
#[test]
fn session_with_from_marked_reclaims() {
    let vm = Vm::boot(mixed_program(3, 2, 7), VmConfig::default());
    let mut session = Session::new(
        vm,
        GcMode::Golf,
        GolfConfig { expansion: ExpansionStrategy::FromMarked, ..GolfConfig::default() },
        golf_core::PacerConfig::default(),
    );
    session.run(2_000);
    session.collect();
    assert_eq!(session.gc_totals().deadlocks_reclaimed, 7);
}
