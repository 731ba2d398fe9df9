//! Liveness hints (§8 future work) turn the paper's two false-negative
//! patterns — Listings 4 and 5 — into detections, without ever freeing
//! reachable memory. Every test runs under all three §5.3 root-expansion
//! strategies, which treat hinted-inert roots the same way.

use golf_core::{ExpansionStrategy, GcEngine, GcMode, GolfConfig, LivenessHint};
use golf_runtime::{BinOp, FuncBuilder, GStatus, GlobalId, Goroutine, ProgramSet, Vm, VmConfig};

const STRATEGIES: [ExpansionStrategy; 3] =
    [ExpansionStrategy::Rescan, ExpansionStrategy::FromMarked, ExpansionStrategy::Incremental];

fn golf(expansion: ExpansionStrategy, reclaim: bool) -> GcEngine {
    GcEngine::new(GcMode::Golf, GolfConfig { expansion, reclaim, ..GolfConfig::default() })
}

/// The live goroutine spawned at `label`.
fn spawned_at<'a>(vm: &'a Vm, label: &str) -> &'a Goroutine {
    vm.live_goroutines()
        .find(|g| g.spawn_site.is_some_and(|s| &*vm.program().site_info(s).label == label))
        .unwrap_or_else(|| panic!("no live goroutine spawned at {label}"))
}

/// Whether every object on `g`'s stack survived the sweep.
fn stack_intact(vm: &Vm, g: &Goroutine) -> bool {
    g.stack_roots().all(|h| vm.heap().contains(h))
}

/// Listing 4: a sender blocked on a channel stored in a global.
fn listing4() -> (ProgramSet, GlobalId) {
    let mut p = ProgramSet::new();
    let global_ch = p.global("ch");
    let site = p.site("main:59");

    let mut b = FuncBuilder::new("sender", 0);
    let ch = b.var("ch");
    b.get_global(ch, global_ch);
    let one = b.int(1);
    b.send(ch, one);
    b.ret(None);
    let sender = p.define(b);

    let mut b = FuncBuilder::new("main", 0);
    let ch = b.var("ch");
    b.make_chan(ch, 0);
    b.set_global(global_ch, ch);
    b.clear(ch);
    b.go(sender, &[], site);
    b.sleep(1_000_000); // main stays alive, like a real service
    p.define(b);
    (p, global_ch)
}

#[test]
fn inert_global_hint_exposes_listing4() {
    for strategy in STRATEGIES {
        // Without the hint: false negative.
        let (p, _) = listing4();
        let mut vm = Vm::boot(p, VmConfig::default());
        vm.run(200);
        let mut gc = golf(strategy, true);
        gc.collect(&mut vm);
        assert!(gc.reports().is_empty(), "{strategy:?} unhinted: reachably live via the global");

        // With the hint: detected and reclaimed; the channel itself survives
        // (the global still references it).
        let (p, global_ch) = listing4();
        let mut vm = Vm::boot(p, VmConfig::default());
        vm.run(200);
        let mut gc = golf(strategy, true);
        gc.add_liveness_hint(LivenessHint::InertGlobal(global_ch));
        let stats = gc.collect(&mut vm);
        assert_eq!(gc.reports().len(), 1, "{strategy:?} hinted: the sender is deadlocked");
        assert_eq!(stats.deadlocks_reclaimed, 1, "{strategy:?}");
        // Memory safety: the global's channel was re-marked, not swept.
        let ch = vm.global(global_ch).as_ref_handle().unwrap();
        assert!(vm.heap().contains(ch), "{strategy:?}: hinted global's memory must survive");
    }
}

/// Listing 5: the heartbeat keeps the dispatcher (and its channel)
/// reachable, shielding the blocked sender.
fn listing5() -> ProgramSet {
    let mut p = ProgramSet::new();
    let disp_ty = p.struct_type("dispatcher", &["ch", "ticks"]);
    let site_hb = p.site("newDispatcher:71");
    let site_send = p.site("main:80");

    let mut b = FuncBuilder::new("heartbeat", 1);
    let d = b.param(0);
    let t = b.var("t");
    let one = b.int(1);
    b.forever(|b| {
        b.sleep(5);
        b.get_field(t, d, 1);
        b.bin(BinOp::Add, t, t, one);
        b.set_field(d, 1, t);
    });
    let heartbeat = p.define(b);

    let mut b = FuncBuilder::new("sender", 1);
    let d = b.param(0);
    let ch = b.var("ch");
    let v = b.int(1);
    b.get_field(ch, d, 0);
    b.send(ch, v);
    b.ret(None);
    let sender = p.define(b);

    let mut b = FuncBuilder::new("main", 0);
    let ch = b.var("ch");
    let zero = b.int(0);
    let d = b.var("d");
    b.make_chan(ch, 0);
    b.new_struct(disp_ty, &[ch, zero], d);
    b.go(heartbeat, &[d], site_hb);
    b.go(sender, &[d], site_send);
    b.clear(ch);
    b.clear(d);
    b.sleep(1_000_000);
    p.define(b);
    p
}

/// Boots Listing 5, collects once with the heartbeat's spawn site hinted
/// inert, and returns the VM and collector.
fn hinted_listing5(strategy: ExpansionStrategy, reclaim: bool) -> (Vm, GcEngine) {
    let mut vm = Vm::boot(listing5(), VmConfig::default());
    vm.run(200);
    let mut gc = golf(strategy, reclaim);
    gc.add_liveness_hint(LivenessHint::InertSpawnSite("newDispatcher:71".into()));
    gc.collect(&mut vm);
    (vm, gc)
}

/// Asserts the heartbeat was never reported, that its memory (inert stacks
/// are re-marked) survived the sweep, and that it keeps making progress.
fn assert_heartbeat_intact(vm: &mut Vm, strategy: ExpansionStrategy) {
    let hb = spawned_at(vm, "newDispatcher:71");
    assert_ne!(hb.status, GStatus::Deadlocked, "{strategy:?}");
    assert!(stack_intact(vm, hb), "{strategy:?}: heartbeat memory intact");
    let before = vm.instrs_executed();
    vm.run(100);
    assert!(vm.instrs_executed() > before, "{strategy:?}: heartbeat still runs");
}

#[test]
fn inert_spawn_site_hint_exposes_listing5() {
    for strategy in STRATEGIES {
        // Without the hint: false negative.
        let mut vm = Vm::boot(listing5(), VmConfig::default());
        vm.run(200);
        let mut gc = golf(strategy, true);
        gc.collect(&mut vm);
        assert!(gc.reports().is_empty(), "{strategy:?}");

        // With the hint on the heartbeat's spawn site: the sender is exposed.
        let (mut vm, gc) = hinted_listing5(strategy, true);
        assert_eq!(gc.reports().len(), 1, "{strategy:?}");
        assert_eq!(gc.reports()[0].spawn_site.as_deref(), Some("main:80"));
        assert_heartbeat_intact(&mut vm, strategy);
    }
}

#[test]
fn inert_spawn_site_hint_reports_listing5_without_reclaim() {
    for strategy in STRATEGIES {
        let (mut vm, mut gc) = hinted_listing5(strategy, false);
        assert_eq!(gc.reports().len(), 1, "{strategy:?}");
        assert_eq!(gc.reports()[0].spawn_site.as_deref(), Some("main:80"));
        // Report-only: the sender stays parked and its memory is re-marked.
        let sender = vm.goroutine(gc.reports()[0].gid).expect("sender not reclaimed");
        assert!(sender.deadlock_candidate(), "{strategy:?}: sender still parked");
        assert!(stack_intact(&vm, sender), "{strategy:?}: sender memory intact");
        assert_heartbeat_intact(&mut vm, strategy);
        // A later cycle does not report the sender again.
        gc.collect(&mut vm);
        assert_eq!(gc.reports().len(), 1, "{strategy:?}: reported once");
    }
}

/// A live consumer and a stuck sender on two global channels; returns the
/// program and the stuck sender's global.
fn unrelated_globals() -> (ProgramSet, GlobalId) {
    let mut p = ProgramSet::new();
    let g_used = p.global("used");
    let g_dead = p.global("dead");
    let site_ok = p.site("main:ok");
    let site_leak = p.site("main:leak");

    let mut b = FuncBuilder::new("consumer", 0);
    let ch = b.var("ch");
    b.get_global(ch, g_used);
    b.recv(ch, None);
    b.ret(None);
    let consumer = p.define(b);

    let mut b = FuncBuilder::new("stuck", 0);
    let ch = b.var("ch");
    b.get_global(ch, g_dead);
    let v = b.int(1);
    b.send(ch, v);
    b.ret(None);
    let stuck = p.define(b);

    let mut b = FuncBuilder::new("main", 0);
    let a = b.var("a");
    let c = b.var("c");
    b.make_chan(a, 0);
    b.make_chan(c, 0);
    b.set_global(g_used, a);
    b.set_global(g_dead, c);
    b.clear(a);
    b.clear(c);
    b.go(consumer, &[], site_ok);
    b.go(stuck, &[], site_leak);
    b.sleep(50);
    // main will eventually serve the consumer through the global.
    let ch = b.var("ch");
    b.get_global(ch, g_used);
    let v = b.int(9);
    b.send(ch, v);
    b.sleep(1_000_000);
    p.define(b);
    (p, g_dead)
}

#[test]
fn hints_do_not_affect_unrelated_goroutines() {
    // A live consumer on a global channel must NOT be reported just
    // because an unrelated global is hinted inert.
    for strategy in STRATEGIES {
        let (p, g_dead) = unrelated_globals();
        let mut vm = Vm::boot(p, VmConfig::default());
        vm.run(30);
        let mut gc = golf(strategy, true);
        gc.add_liveness_hint(LivenessHint::InertGlobal(g_dead));
        gc.collect(&mut vm);
        let sites: Vec<_> = gc
            .reports()
            .iter()
            .filter_map(|r| r.spawn_site.as_deref().map(str::to_string))
            .collect();
        assert_eq!(
            sites,
            vec!["main:leak".to_string()],
            "{strategy:?}: only the hinted-dead global's goroutine"
        );
        // The consumer still completes once main sends.
        vm.run(100_000);
        assert_eq!(vm.blocked_count(), 0, "{strategy:?}: consumer was served");
    }
}

/// `waiter` blocks receiving on `live`, which main keeps, while its stack
/// holds `held`, the channel `sender` is blocked on; main drops `held`.
fn inert_waiter() -> ProgramSet {
    let mut p = ProgramSet::new();
    let site_wait = p.site("main:wait");
    let site_send = p.site("main:send");

    let mut b = FuncBuilder::new("waiter", 2);
    let live = b.param(0);
    b.recv(live, None);
    b.ret(None);
    let waiter = p.define(b);

    let mut b = FuncBuilder::new("sender", 1);
    let ch = b.param(0);
    let v = b.int(1);
    b.send(ch, v);
    b.ret(None);
    let sender = p.define(b);

    let mut b = FuncBuilder::new("main", 0);
    let live = b.var("live");
    let held = b.var("held");
    b.make_chan(live, 0);
    b.make_chan(held, 0);
    b.go(waiter, &[live, held], site_wait);
    b.go(sender, &[held], site_send);
    b.clear(held);
    b.sleep(1_000_000);
    p.define(b);
    p
}

#[test]
fn inert_goroutine_is_neither_expanded_nor_reported() {
    for strategy in STRATEGIES {
        // Without the hint: the waiter is reachably live through `live`,
        // and its stack keeps the sender's channel marked.
        let mut vm = Vm::boot(inert_waiter(), VmConfig::default());
        vm.run(200);
        let mut gc = golf(strategy, true);
        gc.collect(&mut vm);
        assert!(gc.reports().is_empty(), "{strategy:?}");

        // Hinted inert: the waiter's stack joins no root set, so only the
        // sender is deadlocked; the waiter is never reported and its memory
        // is re-marked before the sweep.
        let mut vm = Vm::boot(inert_waiter(), VmConfig::default());
        vm.run(200);
        let mut gc = golf(strategy, true);
        gc.add_liveness_hint(LivenessHint::InertSpawnSite("main:wait".into()));
        gc.collect(&mut vm);
        let sites: Vec<_> = gc.reports().iter().filter_map(|r| r.spawn_site.as_deref()).collect();
        assert_eq!(sites, ["main:send"], "{strategy:?}");
        let waiter = spawned_at(&vm, "main:wait");
        assert!(waiter.deadlock_candidate(), "{strategy:?}: waiter still parked");
        assert!(stack_intact(&vm, waiter), "{strategy:?}: waiter memory intact");
    }
}
