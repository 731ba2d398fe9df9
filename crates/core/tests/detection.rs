//! Detection-scenario tests: each of the paper's listings as a runnable
//! program, plus the mechanics GOLF relies on (root restriction, expansion,
//! finalizer preservation, recovery, report deduplication).

use golf_core::{
    ExpansionStrategy, GcEngine, GcMode, GolfConfig, PacerConfig, PhaseEvent, Session,
};
use golf_runtime::{FuncBuilder, GStatus, ProgramSet, RunStatus, SelectSpec, Value, Vm, VmConfig};

const STRATEGIES: [ExpansionStrategy; 3] =
    [ExpansionStrategy::Rescan, ExpansionStrategy::FromMarked, ExpansionStrategy::Incremental];

fn golf_session(p: ProgramSet) -> Session {
    Session::golf(Vm::boot(p, VmConfig::default()))
}

/// A GOLF session that expands roots with `expansion` (paper §5.3).
fn golf_session_with(p: ProgramSet, expansion: ExpansionStrategy) -> Session {
    let golf = GolfConfig { expansion, ..GolfConfig::default() };
    Session::new(Vm::boot(p, VmConfig::default()), GcMode::Golf, golf, PacerConfig::default())
}

/// Paper Listing 3: NewFuncManager spawns two channel-ranging goroutines;
/// ConcurrentTask sometimes returns without calling WaitForResults, so the
/// channels are never closed and both goroutines deadlock.
fn listing3(call_wait_for_results: bool) -> ProgramSet {
    let mut p = ProgramSet::new();
    let gfm_ty = p.struct_type("goFuncManager", &["e", "d"]);
    let site_e = p.site("NewFuncManager:34");
    let site_d = p.site("NewFuncManager:37");

    // func ranger(ch) { for range ch {} }
    let mut b = FuncBuilder::new("ranger", 1);
    let ch = b.param(0);
    let item = b.var("item");
    b.range_chan(ch, item, |_| {});
    b.ret(None);
    let ranger = p.define(b);

    // func NewFuncManager() *goFuncManager
    let mut b = FuncBuilder::new("NewFuncManager", 0);
    let e = b.var("e");
    let d = b.var("d");
    let gfm = b.var("gfm");
    b.make_chan(e, 0);
    b.make_chan(d, 0);
    b.new_struct(gfm_ty, &[e, d], gfm);
    b.go(ranger, &[e], site_e);
    b.go(ranger, &[d], site_d);
    b.ret(Some(gfm));
    let new_fm = p.define(b);

    // func WaitForResults(gfm) { close(gfm.e); close(gfm.d) }
    let mut b = FuncBuilder::new("WaitForResults", 1);
    let gfm = b.param(0);
    let ch = b.var("ch");
    b.get_field(ch, gfm, 0);
    b.close_chan(ch);
    b.get_field(ch, gfm, 1);
    b.close_chan(ch);
    b.ret(None);
    let wait = p.define(b);

    // func ConcurrentTask() { gfm := NewFuncManager(); if cond { return }; gfm.WaitForResults() }
    let mut b = FuncBuilder::new("ConcurrentTask", 0);
    let gfm = b.var("gfm");
    b.call(new_fm, &[], Some(gfm));
    if !call_wait_for_results {
        b.ret(None); // the early-return path of line 51
    }
    b.call(wait, &[gfm], None);
    b.ret(None);
    p.define(b);

    // main: run ConcurrentTask, give goroutines time to park, force GC.
    let ct = p.func_named("ConcurrentTask").unwrap();
    let mut b = FuncBuilder::new("main", 0);
    b.call(ct, &[], None);
    b.sleep(20);
    b.gc();
    b.ret(None);
    p.define(b);
    p
}

#[test]
fn listing3_buggy_path_detects_both_goroutines() {
    let mut s = golf_session(listing3(false));
    assert_eq!(s.run(100_000).status, RunStatus::MainDone);
    let mut sites: Vec<_> =
        s.reports().iter().map(|r| r.spawn_site.clone().unwrap().to_string()).collect();
    sites.sort();
    assert_eq!(sites, vec!["NewFuncManager:34", "NewFuncManager:37"]);
    // Recovery reclaimed both goroutines and the channels they blocked on.
    assert_eq!(s.vm().live_count(), 0);
    assert_eq!(s.vm().heap().len(), 0, "all memory reclaimed");
}

#[test]
fn listing3_correct_path_reports_nothing() {
    let mut s = golf_session(listing3(true));
    assert_eq!(s.run(100_000).status, RunStatus::MainDone);
    assert!(s.reports().is_empty(), "false positive: {:?}", s.reports());
}

/// Paper Listing 4: a *global* channel keeps the blocked sender reachably
/// live forever — a by-design false negative.
fn listing4() -> ProgramSet {
    let mut p = ProgramSet::new();
    let global_ch = p.global("ch");
    let site = p.site("main:59");

    let mut b = FuncBuilder::new("sender", 0);
    let ch = b.var("ch");
    let one = b.int(1);
    b.get_global(ch, global_ch);
    b.send(ch, one);
    b.ret(None);
    let sender = p.define(b);

    let mut b = FuncBuilder::new("main", 0);
    let ch = b.var("ch");
    b.make_chan(ch, 0);
    b.set_global(global_ch, ch);
    b.clear(ch);
    b.go(sender, &[], site);
    b.sleep(20);
    b.gc();
    b.ret(None);
    p.define(b);
    p
}

#[test]
fn listing4_global_channel_is_a_false_negative() {
    for strategy in STRATEGIES {
        let mut s = golf_session_with(listing4(), strategy);
        assert_eq!(s.run(100_000).status, RunStatus::MainDone, "{strategy:?}");
        assert!(s.reports().is_empty(), "{strategy:?}: global channels hide deadlocks from GOLF");
        // The goroutine is genuinely leaked (a baseline detector would see it).
        assert_eq!(s.vm().blocked_count(), 1, "{strategy:?}");
    }
}

/// Paper Listing 5: a runaway-live heartbeat goroutine keeps the dispatcher
/// (and its channel) reachable, hiding the blocked sender — the second
/// false-negative pattern.
fn listing5() -> ProgramSet {
    let mut p = ProgramSet::new();
    let disp_ty = p.struct_type("dispatcher", &["ch", "ticks"]);
    let site_hb = p.site("newDispatcher:71");
    let site_send = p.site("main:80");

    // heartbeat(d): for { sleep; d.ticks++ }
    let mut b = FuncBuilder::new("heartbeat", 1);
    let d = b.param(0);
    let t = b.var("t");
    let one = b.int(1);
    b.forever(|b| {
        b.sleep(5);
        b.get_field(t, d, 1);
        b.bin(golf_runtime::BinOp::Add, t, t, one);
        b.set_field(d, 1, t);
    });
    let heartbeat = p.define(b);

    // sender(d): d.ch <- struct{}{}
    let mut b = FuncBuilder::new("sender", 1);
    let d = b.param(0);
    let ch = b.var("ch");
    let v = b.int(1);
    b.get_field(ch, d, 0);
    b.send(ch, v);
    b.ret(None);
    let sender = p.define(b);

    // newDispatcher(): d := &dispatcher{ch: make(chan), ticks: 0}; go heartbeat(d); return d
    let mut b = FuncBuilder::new("newDispatcher", 0);
    let ch = b.var("ch");
    let zero = b.int(0);
    let d = b.var("d");
    b.make_chan(ch, 0);
    b.new_struct(disp_ty, &[ch, zero], d);
    b.go(heartbeat, &[d], site_hb);
    b.ret(Some(d));
    let new_disp = p.define(b);

    // main: d := newDispatcher(); go sender(d); return early (never <-d.ch)
    let mut b = FuncBuilder::new("main", 0);
    let d = b.var("d");
    b.call(new_disp, &[], Some(d));
    b.go(sender, &[d], site_send);
    b.clear(d);
    b.sleep(20);
    b.gc();
    b.ret(None);
    p.define(b);
    p
}

#[test]
fn listing5_runaway_live_goroutine_is_a_false_negative() {
    for strategy in STRATEGIES {
        let mut s = golf_session_with(listing5(), strategy);
        assert_eq!(s.run(100_000).status, RunStatus::MainDone, "{strategy:?}");
        assert!(
            s.reports().is_empty(),
            "{strategy:?}: heartbeat keeps d.ch reachable; sender must not be reported: {:?}",
            s.reports()
        );
        // Both the heartbeat (live) and the sender (leaked) remain.
        assert_eq!(s.vm().live_count(), 2, "{strategy:?}");
    }
}

/// A blocked-waiter chain: `waiter` parks receiving on `live`, which main
/// keeps, while its stack holds `held`, the channel `sender` parks on; main
/// drops `held`.
fn waiter_chain() -> ProgramSet {
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

/// The waiter is reachably live through `live`; expanding the roots by its
/// stack marks `held`, which makes the sender reachably live in turn.
#[test]
fn blocked_waiter_keeps_the_channel_it_holds_live() {
    for strategy in STRATEGIES {
        let mut s = golf_session_with(waiter_chain(), strategy);
        s.run(200);
        s.collect();
        assert!(s.reports().is_empty(), "{strategy:?}: {:?}", s.reports());
        assert_eq!(s.vm().blocked_count(), 2, "{strategy:?}: waiter and sender stay parked");
    }
}

/// Paper Listing 6: a deadlocked goroutine whose stack reaches an object
/// with a finalizer must NOT be reclaimed — reclaiming would run the
/// finalizer and change observable semantics (§5.5).
#[test]
fn listing6_finalizers_preserve_deadlocked_goroutines() {
    let mut p = ProgramSet::new();
    let ran = p.global("finalizer_ran");
    let site = p.site("PrintAverage:86");

    // finalizer(vs): finalizer_ran = 1  (would divide by zero in the paper)
    let mut b = FuncBuilder::new("finalizer", 1);
    let one = b.int(1);
    b.set_global(ran, one);
    b.ret(None);
    let finalizer = p.define(b);

    // worker(ch): vs := []; SetFinalizer(vs, finalizer); <-ch
    let mut b = FuncBuilder::new("worker", 1);
    let ch = b.param(0);
    let vs = b.var("vs");
    b.new_slice(vs);
    b.set_finalizer(vs, finalizer);
    b.recv(ch, None);
    b.ret(None);
    let worker = p.define(b);

    // main: ch := make(chan); go worker(ch); drop ch; gc twice
    let mut b = FuncBuilder::new("main", 0);
    let ch = b.var("ch");
    b.make_chan(ch, 0);
    b.go(worker, &[ch], site);
    b.clear(ch);
    b.sleep(20);
    b.gc();
    b.sleep(5);
    b.gc();
    b.ret(None);
    p.define(b);

    let mut s = golf_session(p);
    assert_eq!(s.run(100_000).status, RunStatus::MainDone);
    // Reported exactly once despite two GC cycles.
    assert_eq!(s.reports().len(), 1);
    // Preserved, not reclaimed; the finalizer never ran.
    let preserved = golf_core::preserved_goroutines(s.vm());
    assert_eq!(preserved.len(), 1);
    assert_eq!(s.vm().global(ran), Value::Nil, "finalizer must not run");
    let g = s.vm().goroutine(preserved[0]).unwrap();
    assert_eq!(g.status, GStatus::Deadlocked);
}

#[test]
fn finalizer_free_goroutines_are_reclaimed_and_finalizers_run_for_ordinary_garbage() {
    // Ordinary unreachable object with a finalizer: finalizer runs (Go
    // semantics), object dies the cycle after.
    let mut p = ProgramSet::new();
    let ran = p.global("ran");

    let mut b = FuncBuilder::new("finalizer", 1);
    let one = b.int(1);
    b.set_global(ran, one);
    b.ret(None);
    let finalizer = p.define(b);

    let mut b = FuncBuilder::new("main", 0);
    let vs = b.var("vs");
    b.new_slice(vs);
    b.set_finalizer(vs, finalizer);
    b.clear(vs); // drop the only reference
    b.gc(); // cycle 1: resurrects, schedules the finalizer goroutine
    b.sleep(10); // let the finalizer goroutine run
    b.gc(); // cycle 2: object dies
    b.ret(None);
    p.define(b);

    let mut s = golf_session(p);
    assert_eq!(s.run(100_000).status, RunStatus::MainDone);
    assert_eq!(s.vm().global(ran), Value::Int(1), "finalizer ran");
    assert_eq!(s.vm().heap().len(), 0, "object reclaimed after finalizer");
}

/// A program whose two goroutines both block forever on one dropped channel
/// and share the slice `shared` (with a finalizer when `shared_finalized`).
/// `first_finalized`/`second_finalized` give the goroutine spawned
/// first/second a private slice with a finalizer too. Returns the program
/// and the spawn sites of the two goroutines.
fn shared_subgraph(
    shared_finalized: bool,
    first_finalized: bool,
    second_finalized: bool,
) -> (ProgramSet, [golf_runtime::SiteId; 2], golf_runtime::GlobalId) {
    let mut p = ProgramSet::new();
    let ran = p.global("finalizer_ran");
    let sites = [p.site("main:first"), p.site("main:second")];

    let mut b = FuncBuilder::new("finalizer", 1);
    let one = b.int(1);
    b.set_global(ran, one);
    b.ret(None);
    let finalizer = p.define(b);

    // worker(ch, shared): [own := []; SetFinalizer(own, finalizer)]; <-ch
    let mut workers = Vec::new();
    for (name, finalized) in [("plain", false), ("guarded", true)] {
        let mut b = FuncBuilder::new(name, 2);
        let ch = b.param(0);
        if finalized {
            let own = b.var("own");
            b.new_slice(own);
            b.set_finalizer(own, finalizer);
        }
        b.recv(ch, None);
        b.ret(None);
        workers.push(p.define(b));
    }

    let mut b = FuncBuilder::new("main", 0);
    let ch = b.var("ch");
    let shared = b.var("shared");
    b.make_chan(ch, 0);
    b.new_slice(shared);
    if shared_finalized {
        b.set_finalizer(shared, finalizer);
    }
    b.go(workers[usize::from(first_finalized)], &[ch, shared], sites[0]);
    b.go(workers[usize::from(second_finalized)], &[ch, shared], sites[1]);
    b.clear(ch);
    b.clear(shared);
    b.sleep(20);
    b.gc();
    b.ret(None);
    p.define(b);
    (p, sites, ran)
}

/// Runs `p` under GOLF and returns the spawn site of the one goroutine kept
/// for its finalizers, after checking that both goroutines were reported,
/// the other was reclaimed, no finalizer ran, and the kept goroutine's stack
/// still resolves.
fn preserved_site(p: ProgramSet, ran: golf_runtime::GlobalId) -> golf_runtime::SiteId {
    let mut s = golf_session(p);
    assert_eq!(s.run(100_000).status, RunStatus::MainDone);
    assert_eq!(s.reports().len(), 2);
    assert_eq!(s.vm().counters().forced_shutdowns, 1);
    assert_eq!(s.vm().global(ran), Value::Nil, "finalizer must not run");
    let preserved = golf_core::preserved_goroutines(s.vm());
    assert_eq!(preserved.len(), 1);
    let g = s.vm().goroutine(preserved[0]).unwrap();
    assert!(g.stack_roots().all(|h| s.vm().heap().contains(h)), "kept memory was swept");
    s.vm().heap().validate().unwrap();
    g.spawn_site.unwrap()
}

/// The finalizer check walks the unmarked subgraph, and a preserved
/// goroutine's subgraph is marked before the next check: of two deadlocked
/// goroutines sharing one finalized slice, the first in slot order is
/// preserved, and the second, whose only finalizer is then marked, is
/// reclaimed.
#[test]
fn shared_finalizer_preserves_only_the_first_goroutine_in_slot_order() {
    let (p, sites, ran) = shared_subgraph(true, false, false);
    assert_eq!(preserved_site(p, ran), sites[0]);
}

/// A finalizer-free goroutine sharing objects with a preserved one is
/// reclaimed, in either slot order, and the shared objects survive with the
/// preserved goroutine.
#[test]
fn finalizer_free_goroutine_sharing_with_a_preserved_one_is_reclaimed() {
    let (p, sites, ran) = shared_subgraph(false, false, true);
    assert_eq!(preserved_site(p, ran), sites[1]);
    let (p, sites, ran) = shared_subgraph(false, true, false);
    assert_eq!(preserved_site(p, ran), sites[0]);
}

/// The paper's §5.2 daisy chain: g1 blocked on ch1 held by g2, blocked on
/// ch2 held by g3, … — discovering liveness takes one mark iteration per
/// link, but total marking work stays proportional to the heap.
#[test]
fn daisy_chain_requires_n_mark_iterations() {
    let n = 6;
    let mut p = ProgramSet::new();
    let site = p.site("main:chain");

    // link(mine, next): <-mine... actually: recv on mine blocks; holder of
    // `next` channel. A chain where g_i is blocked on ch_i while holding
    // ch_{i+1} on its stack.
    let mut b = FuncBuilder::new("link", 2); // mine, next
    let mine = b.param(0);
    b.recv(mine, None);
    // `next` stays on the stack, keeping the next link reachably live.
    b.ret(None);
    let link = p.define(b);

    // last link: blocked on its channel, holds nothing.
    let mut b = FuncBuilder::new("last", 1);
    let mine = b.param(0);
    b.recv(mine, None);
    b.ret(None);
    let last = p.define(b);

    // main: ch1..chn; go link(ch_i, ch_{i+1}); keep ch1 alive on main's
    // stack; main parks on sleep (live), so g1 is reachably live via ch1,
    // g2 via ch2 (on g1's stack), etc.
    let mut b = FuncBuilder::new("main", 0);
    let chans: Vec<_> = (0..n).map(|i| b.var(&format!("ch{i}"))).collect();
    for &ch in &chans {
        b.make_chan(ch, 0);
    }
    for i in 0..n - 1 {
        b.go(link, &[chans[i], chans[i + 1]], site);
    }
    b.go(last, &[chans[n - 1]], site);
    // Drop all but ch1 from main's stack.
    for &ch in &chans[1..] {
        b.clear(ch);
    }
    b.sleep(20);
    b.gc();
    b.ret(None);
    p.define(b);

    let vm = Vm::boot(p, VmConfig::default());
    let mut s = Session::golf(vm);
    assert_eq!(s.run(100_000).status, RunStatus::MainDone);
    assert!(s.reports().is_empty(), "every link is reachably live: {:?}", s.reports());

    let hist = s.engine().history();
    let detect_cycle = hist.iter().find(|c| c.golf_detection && c.mark_iterations > 1);
    let cycle = detect_cycle.expect("a detection cycle with root expansion");
    assert!(
        cycle.mark_iterations >= n as u32,
        "daisy chain of {n} links needs ≥{n} iterations, got {}",
        cycle.mark_iterations
    );
}

#[test]
fn baseline_mode_never_reports() {
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
    b.sleep(10);
    b.gc();
    b.ret(None);
    p.define(b);

    let mut s = Session::baseline(Vm::boot(p, VmConfig::default()));
    assert_eq!(s.run(100_000).status, RunStatus::MainDone);
    assert!(s.reports().is_empty());
    // The leak persists: goroutine still parked, channel still on the heap.
    assert_eq!(s.vm().blocked_count(), 1);
    assert!(!s.vm().heap().is_empty());
    // Baseline cycles mark in exactly one iteration.
    assert!(s.engine().history().iter().all(|c| c.mark_iterations == 1));
}

#[test]
fn report_only_mode_reports_once_and_keeps_memory_safe() {
    let build = || {
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
        b.sleep(10);
        b.gc();
        b.sleep(5);
        b.gc();
        b.sleep(5);
        b.gc();
        b.ret(None);
        p.define(b);
        p
    };

    let mut s = Session::golf_report_only(Vm::boot(build(), VmConfig::default()));
    assert_eq!(s.run(100_000).status, RunStatus::MainDone);
    assert_eq!(s.reports().len(), 1, "reported exactly once across three cycles");
    // Goroutine still parked; its channel survived every sweep.
    assert_eq!(s.vm().blocked_count(), 1);
    let g = s.vm().live_goroutines().next().unwrap();
    for h in g.blocked.handles() {
        assert!(s.vm().heap().contains(*h), "blocked-on channel must survive in report-only mode");
    }
}

#[test]
fn detect_every_skips_cycles_without_losing_detections() {
    let build = || {
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
        b.sleep(10);
        for _ in 0..4 {
            b.gc();
            b.sleep(2);
        }
        b.ret(None);
        p.define(b);
        p
    };

    let vm = Vm::boot(build(), VmConfig::default());
    let mut s = Session::new(
        vm,
        GcMode::Golf,
        GolfConfig { detect_every: 3, reclaim: true, ..GolfConfig::default() },
        golf_core::PacerConfig::default(),
    );
    assert_eq!(s.run(100_000).status, RunStatus::MainDone);
    assert_eq!(s.reports().len(), 1, "the skipped cycles cost nothing: the leak is stable");
    let hist = s.engine().history();
    let detecting = hist.iter().filter(|c| c.golf_detection).count();
    assert!(detecting < hist.len(), "some cycles must have skipped detection");
}

#[test]
fn phase_trace_matches_figure2_order() {
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
    b.sleep(10);
    b.ret(None);
    p.define(b);

    let mut vm = Vm::boot(p, VmConfig::default());
    vm.run(1_000);
    let mut gc = GcEngine::golf();
    let stats = gc.collect(&mut vm);

    // Init ... RootsPrepared ... MarkIteration+ ... MarkDone ...
    // DeadlocksDetected ... Reclaimed ... Sweep
    assert!(matches!(stats.phases.first(), Some(PhaseEvent::Init)));
    assert!(matches!(stats.phases.last(), Some(PhaseEvent::Sweep { .. })));
    let idx = |pred: &dyn Fn(&PhaseEvent) -> bool| stats.phases.iter().position(pred);
    let roots = idx(&|e| matches!(e, PhaseEvent::RootsPrepared { restricted: true, .. })).unwrap();
    let mark_done = idx(&|e| matches!(e, PhaseEvent::MarkDone)).unwrap();
    let detected = idx(&|e| matches!(e, PhaseEvent::DeadlocksDetected { count: 1 })).unwrap();
    let reclaimed = idx(&|e| matches!(e, PhaseEvent::Reclaimed { count: 1 })).unwrap();
    assert!(roots < mark_done && mark_done < detected && detected < reclaimed);
}

#[test]
fn select_deadlock_is_detected_with_all_channels_unreachable() {
    let mut p = ProgramSet::new();
    let site = p.site("main:go");

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

    let mut b = FuncBuilder::new("main", 0);
    let ch1 = b.var("ch1");
    let ch2 = b.var("ch2");
    b.make_chan(ch1, 0);
    b.make_chan(ch2, 0);
    b.go(selector, &[ch1, ch2], site);
    b.clear(ch1);
    b.clear(ch2);
    b.sleep(10);
    b.gc();
    b.ret(None);
    p.define(b);

    let mut s = golf_session(p);
    assert_eq!(s.run(100_000).status, RunStatus::MainDone);
    assert_eq!(s.reports().len(), 1);
    assert_eq!(s.reports()[0].wait_reason, golf_runtime::WaitReason::Select);
}

#[test]
fn select_with_one_reachable_channel_is_live() {
    // Same selector, but main keeps ch1 on its stack and eventually sends.
    let mut p = ProgramSet::new();
    let site = p.site("main:go");

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

    let mut b = FuncBuilder::new("main", 0);
    let ch1 = b.var("ch1");
    let ch2 = b.var("ch2");
    b.make_chan(ch1, 0);
    b.make_chan(ch2, 0);
    b.go(selector, &[ch1, ch2], site);
    b.clear(ch2);
    b.sleep(10);
    b.gc(); // ch1 still reachable from main: selector is reachably live
    let v = b.int(1);
    b.send(ch1, v);
    b.sleep(5); // let the selector finish before main exits
    b.ret(None);
    p.define(b);

    let mut s = golf_session(p);
    assert_eq!(s.run(100_000).status, RunStatus::MainDone);
    assert!(s.reports().is_empty(), "selector was live: {:?}", s.reports());
    assert_eq!(s.vm().live_count(), 0, "selector completed normally");
}

#[test]
fn sync_mutex_deadlock_detected_via_sema_reachability() {
    // A goroutine locks a mutex nobody else can reach, then a second
    // goroutine blocks locking it; main drops all references.
    let mut p = ProgramSet::new();
    let site1 = p.site("main:holder");
    let site2 = p.site("main:blocker");

    let mut b = FuncBuilder::new("holder", 1);
    let mu = b.param(0);
    b.lock(mu);
    b.sleep(1_000_000); // holds the lock ~forever but is sleep-live
    b.unlock(mu);
    b.ret(None);
    let holder = p.define(b);

    let mut b = FuncBuilder::new("blocker", 1);
    let mu = b.param(0);
    b.lock(mu);
    b.unlock(mu);
    b.ret(None);
    let blocker = p.define(b);

    let mut b = FuncBuilder::new("main", 0);
    let mu = b.var("mu");
    b.new_mutex(mu);
    b.go(holder, &[mu], site1);
    b.sleep(5);
    b.go(blocker, &[mu], site2);
    b.clear(mu);
    b.sleep(10);
    b.gc();
    b.ret(None);
    p.define(b);

    let mut s = golf_session(p);
    // Main exits while the holder still sleeps and the blocker still waits.
    assert_eq!(s.run(100_000).status, RunStatus::MainDone);
    // The blocker is parked on the mutex sema, but the holder's stack still
    // references the mutex → sema marked → blocker reachably live. No report.
    assert!(s.reports().is_empty(), "{:?}", s.reports());
}

#[test]
fn sync_waitgroup_deadlock_detected_when_waitgroup_unreachable() {
    // Classic WaitGroup misuse: Add(2) but only one Done; the waiter parks
    // forever. Main drops the wait group.
    let mut p = ProgramSet::new();
    let site_w = p.site("main:waiter");
    let site_d = p.site("main:doer");

    let mut b = FuncBuilder::new("waiter", 1);
    let wg = b.param(0);
    b.wg_wait(wg);
    b.ret(None);
    let waiter = p.define(b);

    let mut b = FuncBuilder::new("doer", 1);
    let wg = b.param(0);
    b.wg_done(wg);
    b.ret(None);
    let doer = p.define(b);

    let mut b = FuncBuilder::new("main", 0);
    let wg = b.var("wg");
    b.new_waitgroup(wg);
    b.wg_add(wg, 2);
    b.go(doer, &[wg], site_d);
    b.go(waiter, &[wg], site_w);
    b.clear(wg);
    b.sleep(20);
    b.gc();
    b.ret(None);
    p.define(b);

    let mut s = golf_session(p);
    assert_eq!(s.run(100_000).status, RunStatus::MainDone);
    assert_eq!(s.reports().len(), 1);
    assert_eq!(s.reports()[0].wait_reason, golf_runtime::WaitReason::SyncWaitGroupWait);
    assert_eq!(s.reports()[0].spawn_site.as_deref(), Some("main:waiter"));
}

#[test]
fn nil_channel_and_empty_select_always_detected() {
    let mut p = ProgramSet::new();
    let s1 = p.site("main:nil");
    let s2 = p.site("main:empty");

    let mut b = FuncBuilder::new("nil_block", 0);
    let nilv = b.var("nil");
    b.recv(nilv, None);
    let f1 = p.define(b);

    let mut b = FuncBuilder::new("empty_select", 0);
    b.select_forever();
    let f2 = p.define(b);

    let mut b = FuncBuilder::new("main", 0);
    b.go(f1, &[], s1);
    b.go(f2, &[], s2);
    b.sleep(10);
    b.gc();
    b.ret(None);
    p.define(b);

    let mut s = golf_session(p);
    assert_eq!(s.run(100_000).status, RunStatus::MainDone);
    assert_eq!(s.reports().len(), 2, "B(g)={{ε}} goroutines are always deadlocked");
    assert_eq!(s.vm().live_count(), 0, "both reclaimed");
}

#[test]
fn recovered_goroutine_slots_are_reused_cleanly() {
    // Leak, reclaim, then spawn fresh goroutines into the recycled slots;
    // the special cleanup must leave no select residue behind.
    let mut p = ProgramSet::new();
    let site = p.site("main:leak");
    let site2 = p.site("main:fresh");

    let mut b = FuncBuilder::new("leak_select", 2);
    let ch1 = b.param(0);
    let ch2 = b.param(1);
    let l1 = b.label();
    let l2 = b.label();
    b.select(SelectSpec::new().recv(ch1, None, l1).recv(ch2, None, l2));
    b.bind(l1);
    b.bind(l2);
    b.ret(None);
    let leak_select = p.define(b);

    let mut b = FuncBuilder::new("fresh", 0);
    b.sleep(1);
    b.ret(None);
    let fresh = p.define(b);

    let mut b = FuncBuilder::new("main", 0);
    let ch1 = b.var("ch1");
    let ch2 = b.var("ch2");
    b.make_chan(ch1, 0);
    b.make_chan(ch2, 0);
    b.go(leak_select, &[ch1, ch2], site);
    b.clear(ch1);
    b.clear(ch2);
    b.sleep(10);
    b.gc(); // reclaims the selector mid-select (dirty select state)
    b.repeat(3, |b, _| {
        b.go(fresh, &[], site2);
        b.sleep(5);
    });
    b.ret(None);
    p.define(b);

    let mut s = golf_session(p);
    assert_eq!(s.run(100_000).status, RunStatus::MainDone);
    assert_eq!(s.reports().len(), 1);
    assert!(s.vm().counters().forced_shutdowns == 1);
    assert!(s.vm().counters().reused >= 1, "recycled the reclaimed slot");
}
